"""Span tracing of the gwreath layers, installed from outside the package.

``Tracer.install`` replaces every public function and method of the
layer modules with a wrapper, both where it is defined and wherever
another gwreath module imported it by name (``gwreath.wreath.canonical_form``
is the same object as ``gwreath.words.canonical_form``).  ``uninstall``
puts every original back.  The package itself is not modified on disk.

Two kinds of wrapper exist:

* span wrappers record (id, parent id, operation id, name, start, end,
  time covered by children) in memory;
* light wrappers, used for the small predicates called in inner loops
  (``adjacent``, ``has_vertex``, ``compose``, ``check`` and the other
  names in ``LIGHT``), only count calls and add their duration to their
  module's self time and to the enclosing span's child time.  A call
  made inside a light call is counted but not timed, so no time is
  counted twice.

A layer's self time is therefore the sum over its spans of duration
minus child-covered time, plus the time of its outermost light calls;
summed over all layers and added to the time outside every span it
gives back the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("groups", "graphs", "words", "wreath", "checker", "lef", "formats", "cli")

# Inner-loop predicates and helpers: counted and timed, never spanned.
LIGHT = frozenset({
    "adjacent", "has_vertex", "check_vertex", "compose", "check", "contains",
    "invert", "identity", "is_identity", "is_abelian", "is_finite", "order",
    "elements", "apply", "vertex_key", "label_index", "families_for",
    "contains_offset", "family_contains", "residues", "residues_mod",
    "residues_of", "act", "project", "has_loop", "perm_of", "max_offset",
    "datum", "close_permutations", "content", "gamma_identity",
    "check_gamma", "gamma_compose", "gamma_invert", "gamma_is_identity",
    "value_text", "vertex_text", "gamma_text", "word_text", "family_text",
    "delta_text", "parse_value", "parse_vertex", "parse_gamma", "parse_word",
    "parse_family", "vertices", "all_pass", "max_finite_offset", "all_finite",
})

# Whole-document producers in ``formats`` (the parsers are in PARSE below).
EMIT = frozenset({
    "certificate_lines", "verdict_lines", "lef_lines", "witness_lines",
    "wreath_element_lines", "fp_lines", "quotient_lines", "render_verdict",
    "render_certificate", "render_fp", "render_witness", "render_lef",
})

MARK = "__bench_wrapped__"


def _public_callables(module):
    """(owner, attribute, function) for every public function of
    ``module`` and every public method of the classes it defines."""
    modname = module.__name__
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == modname:
            yield module, attr, value
        elif inspect.isclass(value) and value.__module__ == modname:
            for name, member in sorted(vars(value).items()):
                if not name.startswith("_") and inspect.isfunction(member):
                    yield value, name, member


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, end, child_time, ok)
        self.span_bytes = {}  # span id -> document bytes emitted or parsed
        self.counts = Counter()
        self.light_time = defaultdict(float)  # layer -> outermost light seconds
        self.outside = 0.0  # light time spent outside every span
        self.op = None
        self._stack = []  # [span id, child time]
        self._next_id = 0
        self._in_light = False
        self._patches = []  # (owner, attribute, original)

    # -- installation

    def install(self):
        modules = [importlib.import_module(f"gwreath.{layer}") for layer in LAYERS]
        everywhere = [importlib.import_module("gwreath")] + modules
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for owner, attr, fn in _public_callables(module):
                if fn in wrappers:
                    continue
                wrapper = self._wrap(fn, layer, attr, owner)
                wrappers[fn] = wrapper
                self._patch(owner, attr, wrapper)
        for module in everywhere:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        original = vars(owner)[attr]
        if original is wrapper:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer, attr, owner):
        key = f"{layer}.{attr}"
        if attr in LIGHT:
            wrapper = self._light(fn, layer, key)
        else:
            label = key if inspect.ismodule(owner) else f"{layer}.{owner.__name__}.{attr}"
            wrapper = self._span(fn, key, label)
        setattr(wrapper, MARK, True)
        return wrapper

    def _light(self, fn, layer, key):
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if self._in_light:
                return fn(*args, **kwargs)
            self._in_light = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                self._in_light = False
                self.light_time[layer] += spent
                if self._stack:
                    self._stack[-1][1] += spent
                else:
                    self.outside += spent

        return wrapper

    def _span(self, fn, key, label):
        counts, clock, stack, spans = self.counts, time.perf_counter, self._stack, self.spans
        measure = _PARSED_BYTES.get(key.rsplit(".", 1)[1]) if key.startswith("formats.") else None
        emits = key.rsplit(".", 1)[1] in EMIT
        syllables = key == "words.canonical_form"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if self._in_light:
                return fn(*args, **kwargs)
            if syllables:
                args = (args[0], args[1], tuple(args[2])) + args[3:]
                counts["words.canonical_form.syllables"] += len(args[2])
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, self.op, label, start, end, frame[1], ok))
                if ok and emits:
                    self.span_bytes[span_id] = len("\n".join(result)) + 1
                elif measure is not None:
                    self.span_bytes[span_id] = measure(args)

        return wrapper

    # -- output

    def write(self, path):
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, name, start, end, child, ok in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end, "child_s": child, "ok": ok,
                }) + "\n")


def _record_bytes(record):
    """Size of the document a parsed record came from."""
    return sum(len(key) + len(value) + 2 for key, values in record.items() for value in values)


# Bytes a document parser consumes, read from its arguments.
_PARSED_BYTES = {
    "parse_structured": lambda args: len(args[0].encode("utf-8")),
    "parse_instance_text": lambda args: len(args[0].encode("utf-8")),
    "load_instance": lambda args: os.path.getsize(args[0]),
    "certificate_from_record": lambda args: _record_bytes(args[1]),
    "witness_from_record": lambda args: _record_bytes(args[1]),
    "lef_from_record": lambda args: _record_bytes(args[1]),
    "parse_quotient": lambda args: _record_bytes(args[0]),
}
PARSE = frozenset(_PARSED_BYTES)


def installed_wrappers():
    """Every attribute of the package that is still a tracing wrapper."""
    found = []
    modules = [importlib.import_module("gwreath")] + [
        importlib.import_module(f"gwreath.{layer}") for layer in LAYERS
    ]
    for module in modules:
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if inspect.isclass(value):
                for name, member in vars(value).items():
                    if getattr(member, MARK, False):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return sorted(set(found))


# ---------------------------------------------------------------------------
# aggregation


def _base(label):
    """'wreath.Instance.normalize' -> 'wreath.normalize'."""
    parts = label.split(".")
    return f"{parts[0]}.{parts[-1]}"


def summarize(tracer, wall, passes=1):
    """Per-layer metrics of ``passes`` identical traced passes that took
    ``wall`` seconds in all.  Counts and times are given per pass."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}

    def ancestors(span):
        parent = span[1]
        while parent is not None:
            span = by_id[parent]
            yield _base(span[3])
            parent = span[1]

    self_time = defaultdict(float, tracer.light_time)
    top = 0.0
    inclusive = defaultdict(float)
    outermost = Counter()
    for span in spans:
        span_id, parent, _, label, start, end, child, _ = span
        layer = label.split(".", 1)[0]
        self_time[layer] += (end - start) - child
        if parent is None:
            top += end - start
        name = _base(label)
        if name not in set(ancestors(span)):
            inclusive[name] += end - start
            outermost[name] += 1

    counts = tracer.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    for name in ("groups.compose", "groups.check", "graphs.adjacent",
                 "graphs.has_vertex", "graphs.quotient_graph", "graphs.residues_of",
                 "graphs.enumerate_subgroups", "words.canonical_form",
                 "wreath.separate", "wreath.verify_certificate", "checker.classify",
                 "lef.lef_certificate"):
        out[f"{name}.calls"] = counts[name]
    out["words.canonical_form.syllables"] = counts["words.canonical_form.syllables"]
    for name in ("graphs.quotient_graph", "graphs.enumerate_subgroups",
                 "words.canonical_form", "wreath.separate", "wreath.verify_certificate",
                 "checker.classify", "lef.lef_certificate"):
        out[f"{name}.s"] = inclusive[name]

    quotients_in = Counter()
    certificates = 0
    emit = [0, 0, 0.0]
    parse = [0, 0, 0.0]
    emit_names = {f"formats.{n}" for n in EMIT}
    parse_names = {f"formats.{n}" for n in PARSE}
    for span in spans:
        name = _base(span[3])
        above = set(ancestors(span))
        if name == "graphs.quotient_graph":
            for owner in ("wreath.separate", "lef.lef_certificate"):
                if owner in above:
                    quotients_in[owner] += 1
        elif name == "wreath.separate" and span[7] and "wreath.separate" not in above:
            certificates += 1
        for names, acc in ((emit_names, emit), (parse_names, parse)):
            if name in names and not (above & names):
                acc[0] += 1
                acc[1] += tracer.span_bytes.get(span[0], 0)
                acc[2] += span[5] - span[4]
    separates = outermost["wreath.separate"]
    lefs = outermost["lef.lef_certificate"]
    out["wreath.quotients_per_separate"] = _ratio(quotients_in["wreath.separate"], separates)
    out["wreath.quotient_yield"] = _ratio(certificates, quotients_in["wreath.separate"])
    out["lef.quotients_per_certificate"] = _ratio(quotients_in["lef.lef_certificate"], lefs)
    out["formats.emit.calls"], out["formats.emit.bytes"], out["formats.emit.s"] = emit
    out["formats.parse.calls"], out["formats.parse.bytes"], out["formats.parse.s"] = parse
    out["trace.unattributed_s"] = wall - top - tracer.outside
    ratios = ("wreath.quotients_per_separate", "wreath.quotient_yield", "lef.quotients_per_certificate")
    return {name: value if name in ratios else value / passes for name, value in out.items()}


def _ratio(num, den):
    return num / den if den else 0.0
