"""Instance file parsing and the structured v1 output format.

Instance files are sectioned key/value text (sections ``delta``,
``gamma``, ``graph``, ``elements``).  Structured output is a versioned,
line-delimited document: the first line names the document kind, every
following line is ``key value`` with a stable key order, so identical
inputs always produce byte-identical output.  Both are read by one
rule: each reader takes the lines it parses, and a line no reader took
(an unknown section, field or key, or one of another group kind, graph
mode or document kind) is a ParseError.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import GraphError, ParseError
from .graphs import (
    ArithmeticOffsets,
    DifferenceFamily,
    FactorialOffsets,
    FiniteModeGraph,
    FiniteOffsets,
    QuotientGraph,
    TranslationGraph,
)
from .groups import (
    Cyclic,
    Element,
    FiniteTable,
    FreeAbelian,
    GroupSpec,
    Symmetric,
)
from .wreath import (
    CheckRecord,
    Instance,
    NonRFWitness,
    Obstruction,
    RFCertificate,
    WreathElement,
)
from .words import EMPTY_WORD, Syllable, Word, _record

if TYPE_CHECKING:  # lef loads only where a LEF document is parsed
    from .lef import LEFCertificate

FORMAT_VERSION = "v1"


# ---------------------------------------------------------------------------
# scalar pieces


def value_text(value) -> str:
    if isinstance(value, int):
        return str(value)
    if value == ():
        return "-"
    return ",".join(map(str, value))


def parse_value(spec: GroupSpec, text: str, line: int | None = None):
    """An element of ``spec``: an int, or ``-`` or comma-separated ints
    for the specs whose elements are tuples."""
    try:
        if isinstance(spec.identity(), int):
            value = int(text)
        elif text == "-":
            value = ()
        else:
            value = tuple(map(int, text.split(",")))
    except ValueError:
        raise ParseError(f"cannot parse group element {text!r}", line=line) from None
    if not spec.contains(value):
        raise ParseError(f"{text!r} is not an element of {spec!r}", line=line)
    return value


def vertex_text(v) -> str:
    if isinstance(v, tuple):
        return f"{v[0]}:{v[1]}"
    return str(v)


def _vertex_token(text: str, line: int | None = None):
    """A vertex or orbit id read without a graph: ``label:position`` or
    a plain integer."""
    label, colon, pos = text.rpartition(":")
    try:
        return (label, int(pos)) if colon else int(pos)
    except ValueError:
        raise ParseError(f"bad vertex {text!r}", line=line) from None


def parse_vertex(graph, text: str, line: int | None = None):
    v = _vertex_token(text, line)
    if not graph.has_vertex(v):
        raise ParseError(f"vertex {text!r} does not belong to the graph", line=line)
    return v


def parse_gamma(instance: Instance, text: str, line: int | None = None):
    return parse_value(instance.graph.acting, text, line)


def word_text(w: Word) -> str:
    if w.is_empty:
        return "-"
    return " ".join(f"{vertex_text(s.vertex)}={value_text(s.value)}" for s in w)


def parse_word(graph, delta: GroupSpec, text: str, line: int | None = None) -> Word:
    """The word ``text`` spells; each distinct value text is parsed and
    checked once, where it first occurs, so the first bad token raises."""
    text = text.strip()
    if text == "-" or not text:
        return EMPTY_WORD
    values: dict[str, Element] = {}  # value text -> the nontrivial element it reads as
    syllables = []
    for token in text.split():
        head, eq, tail = token.rpartition("=")
        if not eq:
            raise ParseError(f"bad syllable {token!r} (expected vertex=value)", line=line)
        vertex = parse_vertex(graph, head, line=line)
        value = values.get(tail)
        if value is None:
            value = parse_value(delta, tail, line=line)
            if delta.is_identity(value):
                raise ParseError(f"identity syllable {token!r}", line=line)
            values[tail] = value
        syllables.append(Syllable(vertex, value))
    return _record(Word(tuple(syllables)), graph, delta)  # each vertex and value tested above


def family_text(family: DifferenceFamily) -> str:
    if isinstance(family, FiniteOffsets):
        return "finite " + " ".join(str(d) for d in sorted(family.offsets) if d > 0)
    if isinstance(family, FactorialOffsets):
        return f"factorial {family.shift}"
    return f"arithmetic {family.start} {family.step}"


def parse_family(tokens: list[str], line: int | None = None) -> DifferenceFamily:
    if not tokens:
        raise ParseError("missing family kind", line=line)
    kind, args = tokens[0], tokens[1:]
    try:
        if kind == "finite":
            return FiniteOffsets(frozenset(int(a) for a in args))
        if kind == "factorial":
            (shift,) = args
            return FactorialOffsets(int(shift))
        if kind == "arithmetic":
            start, step = args
            return ArithmeticOffsets(int(start), int(step))
    except (ValueError, TypeError):
        raise ParseError(f"bad family arguments {args!r}", line=line) from None
    raise ParseError(f"unknown family kind {kind!r}", line=line)


# ---------------------------------------------------------------------------
# instance files


_SECTION_FIELDS = {
    "delta": {"kind", "order", "degree", "rank", "size", "identity", "row"},
    "gamma": {"kind"},
    "graph": {"mode", "orbits", "family", "vertices", "edge", "generator"},
    "elements": None,  # any name is a valid element name
}


def _split_sections(text: str):
    """Each section's fields: every key's (value, line) pairs in order."""
    sections: dict[str, dict[str, list[tuple[str, int]]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SECTION_FIELDS:
                raise ParseError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ParseError("content before the first section header", line=lineno)
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ParseError("expected 'key = value'", line=lineno)
        key, value = key.strip(), value.strip()
        allowed = _SECTION_FIELDS[current]
        if allowed is not None and key not in allowed:
            raise ParseError(f"unknown field in [{current}]", line=lineno, field=key)
        sections[current].setdefault(key, []).append((value, lineno))
    return sections


def _single(entries, key, *, section):
    """The (value, line) of ``key``, taken out of ``entries``."""
    hits = entries.pop(key, None)
    if not hits:
        raise ParseError(f"missing field {key!r} in [{section}]")
    if len(hits) > 1:
        raise ParseError(f"field {key!r} repeated in [{section}]", line=hits[1][1])
    return hits[0]


def _no_field_left(entries, section: str, owner: str) -> None:
    """A ParseError at the first field of ``section`` its reader did not
    take: one that belongs to another ``owner``."""
    for key, hits in entries.items():
        raise ParseError(f"field of another {owner} in [{section}]", line=hits[0][1], field=key)


def _parse_delta(entries) -> GroupSpec:
    kind, line = _single(entries, "kind", section="delta")
    try:
        if kind == "cyclic":
            order, line = _single(entries, "order", section="delta")
            return Cyclic(int(order))
        if kind == "symmetric":
            degree, line = _single(entries, "degree", section="delta")
            return Symmetric(int(degree))
        if kind == "free-abelian":
            rank, line = _single(entries, "rank", section="delta")
            return FreeAbelian(int(rank))
        if kind == "table":
            size, size_line = _single(entries, "size", section="delta")
            identity, _ = _single(entries, "identity", section="delta")
            table = []
            for value, line in entries.pop("row", []):  # a bad row names its own line
                table.append(tuple(int(x) for x in value.split()))
            line = size_line  # a bad size or identity, or a table that is no group
            return FiniteTable(int(size), tuple(table), int(identity))
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"bad coefficient group: {exc}", line=line) from None
    raise ParseError(f"unknown coefficient group kind {kind!r}", line=line)


def _parse_graph(entries):
    mode, line = _single(entries, "mode", section="graph")
    if mode == "translation":
        orbits, line = _single(entries, "orbits", section="graph")
        labels = tuple(orbits.split())
        if len(set(labels)) != len(labels):
            raise ParseError("orbit labels must be distinct", line=line)
        families: dict[tuple[str, str], list[DifferenceFamily]] = {}
        for value, lineno in entries.pop("family", []):
            tokens = value.split()
            if len(tokens) < 3:
                raise ParseError(
                    "family needs 'LABEL LABEL KIND ...'", line=lineno, field="family"
                )
            c1, c2 = tokens[0], tokens[1]
            if c1 not in labels or c2 not in labels:
                raise ParseError(f"unknown orbit label in family", line=lineno, field="family")
            i, j = labels.index(c1), labels.index(c2)
            pair = (c1, c2) if i <= j else (c2, c1)
            families.setdefault(pair, []).append(parse_family(tokens[2:], line=lineno))
        return TranslationGraph(labels, {p: tuple(f) for p, f in families.items()})
    if mode == "finite":
        verts_text, line = _single(entries, "vertices", section="graph")
        try:
            vertices = tuple(int(x) for x in verts_text.split())
        except ValueError:
            raise ParseError("vertices must be integers", line=line) from None
        edges = set()
        generators = []
        lines = {}  # a GraphError's culprit -> the first line giving it
        for value, lineno in entries.pop("edge", []):
            try:
                u, w = (int(x) for x in value.split())
            except ValueError:
                raise ParseError("edge needs two vertex ids", line=lineno) from None
            edges.add((u, w))
            lines.setdefault(("edge", (u, w)), lineno)
        for value, lineno in entries.pop("generator", []):
            try:
                g = tuple(int(x) for x in value.split())
            except ValueError:
                raise ParseError("generator must list vertex images", line=lineno) from None
            generators.append(g)
            lines.setdefault(("generator", g), lineno)
        try:
            return FiniteModeGraph(vertices, frozenset(edges), tuple(generators))
        except GraphError as exc:  # repeated vertex ids have no culprit
            raise ParseError(str(exc), line=lines.get(exc.culprit, line)) from None
    raise ParseError(f"unknown graph mode {mode!r}", line=line)


def parse_instance_text(text: str) -> tuple[Instance, dict[str, WreathElement]]:
    sections = _split_sections(text)
    for required in ("delta", "gamma", "graph"):
        if required not in sections:
            raise ParseError(f"missing section [{required}]")
    delta = _parse_delta(sections["delta"])
    _no_field_left(sections["delta"], "delta", "group kind")
    graph = _parse_graph(sections["graph"])
    _no_field_left(sections["graph"], "graph", "graph mode")
    gamma_kind, line = _single(sections["gamma"], "kind", section="gamma")
    expected = "z" if isinstance(graph, TranslationGraph) else f"z^{graph.rank}"
    if gamma_kind != expected:
        raise ParseError(f"this graph requires gamma kind {expected!r}", line=line)
    instance = Instance(delta, graph)
    elements: dict[str, WreathElement] = {}
    for name, hits in sections.get("elements", {}).items():
        if len(hits) > 1:
            raise ParseError(f"duplicate element name {name!r}", line=hits[1][1])
        (value, lineno), = hits
        body, at, gamma_part = value.rpartition("@")
        if not at:
            raise ParseError("element needs 'SYLLABLES @ GAMMA'", line=lineno, field=name)
        w = parse_word(graph, delta, body.strip(), line=lineno)
        gamma = parse_gamma(instance, gamma_part.strip(), line=lineno)
        elements[name] = WreathElement(w, gamma)
    return instance, elements


def load_instance(path) -> tuple[Instance, dict[str, WreathElement]]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance_text(handle.read())


# ---------------------------------------------------------------------------
# structured v1 documents


def _header(kind: str) -> str:
    return f"gwreath {FORMAT_VERSION} {kind}"


class _Record(dict):
    """Each key's values in order, and in ``kind`` the document kind the
    header names, which the ``*_from_record`` readers check."""

    __slots__ = ("kind",)


def _expect_kind(record, kind: str) -> None:
    got = getattr(record, "kind", kind)  # a plain dict names no kind
    if got != kind:
        raise ParseError(f"expected a {kind} document, the header names {got!r}")


def parse_structured(text: str) -> tuple[str, dict[str, list[str]]]:
    """The document kind and each key's values in order.  Blank lines
    are skipped, a second header is an error, and errors name the line
    of the text they are on.  The record carries the kind as well."""
    lines = text.splitlines()
    at = 0  # the header is the first line that is not blank
    while at < len(lines) and not lines[at].strip():
        at += 1
    if at == len(lines):
        raise ParseError("empty document")
    head = lines[at].split()
    if len(head) != 3 or head[0] != "gwreath":
        raise ParseError(f"bad header {lines[at]!r}", line=at + 1)
    if head[1] != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {head[1]!r}", line=at + 1)
    record: dict[str, list[str]] = {}
    for lineno, line in enumerate(lines[at + 1:], start=at + 2):
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        if key in record:
            record[key].append(value.strip())
        elif key and key != "gwreath":
            record[key] = [value.strip()]
        else:
            raise ParseError("a second header" if key else "expected 'key value'", line=lineno)
    document = _Record(record)  # filled as a plain dict, whose item access is faster
    document.kind = head[2]
    return head[2], document


def _one(record, key) -> str:
    """The single value of ``key``, taken out of ``record``."""
    values = record.pop(key, None)
    if not values:
        raise ParseError(f"missing key {key!r}")
    if len(values) > 1:
        raise ParseError(f"key {key!r} repeated")
    return values[0]


def _no_key_left(record) -> None:
    """A ParseError naming the first key its reader did not take out of
    ``record``: no line is silently dropped."""
    for key in record:
        raise ParseError(f"unexpected key {key!r}")


def _int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{key} takes an integer, got {text!r}", field=key) from None


def _ints(tokens: list[str], key: str) -> list[int]:
    """``_int`` of every token, converted at once."""
    try:
        return list(map(int, tokens))
    except ValueError:  # the first bad token, named as ``_int`` names it
        return [_int(x, key) for x in tokens]


def _split(text: str, key: str, count: int) -> list[str]:
    tokens = text.split()
    if len(tokens) != count:
        raise ParseError(f"{key} takes {count} fields, got {text!r}", field=key)
    return tokens


def _check_text(flag: bool | None) -> str:
    if flag is None:
        return "skipped-abelian"
    return "pass" if flag else "fail"


def _parse_check(text: str) -> bool | None:
    if text == "skipped-abelian":
        return None
    if text in ("pass", "fail"):
        return text == "pass"
    raise ParseError(f"bad check value {text!r}")


def quotient_lines(q: QuotientGraph, prefix: str = "quotient") -> list[str]:
    """The quotient's lines: finite-mode orbits by representative, then
    vertices, edges, loops and lifts in ``vertex_key`` order.

    Every orbit id is ranked once by its key; vertices and loops sort as
    ranks and each edge (u, w) as the int rank(u) * n + rank(w), n the
    number of orbits, which orders edges as their key pairs do.
    """
    out = [f"{prefix}.kind {q.kind}"]
    if q.kind == "translation":
        out.append(f"{prefix}.modulus {q.modulus}")
        out.append(f"{prefix}.labels " + (" ".join(q.labels) if q.labels else "-"))
    else:
        groups: dict[int, list[int]] = {}
        for v, rep in sorted(q.orbit_map.items()):
            groups.setdefault(rep, []).append(v)
        for rep in sorted(groups):
            out.append(f"{prefix}.orbit {rep} " + " ".join(map(str, groups[rep])))
    orbits = sorted(set(q.vertices).union(*q.edges, q.loops), key=q.vertex_key)
    n = len(orbits)
    rank = dict(zip(orbits, range(n)))
    text = list(map(vertex_text, orbits))
    vertices = [text[i] for i in sorted(map(rank.__getitem__, q.vertices))]
    out += [f"{prefix}.vertex {t}" for t in vertices]
    for code in sorted([rank[u] * n + rank[w] for u, w in q.edges]):
        u, w = divmod(code, n)
        out.append(f"{prefix}.edge {text[u]}|{text[w]}")
    out += [f"{prefix}.loop {text[i]}" for i in sorted(map(rank.__getitem__, q.loops))]
    out += [f"{prefix}.lift {t} {t}" for t in vertices]  # each orbit id is its own lift
    return out


class _Tokens(dict):
    """Listed vertex tokens to their vertices; any other token is read on its own."""

    def __missing__(self, token):
        return _vertex_token(token)


def parse_quotient(record, prefix: str = "quotient") -> QuotientGraph:
    """The quotient of ``quotient_lines``.  Each listed vertex token is
    read once, and edges and loops look their tokens up; a token no
    vertex line lists is read on its own.  A vertex, edge, loop or orbit
    member given twice is a ParseError.  The keys read are taken out of
    ``record``, for the document's reader to reject any left."""
    kind = _one(record, f"{prefix}.kind")
    listed = record.pop(f"{prefix}.vertex", [])
    if record.pop(f"{prefix}.lift", []) != [f"{t} {t}" for t in listed]:
        raise ParseError(f"{prefix}.lift lines must map each {prefix}.vertex to itself, in order")
    ids = _Tokens(zip(listed, map(_vertex_token, listed)))
    vertices = list(ids.values())
    if len(set(vertices)) != len(listed):
        raise ParseError(f"repeated {prefix}.vertex entry")
    entries = record.pop(f"{prefix}.edge", [])
    edges = set()
    for entry in entries:
        left, _, right = entry.partition("|")
        edges.add((ids[left], ids[right]))
    if len(edges) != len(entries):
        raise ParseError(f"repeated {prefix}.edge entry")
    entries = record.pop(f"{prefix}.loop", [])
    loops = set(map(ids.__getitem__, entries))
    if len(loops) != len(entries):
        raise ParseError(f"repeated {prefix}.loop entry")
    if kind == "translation":
        modulus = _int(_one(record, f"{prefix}.modulus"), f"{prefix}.modulus")
        if modulus < 1:
            raise ParseError(f"{prefix}.modulus must be at least 1, got {modulus}")
        labels_text = _one(record, f"{prefix}.labels")
        labels = tuple(labels_text.split()) if labels_text != "-" else ()
        return QuotientGraph("translation", vertices, edges, loops, modulus=modulus, labels=labels)
    if kind == "finite":
        orbit_map = {}
        for entry in record.pop(f"{prefix}.orbit", []):
            ids = _ints(entry.split(), f"{prefix}.orbit")
            if not ids:
                raise ParseError(f"empty {prefix}.orbit line")
            for member in ids[1:]:
                if member in orbit_map:
                    raise ParseError(f"repeated {prefix}.orbit entry: vertex {member}")
                orbit_map[member] = ids[0]
        return QuotientGraph("finite", vertices, edges, loops, orbit_map=orbit_map)
    raise ParseError(f"unknown quotient kind {kind!r}")


def quotient_from_record(record) -> QuotientGraph:
    """The quotient of a ``quotient-graph`` document (``gwreath quotient``)."""
    _expect_kind(record, "quotient-graph")
    record = dict(record)  # each key read is taken out of this copy
    quotient = parse_quotient(record)
    _no_key_left(record)
    return quotient


def certificate_lines(instance: Instance, cert: RFCertificate) -> list[str]:
    out = [_header("separation-certificate")]
    out.append(f"element.word {word_text(cert.element.word)}")
    out.append(f"element.gamma {value_text(cert.element.gamma)}")
    out.append(f"subgroup.kind {cert.kind}")
    if cert.kind == "modulus":
        out.append(f"subgroup.modulus {cert.modulus}")
    else:
        for perm in cert.subgroup_perms:
            out.append("subgroup.perm " + ",".join(map(str, perm)))
    restricted = " ".join(map(vertex_text, cert.restricted))
    out.append("restricted " + (restricted if restricted else "-"))
    out.extend(quotient_lines(cert.quotient))
    if cert.kind == "modulus":
        out.append(f"image.gamma {cert.gamma_image}")
    else:
        if cert.gamma_image is None:
            out.append("image.gamma-coset trivial")
        else:
            out.append("image.gamma-coset " + ",".join(map(str, cert.gamma_image)))
    out.append(f"image.word {word_text(cert.word_image)}")
    out.append(f"check.gamma-injective {_check_text(cert.checks.gamma_injective)}")
    out.append(
        f"check.induced-isomorphism {_check_text(cert.checks.induced_isomorphism)}"
    )
    out.append(f"check.loops-clear {_check_text(cert.checks.loops_clear)}")
    out.append(f"check.image-nontrivial {_check_text(cert.checks.image_nontrivial)}")
    return out


def certificate_from_record(instance: Instance, record) -> RFCertificate:
    _expect_kind(record, "separation-certificate")
    record = dict(record)  # each key read is taken out of this copy
    graph, delta = instance.graph, instance.delta
    w = parse_word(graph, delta, _one(record, "element.word"))
    gamma = parse_gamma(instance, _one(record, "element.gamma"))
    element = WreathElement(w, gamma)
    kind = _one(record, "subgroup.kind")
    quotient = parse_quotient(record)
    if kind == "modulus":
        modulus = _int(_one(record, "subgroup.modulus"), "subgroup.modulus")
        subgroup_perms = None
        gamma_image = _int(_one(record, "image.gamma"), "image.gamma")
    elif kind == "image-subgroup":
        modulus = None
        subgroup_perms = tuple(
            sorted(
                tuple(_ints(entry.split(","), "subgroup.perm"))
                for entry in record.pop("subgroup.perm", [])
            )
        )
        coset = _one(record, "image.gamma-coset")
        gamma_image = None if coset == "trivial" else tuple(
            _ints(coset.split(","), "image.gamma-coset")
        )
    else:
        raise ParseError(f"unknown subgroup kind {kind!r}")
    restricted_text = _one(record, "restricted")
    if restricted_text == "-":
        restricted: tuple = ()
    elif isinstance(graph, TranslationGraph):
        restricted = tuple(restricted_text.split())
    else:
        restricted = tuple(_ints(restricted_text.split(), "restricted"))
    word_image = parse_word(quotient, delta, _one(record, "image.word"))
    checks = CheckRecord(
        gamma_injective=_parse_check(_one(record, "check.gamma-injective")),
        induced_isomorphism=_parse_check(_one(record, "check.induced-isomorphism")),
        loops_clear=_parse_check(_one(record, "check.loops-clear")),
        image_nontrivial=_parse_check(_one(record, "check.image-nontrivial")),
    )
    _no_key_left(record)
    return RFCertificate(
        element=element,
        kind=kind,
        modulus=modulus,
        subgroup_perms=subgroup_perms,
        restricted=restricted,
        quotient=quotient,
        gamma_image=gamma_image,
        word_image=word_image,
        checks=checks,
    )


def witness_lines(instance: Instance, wit: NonRFWitness) -> list[str]:
    out = [_header("witness")]
    out.append(f"kind {wit.theorem}")
    for v in wit.vertices:
        out.append(f"vertex {vertex_text(v)}")
    for el in wit.delta_elements:
        out.append(f"delta-element {value_text(el)}")
    out.append(f"element.word {word_text(wit.element.word)}")
    out.append(f"element.gamma {value_text(wit.element.gamma)}")
    obs = wit.obstruction
    out.append(f"obstruction.lemma {obs.lemma}")
    out.append(f"obstruction.pair {obs.pair[0]} {obs.pair[1]}")
    out.append(f"obstruction.family {family_text(obs.family)}")
    out.append(
        "obstruction.offset " + ("-" if obs.offset is None else str(obs.offset))
    )
    out.append(f"obstruction.statement {obs.statement}")
    return out


def witness_from_record(instance: Instance, record) -> NonRFWitness:
    _expect_kind(record, "witness")
    record = dict(record)  # each key read is taken out of this copy
    graph, delta = instance.graph, instance.delta
    kind = _one(record, "kind")
    vertices = tuple(parse_vertex(graph, t) for t in record.pop("vertex", []))
    elements = tuple(parse_value(delta, t) for t in record.pop("delta-element", []))
    w = parse_word(graph, delta, _one(record, "element.word"))
    gamma = parse_gamma(instance, _one(record, "element.gamma"))
    c1, c2 = _split(_one(record, "obstruction.pair"), "obstruction.pair", 2)
    family = parse_family(_one(record, "obstruction.family").split())
    offset_text = _one(record, "obstruction.offset")
    obstruction = Obstruction(
        lemma=_one(record, "obstruction.lemma"),
        pair=(c1, c2),
        family=family,
        offset=None if offset_text == "-" else _int(offset_text, "obstruction.offset"),
        statement=_one(record, "obstruction.statement"),
    )
    _no_key_left(record)
    return NonRFWitness(
        theorem=kind,
        vertices=vertices,
        delta_elements=elements,
        element=WreathElement(w, gamma),
        obstruction=obstruction,
    )


def lef_lines(graph: TranslationGraph, cert: LEFCertificate) -> list[str]:
    out = [_header("lef-certificate")]
    out.append(f"q cyclic {cert.q_spec.n}")  # lef builds cyclic models only
    out.append(f"modulus {cert.truncation.modulus}")
    kept = cert.truncation.kept_offsets
    for c1, c2 in sorted(kept, key=lambda p: (graph.label_index(p[0]), graph.label_index(p[1]))):
        out.append(f"truncation.offsets {c1} {c2} " + " ".join(map(str, sorted(kept[c1, c2]))))
    out.extend(quotient_lines(cert.y, prefix="y"))
    for g in sorted(cert.phi):
        out.append(f"phi {g} {cert.phi[g]}")
    for v in sorted(cert.psi, key=graph.vertex_key):
        out.append(f"psi {vertex_text(v)} {vertex_text(cert.psi[v])}")
    return out


def lef_from_record(graph: TranslationGraph, record) -> LEFCertificate:
    from .lef import LEFCertificate, Truncation

    _expect_kind(record, "lef-certificate")
    record = dict(record)  # each key read is taken out of this copy
    group, order = _split(_one(record, "q"), "q", 2)
    if group != "cyclic":
        raise ParseError(f"unsupported finite model group {group!r}")
    n = _int(order, "q")
    if n < 1:
        raise ParseError(f"q needs a positive order, got {n}")
    q_spec = Cyclic(n)
    y = parse_quotient(record, prefix="y")
    phi = {}
    for entry in record.pop("phi", []):
        a, image = _split(entry, "phi", 2)
        a = _int(a, "phi")
        if a in phi:
            raise ParseError(f"repeated phi entry: {a}")
        phi[a] = _int(image, "phi")
    psi = {}
    for entry in record.pop("psi", []):
        source, image = _split(entry, "psi", 2)
        v = parse_vertex(graph, source)
        if v in psi:
            raise ParseError(f"repeated psi entry: {source}")
        psi[v] = _vertex_token(image)
    modulus = _int(_one(record, "modulus"), "modulus")
    kept = {}
    for entry in record.pop("truncation.offsets", []):
        tokens = entry.split()
        if len(tokens) < 2:
            raise ParseError(f"truncation.offsets needs a label pair, got {entry!r}")
        c1, c2, *offsets = tokens
        if c1 not in graph.labels or c2 not in graph.labels:
            raise ParseError(f"bad truncation: unknown label in {entry!r}")
        if (c1, c2) in kept or (c2, c1) in kept:
            raise ParseError(f"bad truncation: label pair {c1} {c2} given twice")
        kept[c1, c2] = frozenset(_ints(offsets, "truncation.offsets"))
        if 0 in kept[c1, c2]:
            raise ParseError("bad truncation: offset 0 would create a loop")
    _no_key_left(record)
    truncation = Truncation(kept_offsets=kept, modulus=modulus)
    return LEFCertificate(q_spec=q_spec, y=y, phi=phi, psi=psi, truncation=truncation)


def wreath_element_lines(instance: Instance, x: WreathElement) -> list[str]:
    return [
        _header("wreath-element"),
        f"word {word_text(x.word)}",
        f"gamma {value_text(x.gamma)}",
    ]


def fp_lines(report) -> list[str]:
    out = [_header("fp-report")]
    out.append(f"finitely-presented {'true' if report.finitely_presented else 'false'}")
    out.append(f"vertex-orbits {report.vertex_orbits}")
    out.append(
        "edge-orbits "
        + ("infinite" if report.edge_orbits is None else str(report.edge_orbits))
    )
    for cond in report.conditions:
        out.append(f"condition {cond.name} {'pass' if cond.ok else 'fail'} {cond.reason}")
    return out


def verdict_lines(instance: Instance, verdict) -> list[str]:
    out = [_header("verdict")]
    out.append(f"status {verdict.status}")
    out.append(f"condition-1 {verdict.cond1_note}")
    if verdict.note:
        out.append(f"note {verdict.note}")
    if verdict.cond2 is not None:
        c2 = verdict.cond2
        out.append(f"condition-2.holds {_flag(c2.holds)}")
        out.append(f"condition-2.abelian {'true' if c2.abelian else 'false'}")
        if c2.abelian_rule:
            out.append(f"condition-2.abelian-rule {c2.abelian_rule}")
        for e in c2.per_orbit:
            if e.modulus is not None:
                suffix = f"modulus {e.modulus}"
            elif e.subgroup_index is not None:
                suffix = f"subgroup-index {e.subgroup_index}"
            else:
                suffix = f"lemma {e.obstruction.lemma}"
            out.append(f"condition-2.orbit {e.orbit} {e.status} {suffix}")
    if verdict.cond3 is not None:
        c3 = verdict.cond3
        out.append(f"condition-3.holds {_flag(c3.holds)}")
        if c3.t_max is not None:
            out.append(f"condition-3.offset-window {c3.t_max}")
        for e in c3.per_pair:
            a, b = e.pair
            line = f"condition-3.pair {a} {b} {e.status}"
            if e.rule:
                line += f" rule {e.rule}"
            if e.obstruction is not None:
                line += f" offset {e.obstruction.offset} lemma {e.obstruction.lemma}"
            out.append(line)
    if verdict.witness is not None:
        for line in witness_lines(instance, verdict.witness)[1:]:
            out.append(f"witness.{line}")
    if verdict.bound is not None:
        out.append(f"bound {verdict.bound}")
    if verdict.failing_condition:
        out.append(f"failing-condition {verdict.failing_condition}")
    return out


def _flag(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# human-readable rendering


def render_verdict(instance: Instance, verdict) -> list[str]:
    if verdict.status == "residually-finite":
        out = ["RESIDUALLY FINITE"]
    else:
        out = [f"NOT RESIDUALLY FINITE (witness {verdict.witness.theorem})"]
    out.append(f"  condition 1: {verdict.cond1_note}")
    if verdict.note:
        out.append(f"  note: {verdict.note}")
    if verdict.cond2 is not None:
        c2 = verdict.cond2
        out.append(f"  condition 2: {_flag(c2.holds)}")
        if c2.abelian:
            out.append(f"    abelian coefficients: {c2.abelian_rule}")
        for e in c2.per_orbit:
            if e.modulus is not None:
                out.append(f"    orbit {e.orbit}: clears its neighbourhood at modulus {e.modulus}")
            elif e.subgroup_index is not None:
                out.append(
                    f"    orbit {e.orbit}: clears its neighbourhood at subgroup index {e.subgroup_index}"
                )
            else:
                out.append(f"    orbit {e.orbit}: fails for every modulus ({e.obstruction.statement})")
    if verdict.cond3 is not None:
        c3 = verdict.cond3
        out.append(f"  condition 3: {_flag(c3.holds)}")
        for e in c3.per_pair:
            pair = ", ".join(str(p) for p in e.pair)
            if e.status == "fails":
                obs = e.obstruction
                out.append(f"    pair ({pair}): fails at offset {obs.offset} ({obs.statement})")
            elif e.rule:
                out.append(f"    pair ({pair}): {e.status} ({e.rule})")
            else:
                out.append(f"    pair ({pair}): {e.status}")
    if verdict.witness is not None:
        wit = verdict.witness
        verts = ", ".join(vertex_text(v) for v in wit.vertices)
        out.append(
            f"  witness {wit.theorem}: element {word_text(wit.element.word)} at {verts}"
        )
        out.append(f"  obstruction: {wit.obstruction.statement}")
    return out


def render_certificate(instance: Instance, cert: RFCertificate) -> list[str]:
    if cert.kind == "modulus":
        head = f"SEPARATED with modulus {cert.modulus}"
    else:
        head = f"SEPARATED with an image subgroup of order {len(cert.subgroup_perms)}"
    out = [head]
    out.append(f"  element: {word_text(cert.element.word)} @ {value_text(cert.element.gamma)}")
    out.append(f"  image word: {word_text(cert.word_image)}")
    if cert.kind == "modulus":
        out.append(f"  image gamma: {cert.gamma_image}")
    else:
        coset = "trivial" if cert.gamma_image is None else ",".join(map(str, cert.gamma_image))
        out.append(f"  image gamma coset: {coset}")
    out.append(
        "  checks: gamma-injective="
        + _check_text(cert.checks.gamma_injective)
        + ", induced-isomorphism="
        + _check_text(cert.checks.induced_isomorphism)
        + ", loops-clear="
        + _check_text(cert.checks.loops_clear)
        + ", image-nontrivial="
        + _check_text(cert.checks.image_nontrivial)
    )
    return out


def render_fp(report) -> list[str]:
    head = "FINITELY PRESENTED" if report.finitely_presented else "NOT FINITELY PRESENTED"
    out = [head]
    for cond in report.conditions:
        mark = "ok" if cond.ok else "FAIL"
        out.append(f"  {cond.name}: {mark} ({cond.reason})")
    return out


def render_witness(instance: Instance, wit: NonRFWitness) -> list[str]:
    verts = ", ".join(vertex_text(v) for v in wit.vertices)
    return [
        f"WITNESS {wit.theorem}",
        f"  vertices: {verts}",
        f"  element: {word_text(wit.element.word)} @ {value_text(wit.element.gamma)}",
        f"  obstruction [{wit.obstruction.lemma}]: {wit.obstruction.statement}",
    ]


def render_lef(graph: TranslationGraph, cert: LEFCertificate) -> list[str]:
    out = [f"LEF MODEL with group of order {cert.q_spec.order()}"]
    kept = sorted((pair, sorted(offs)) for pair, offs in cert.truncation.kept_offsets.items())
    out.append(f"  retained offsets: {kept if kept else 'none'}")
    out.append(f"  graph vertices: {len(cert.y.vertices)}")
    out.append(
        "  phi: " + (", ".join(f"{a}->{cert.phi[a]}" for a in sorted(cert.phi)) or "-")
    )
    out.append(
        "  psi: "
        + (
            ", ".join(
                f"{vertex_text(v)}->{vertex_text(cert.psi[v])}"
                for v in sorted(cert.psi, key=graph.vertex_key)
            )
            or "-"
        )
    )
    return out
