"""Seeded inputs for the three benchmark workloads.

Each builder returns the operations of one pass.  A pass is identical
every time it runs, so every output can be compared with the first
pass.  Every operation calls the package through module attributes
(``G.wreath.separate``) at call time, so tracing wrappers installed
later see the call.

``words``  word arithmetic over a 32 -> 512 syllable sweep.
``search`` separation certificates, verdicts, witnesses and finite
           partial models over size sweeps, each re-verified and sent
           through an emit -> parse -> emit round trip.
``cli``    one ``python -m gwreath.cli`` child per operation.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

WORD_TIERS = {32: 48, 64: 48, 128: 24, 256: 12, 512: 6}  # syllables: ops per pass
WORD_KINDS = ("normalize", "compose", "invert", "x*x^-1")
EXHAUST_BOUNDS = (64, 128, 256)
CYCLES = (6, 12, 18, 24)
TORI = (3, 4, 5, 6)
T_MAX = (30, 100, 300)
COLLIDE = (8, 16, 32)


@dataclass
class Op:
    """One operation of a pass.

    ``run`` is the timed call; a cli operation has ``argv`` instead,
    which the harness runs as a child process.  ``check`` returns the
    first problem in an output, or None.  ``document`` renders an output
    as text; equal outputs render equally, and its sha256 is compared
    with the golden digest stored for ``key`` (a sha256 of the inputs).
    """

    name: str
    run: Callable[[], Any] | None
    check: Callable[[Any], str | None]
    document: Callable[[Any], str]
    key: str
    tier: tuple | None = None  # (sweep, size) for the scaling report
    golden: bool = True  # False: the output is a behaviour the ROADMAP plans to change
    argv: list[str] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    files: dict[str, str] = field(default_factory=dict)  # cli: generated instance files


def input_key(*parts) -> str:
    return hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).hexdigest()


def build(name, G, seed, work_dir):
    if name == "words":
        return words_workload(G, seed)
    if name == "search":
        return search_workload(G, seed)
    if name == "cli":
        return cli_workload(G, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# graphs


def line_graph(G):
    return G.graphs.TranslationGraph(("c",), {("c", "c"): (G.graphs.FiniteOffsets(frozenset({1})),)})


def ladder_graph(G):
    """Two labels, edges a~a at 1, a~b at 1 and 2, b~b at 3."""
    F = G.graphs.FiniteOffsets
    return G.graphs.TranslationGraph(("a", "b"), {
        ("a", "a"): (F(frozenset({1})),),
        ("a", "b"): (F(frozenset({1, 2})),),
        ("b", "b"): (F(frozenset({3})),),
    })


def family_graph(G, family):
    return G.graphs.TranslationGraph(("c",), {("c", "c"): (family,)})


def cycle_graph(G, n):
    edges = frozenset((i, (i + 1) % n) for i in range(n))
    return G.graphs.FiniteModeGraph(tuple(range(n)), edges, (tuple((i + 1) % n for i in range(n)),))


def torus_graph(G, n):
    """The n x n grid torus with Z^2 acting by the two rotations."""
    def at(i, j):
        return (i % n) * n + (j % n)

    edges = set()
    for i in range(n):
        for j in range(n):
            for u, w in ((at(i, j), at(i + 1, j)), (at(i, j), at(i, j + 1))):
                edges.add((min(u, w), max(u, w)))
    rows = tuple(at(i + 1, j) for i in range(n) for j in range(n))
    cols = tuple(at(i, j + 1) for i in range(n) for j in range(n))
    return G.graphs.FiniteModeGraph(tuple(range(n * n)), frozenset(edges), (rows, cols))


def nontrivial(delta):
    return [e for e in delta.elements() if not delta.is_identity(e)]


def random_word(G, rng, delta, vertices, length):
    values = nontrivial(delta)
    return G.words.word(delta, [(rng.choice(vertices), rng.choice(values)) for _ in range(length)])


def nonempty_word(G, rng, inst, vertices, longest):
    """A random word of 1..longest syllables that does not cancel to the
    empty word."""
    while True:
        w = random_word(G, rng, inst.delta, vertices, rng.randint(1, longest))
        if not G.words.canonical_form(inst.graph, inst.delta, w).is_empty:
            return w


def kernel_free_gamma(rng, orders):
    """A random acting vector that is zero or acts nontrivially, so no
    input lies in the action kernel (whose separation the ROADMAP plans
    to change)."""
    while True:
        gamma = tuple(rng.randrange(-3, 4) for _ in orders)
        if all(g == 0 for g in gamma) or any(g % n for g, n in zip(gamma, orders)):
            return gamma


# ---------------------------------------------------------------------------
# words


def words_workload(G, seed):
    rng = random.Random(f"words:{seed}")
    C2, S3 = G.groups.Cyclic(2), G.groups.Symmetric(3)
    torus = torus_graph(G, 8)
    graphs = {"line": line_graph(G), "ladder": ladder_graph(G), "torus": torus}
    narrow_torus = sorted(rng.sample(range(64), 6))

    def pool(graph_name, window, n):
        if graph_name == "torus":
            return narrow_torus if window == "narrow" else list(range(64))
        span = 6 if window == "narrow" else max(n, 8)
        if graph_name == "line":
            return [("c", p) for p in range(span)]
        return [(c, p) for c in ("a", "b") for p in range(span // 2)]

    def gamma(graph_name):
        if graph_name == "torus":
            return (rng.randrange(-3, 4), rng.randrange(-3, 4))
        return rng.randrange(-4, 5)

    mixes = [("C2", "narrow"), ("S3", "wide"), ("S3", "narrow"), ("C2", "wide")]
    graph_names = tuple(graphs)
    ops = []
    for n, count in WORD_TIERS.items():
        for i in range(count):
            kind = WORD_KINDS[i % 4]
            graph_name = graph_names[i % 3]
            delta_name, window = mixes[(i // 12 + i) % 4]
            delta = C2 if delta_name == "C2" else S3
            inst = G.wreath.Instance(delta, graphs[graph_name])
            vertices = pool(graph_name, window, n)
            half = n // 2
            length = n if kind in ("normalize", "invert") else half
            x = G.wreath.WreathElement(random_word(G, rng, delta, vertices, length), gamma(graph_name))
            y = None
            if kind == "compose":
                y = G.wreath.WreathElement(random_word(G, rng, delta, vertices, half), gamma(graph_name))
            name = f"{kind}/{graph_name}/{delta_name}/{window}/{n}/{i}"
            ops.append(_word_op(G, name, n, kind, inst, x, y, random.Random(f"{seed}:{name}")))
    return Workload("words", ops)


def _element_text(G, inst, x):
    return "\n".join(G.formats.wreath_element_lines(inst, x))


def _word_op(G, name, n, kind, inst, x, y, shuffle_rng):
    graph, delta = inst.graph, inst.delta
    W = G.wreath
    key = input_key(name, _element_text(G, inst, x), _element_text(G, inst, y) if y is not None else "")

    def cf(w):
        return G.words.canonical_form(graph, delta, w)

    def idempotent(z):
        return cf(z.word) == z.word

    if kind == "normalize":
        def run():
            return inst.normalize(x)

        def check(out):
            if out.gamma != x.gamma or not idempotent(out):
                return "normal form is not canonical"
            if cf(shuffle_commuting(graph, x.word, shuffle_rng)) != out.word:
                return "shuffling commuting syllables changed the canonical form"
            return None
    elif kind == "compose":
        def run():
            return W.gw_compose(inst, x, y)

        def check(out):
            if not idempotent(out):
                return "product is not canonical"
            if W.gw_compose(inst, out, W.gw_invert(inst, y)) != inst.normalize(x):
                return "(x*y)*y^-1 != x"
            return None
    elif kind == "invert":
        def run():
            return W.gw_invert(inst, x)

        def check(out):
            if not idempotent(out):
                return "inverse is not canonical"
            if not inst.is_identity_element(W.gw_compose(inst, x, out)):
                return "x*x^-1 is not the identity"
            return None
    else:
        def run():
            inverse = W.gw_invert(inst, x)
            return inverse, W.gw_compose(inst, x, inverse)

        def check(out):
            inverse, product = out
            if not (product.word.is_empty and inst.gamma_is_identity(product.gamma)):
                return "x*x^-1 is not the identity"
            if not idempotent(inverse):
                return "inverse is not canonical"
            return None

    def document(out):
        parts = out if kind == "x*x^-1" else (out,)
        return "\n".join(_element_text(G, inst, z) for z in parts) + "\n"

    return Op(name, run, check, document, key, tier=("words", n))


def shuffle_commuting(graph, w, rng):
    """Apply random swaps of adjacent commuting syllables."""
    sylls = list(w)
    for _ in range(2 * len(sylls)):
        if len(sylls) < 2:
            break
        i = rng.randrange(len(sylls) - 1)
        if graph.adjacent(sylls[i].vertex, sylls[i + 1].vertex):
            sylls[i], sylls[i + 1] = sylls[i + 1], sylls[i]
    return sylls


# ---------------------------------------------------------------------------
# search


def search_workload(G, seed):
    rng = random.Random(f"search:{seed}")
    gr, W = G.graphs, G.wreath
    C2, S3 = G.groups.Cyclic(2), G.groups.Symmetric(3)
    line, ladder = line_graph(G), ladder_graph(G)
    ops = []

    def translation_vertices(graph, span):
        return [(c, p) for c in graph.labels for p in range(span)]

    # separations that succeed at moduli 8..15, one per modulus so that
    # every seed does the same amount of work
    for graph_name, graph in (("line", line), ("ladder", ladder)):
        for delta in (C2, S3):
            inst = W.Instance(delta, graph)
            for target in range(8, 16):
                while True:
                    w = nonempty_word(G, rng, inst, translation_vertices(graph, target), 6)
                    x = W.WreathElement(w, rng.randrange(-3, 4))
                    if smallest_modulus(inst, x, 64) == target:
                        break
                ops.append(_separate_op(G, f"separate/small/{graph_name}/{delta.order()}/{target}",
                                        inst, x, 64, oracle=True))

    # separations that reject every modulus up to K: the support
    # positions differ by multiples of lcm(1..K)
    for k in COLLIDE:
        for delta in (C2, S3):
            base = math.lcm(*range(1, k + 1))
            inst = W.Instance(delta, line)
            while True:
                step = base * rng.randint(1, 6)
                positions = [0, step, 2 * step + rng.choice((0, 1))]
                values = nontrivial(delta)
                w = G.words.word(delta, [(("c", p), rng.choice(values)) for p in positions])
                x = W.WreathElement(w, 0)
                if smallest_modulus(inst, x, 64) is not None:
                    break
            ops.append(_separate_op(G, f"separate/collide/{k}/{delta.order()}", inst, x, 64, oracle=True,
                                    tier=("collide", k)))

    # exhausted separations: factorial shift 0 with S3 loops at every modulus
    fact0 = family_graph(G, gr.FactorialOffsets(0))
    for bound in EXHAUST_BOUNDS:
        inst = W.Instance(S3, fact0)
        w = nonempty_word(G, rng, inst, translation_vertices(fact0, 6), 3)
        ops.append(_separate_op(G, f"separate/exhausted/{bound}", inst, W.WreathElement(w, 0), bound,
                                tier=("exhausted", bound)))

    # finite-mode separations on cycles and tori
    for n in CYCLES:
        for i, delta in enumerate((C2, S3)):
            inst = W.Instance(delta, cycle_graph(G, n))
            w = nonempty_word(G, rng, inst, list(range(n)), 4)
            x = W.WreathElement(w, kernel_free_gamma(rng, (n,)))
            ops.append(_separate_op(G, f"separate/cycle/{n}/{i}", inst, x, 64))
    for n in TORI:
        for i, delta in enumerate((S3,) if n == 6 else (C2, S3)):
            inst = W.Instance(delta, torus_graph(G, n))
            w = nonempty_word(G, rng, inst, list(range(n * n)), 4)
            x = W.WreathElement(w, kernel_free_gamma(rng, (n, n)))
            ops.append(_separate_op(G, f"separate/torus/{n}/{i}", inst, x, 64, tier=("torus-separate", n * n)))

    # verdicts with the status each family is built to have
    RF, NRF = "residually-finite", "not-residually-finite"
    for n in CYCLES:
        inst = W.Instance(S3, cycle_graph(G, n))
        ops.append(_classify_op(G, f"classify/cycle/{n}", inst, None, RF, golden=True))
    for n in TORI:
        inst = W.Instance(S3, torus_graph(G, n))
        ops.append(_classify_op(G, f"classify/torus/{n}", inst, None, RF, golden=True,
                                tier=("torus", n * n)))
    for graph_name, graph in (("line", line), ("ladder", ladder)):
        inst = W.Instance(S3, graph)
        ops.append(_classify_op(G, f"classify/{graph_name}", inst, None, RF, golden=True))
    families = (
        ("factorial-0", gr.FactorialOffsets(0), S3),
        ("arithmetic-zero", gr.ArithmeticOffsets(2, 2), S3),
        ("factorial-1", gr.FactorialOffsets(1), None),
        ("arithmetic-1-3", gr.ArithmeticOffsets(1, 3), None),
    )
    for t_max in T_MAX:
        for label, family, delta in families:
            inst = W.Instance(delta or (C2, S3)[t_max % 2], family_graph(G, family))
            # Unknown and infinite-family verdicts may gain evidence lines
            # (ROADMAP item 5), so they stay out of the golden digests.
            ops.append(_classify_op(G, f"classify/{label}/{t_max}", inst, t_max, NRF, golden=False))

    # witnesses certified by the residue lemmas
    fact1 = family_graph(G, gr.FactorialOffsets(1))
    arith = family_graph(G, gr.ArithmeticOffsets(1, 3))
    arith0 = family_graph(G, gr.ArithmeticOffsets(2, 2))
    for i in range(2):
        p = rng.randrange(-5, 6)
        ops.append(_witness_op(G, f"witness/T3.1/factorial-0/{i}", W.Instance(S3, fact0), "T3.1", [("c", p)]))
        ops.append(_witness_op(G, f"witness/T3.1/arithmetic-zero/{i}", W.Instance(S3, arith0), "T3.1",
                               [("c", p)]))
        ops.append(_witness_op(G, f"witness/T3.2/factorial-1/{i}", W.Instance((C2, S3)[i], fact1),
                               "T3.2", [("c", p), ("c", p + rng.choice((1, -1)))]))
        ops.append(_witness_op(G, f"witness/T3.2/arithmetic-1-3/{i}", W.Instance((C2, S3)[i], arith),
                               "T3.2", [("c", p), ("c", p + rng.choice((2, -2)))]))

    # finite partial models
    for graph_name, graph in (("line", line), ("ladder", ladder), ("factorial-1", fact1)):
        for i in range(6):
            gammas = sorted(rng.sample(range(0, 12), 1 + i % 3))
            vertices = sorted(rng.sample(translation_vertices(graph, 32), 3 + i % 4), key=graph.vertex_key)
            ops.append(_lef_op(G, f"lef/{graph_name}/{i}", graph, gammas, vertices))
    return Workload("search", ops)


def smallest_modulus(inst, x, bound):
    """Smallest modulus separating ``x`` over a translation graph whose
    families are all finite, found directly from the definition: gamma
    survives, the support stays distinct and keeps exactly its adjacency
    (offset in the family iff the residue is), and, for non-abelian
    coefficients, no orbit of the support loops (0 is no residue of its
    own family).  None when no modulus up to ``bound`` works."""
    graph = inst.graph
    x = inst.normalize(x)
    support = sorted(x.word.vertices(), key=graph.vertex_key)

    def offsets(c1, c2):
        return {d for f in graph.families_for(c1, c2) for d in f.offsets}

    for m in range(1, bound + 1):
        if x.gamma != 0 and x.gamma % m == 0:
            continue
        if not inst.delta.is_abelian() and any(
                0 in {d % m for d in offsets(c, c)} for c in {v[0] for v in support}):
            continue
        if len({(c, p % m) for c, p in support}) != len(support):
            continue
        if all(((q - p) in offsets(c1, c2)) == ((q - p) % m in {d % m for d in offsets(c1, c2)})
               for i, (c1, p) in enumerate(support) for c2, q in support[i + 1:]):
            return m
    return None


def _predicts_exhaustion(G, inst, x):
    """The factorial-zero lemma: with non-abelian coefficients, an orbit
    whose self-family is factorial with shift 0 loops modulo every m."""
    if inst.delta.is_abelian() or not isinstance(inst.graph, G.graphs.TranslationGraph):
        return False
    labels = {v[0] for v in inst.normalize(x).word.vertices()}
    return any(isinstance(f, G.graphs.FactorialOffsets) and f.shift == 0
               for c in labels for f in inst.graph.families_for(c, c))


def _separate_op(G, name, inst, x, bound, *, oracle=False, tier=None):
    W, F = G.wreath, G.formats
    key = input_key(name, repr(inst.delta), _element_text(G, inst, x), bound)

    def run():
        try:
            cert = W.separate(inst, x, bound=bound)
        except G.errors.SearchExhausted as exc:
            return {"exhausted": exc.bound}
        verified = W.verify_certificate(inst, cert)
        text = "\n".join(F.certificate_lines(inst, cert)) + "\n"
        kind, record = F.parse_structured(text)
        again = "\n".join(F.certificate_lines(inst, F.certificate_from_record(inst, record))) + "\n"
        return {"cert": cert, "verified": verified, "text": text, "kind": kind, "again": again}

    def check(out):
        predicted = _predicts_exhaustion(G, inst, x)
        if "exhausted" in out:
            if not predicted:
                return "search exhausted where no lemma predicts it"
            return None if out["exhausted"] == bound else "exhausted at the wrong bound"
        if predicted:
            return "separated an element the factorial-zero lemma says cannot be"
        if not out["verified"] or not out["cert"].checks.all_pass():
            return "certificate does not verify"
        if out["kind"] != "separation-certificate" or out["again"] != out["text"]:
            return "certificate does not survive emit -> parse -> emit"
        if oracle and out["cert"].modulus != smallest_modulus(inst, x, bound):
            return "modulus is not the smallest separating one"
        return None

    def document(out):
        if "exhausted" in out:
            return f"exhausted {out['exhausted']}\n"
        return out["text"]

    return Op(name, run, check, document, key, tier=tier)


def _classify_op(G, name, inst, t_max, expected, *, golden, tier=None):
    W, C, F = G.wreath, G.checker, G.formats
    key = input_key(name, repr(inst.delta), t_max)

    def run():
        verdict = C.classify(inst, t_max=t_max)
        text = "\n".join(F.verdict_lines(inst, verdict)) + "\n"
        kind, record = F.parse_structured(text)
        witness_ok = verdict.witness is None or W.verify_witness(inst, verdict.witness)
        return {"verdict": verdict, "text": text, "kind": kind, "record": record, "witness_ok": witness_ok}

    def check(out):
        if out["verdict"].status != expected:
            return f"verdict {out['verdict'].status}, built to be {expected}"
        if out["kind"] != "verdict" or out["record"].get("status") != [expected]:
            return "verdict document does not parse back"
        if expected != "residually-finite" and out["verdict"].witness is None:
            return "negative verdict without a witness"
        return None if out["witness_ok"] else "witness does not verify"

    return Op(name, run, check, lambda out: out["text"], key, tier=tier, golden=golden)


def _witness_op(G, name, inst, kind, vertices):
    W, F = G.wreath, G.formats
    key = input_key(name, repr(inst.delta), kind, vertices)

    def run():
        wit = W.witness(inst, kind, vertices)
        verified = W.verify_witness(inst, wit)
        text = "\n".join(F.witness_lines(inst, wit)) + "\n"
        _, record = F.parse_structured(text)
        again = "\n".join(F.witness_lines(inst, F.witness_from_record(inst, record))) + "\n"
        return {"verified": verified, "text": text, "again": again}

    def check(out):
        if not out["verified"]:
            return "witness does not verify"
        return None if out["again"] == out["text"] else "witness does not survive emit -> parse -> emit"

    return Op(name, run, check, lambda out: out["text"], key)


def _lef_op(G, name, graph, gammas, vertices):
    L, F = G.lef, G.formats
    key = input_key(name, gammas, vertices)

    def run():
        cert = L.lef_certificate(graph, gammas, vertices)
        verified = L.verify_lef(cert, graph, gammas, vertices)
        text = "\n".join(F.lef_lines(graph, cert)) + "\n"
        _, record = F.parse_structured(text)
        again = "\n".join(F.lef_lines(graph, F.lef_from_record(graph, record))) + "\n"
        return {"verified": verified, "text": text, "again": again}

    def check(out):
        if not out["verified"]:
            return "finite partial model does not verify"
        return None if out["again"] == out["text"] else "model does not survive emit -> parse -> emit"

    return Op(name, run, check, lambda out: out["text"], key)


# ---------------------------------------------------------------------------
# cli

# README commands; the expected exit code follows the 0/1/2 contract.
README_COMMANDS = (
    (["check", "instances/ex11.instance"], 0),
    (["check", "instances/complete-c2.instance", "--wreath"], 0),
    (["check-fp", "instances/ex12.instance"], 0),
    (["normalize", "instances/ex11.instance", "--element", "w1"], 0),
    (["mul", "instances/ex11.instance", "--left", "w1", "--right", "w2"], 0),
    (["invert", "instances/ex11.instance", "--element", "w2"], 0),
    (["separate", "instances/ex11.instance", "--element", "w1"], 0),
    (["witness", "instances/ex12.instance", "--kind", "T3.1", "--vertices", "c:0"], 0),
    (["quotient", "instances/ex11.instance", "--modulus", "3"], 0),
    (["quotient", "instances/finite5-s3.instance", "--subgroup", "1"], 0),
    (["lef", "instances/ex12.instance", "--gamma-set", "0,1", "--vertex-set", "c:0 c:1 c:2"], 0),
)

# Committed instance files: (named elements, exit code of `separate` on
# the first element, exit code of `witness T3.1 c:0`, None: not run).
INSTANCE_FILES = {
    "complete-c2": (("w1",), 0, 2),
    "complete-s3": ((), None, 0),
    "edgeless-s3": (("w1",), 0, 2),
    "ex11-s3": (("w1",), 0, 2),
    "ex11": (("w1", "w2", "t5"), 0, 2),
    "ex12": (("w1",), 2, 0),
    "ex13": (("w1",), 0, 2),
    "finite5-s3": (("w1",), 0, None),
}


def cli_workload(G, seed, work_dir):
    rng = random.Random(f"cli:{seed}")
    work = Path(work_dir)
    commands = []  # (argv, expected exit code)

    for argv, code in README_COMMANDS:
        for fmt in ("text", "structured"):
            commands.append((argv + ["--format", fmt], code))
    for name, (elements, separate_code, witness_code) in INSTANCE_FILES.items():
        path = f"instances/{name}.instance"
        fmt = rng.choice(("text", "structured"))
        commands.append((["check", path, "--format", fmt], 0))
        commands.append((["check-fp", path, "--format", fmt], 0))
        for element in elements:
            commands.append((["normalize", path, "--element", element, "--format", fmt], 0))
        if elements:
            commands.append((["invert", path, "--element", elements[0], "--format", fmt], 0))
            commands.append((["separate", path, "--element", elements[0], "--format", "structured"],
                             separate_code))
        if name != "finite5-s3":
            commands.append((["quotient", path, "--modulus", str(rng.randint(2, 7)), "--format", fmt], 0))
        if witness_code is not None:
            commands.append((["witness", path, "--kind", "T3.1", "--vertices", "c:0"], witness_code))

    files = {}
    for i, (kind, text, info) in enumerate(_generated_instances(G, rng)):
        path = (work / f"gen{i}-{kind}.instance").as_posix()
        files[path] = text
        commands.append((["check", path, "--format", rng.choice(("text", "structured"))], 0))
        commands.append((["separate", path, "--element", "w1", "--format", "structured"], 0))
        commands.append((["mul", path, "--left", "w1", "--right", "w2", "--format", "structured"], 0))
        if kind in ("line", "ladder"):
            vertex_set = " ".join(f"{info}:{p}" for p in sorted(rng.sample(range(8), 3)))
            commands.append((["lef", path, "--gamma-set", "0,1", "--vertex-set", vertex_set,
                              "--format", "structured"], 0))
        else:
            commands.append((["quotient", path, "--subgroup", info, "--format", "structured"], 0))

    # --output writes the document to a file and nothing to stdout
    for i, (argv, code) in enumerate(README_COMMANDS[:5]):
        out_path = (work / f"out{i}.txt").as_posix()
        commands.append((argv + ["--format", "structured", "--output", out_path], code))

    # input errors exit 1 with one line on stderr
    bad = (work / "malformed.instance").as_posix()
    files[bad] = "[delta]\nkind = cyclic\norder = 2\n\n[bogus]\nx = 1\n"
    commands.append((["check", bad], 1))
    commands.append((["check", (work / "missing.instance").as_posix()], 1))
    commands.append((["normalize", "instances/ex11.instance", "--element", "nosuch"], 1))
    commands.append((["separate", "instances/ex12.instance", "--element", "absent", "--format", "structured"], 1))

    ops = [_cli_op(f"cli/{i}/{argv[0]}", argv, code) for i, (argv, code) in enumerate(commands)]
    return Workload("cli", ops, files)


def _generated_instances(G, rng):
    """Seeded instance files whose verdicts and separations are certain:
    finite families over translation graphs and finite-mode graphs with
    nonempty elements whose gamma acts nontrivially or is zero."""
    out = []
    for kind in ("line", "ladder", "cycle", "torus"):
        delta = rng.choice(("cyclic 2", "symmetric 3"))
        if delta == "cyclic 2":
            head, values = "kind = cyclic\norder = 2\n", ["1"]
        else:
            head, values = "kind = symmetric\ndegree = 3\n", ["1,0,2", "1,2,0", "2,0,1", "0,2,1", "2,1,0"]
        if kind == "line":
            graph = "mode = translation\norbits = c\nfamily = c c finite 1\n"
            vertices, gamma_kind, info = [f"c:{p}" for p in range(8)], "z", "c"
        elif kind == "ladder":
            graph = ("mode = translation\norbits = a b\nfamily = a a finite 1\n"
                     "family = a b finite 1 2\nfamily = b b finite 3\n")
            vertices, gamma_kind, info = [f"{c}:{p}" for c in "ab" for p in range(6)], "z", "a"
        elif kind == "cycle":
            n = rng.randint(5, 9)
            edges = "".join(f"edge = {i} {(i + 1) % n}\n" for i in range(n))
            rotation = " ".join(str((i + 1) % n) for i in range(n))
            graph = (f"mode = finite\nvertices = {' '.join(map(str, range(n)))}\n{edges}"
                     f"generator = {rotation}\n")
            vertices, gamma_kind, info = [str(i) for i in range(n)], "z^1", "2"
        else:
            n = 3
            torus = torus_graph(G, n)
            edges = "".join(f"edge = {u} {w}\n" for u, w in sorted(torus.edges))
            gens = "".join(f"generator = {' '.join(map(str, g))}\n" for g in torus.generators)
            graph = f"mode = finite\nvertices = {' '.join(map(str, range(9)))}\n{edges}{gens}"
            vertices, gamma_kind, info = [str(i) for i in range(9)], "z^2", "1,0"

        def element():
            # distinct vertices: no syllables cancel, so the element is nontrivial
            sylls = " ".join(f"{v}={rng.choice(values)}" for v in rng.sample(vertices, rng.randint(1, 4)))
            if gamma_kind == "z":
                gamma = str(rng.randrange(-3, 4))
            else:
                orders = (n,) if gamma_kind == "z^1" else (n, n)
                gamma = ",".join(map(str, kernel_free_gamma(rng, orders)))
            return f"{sylls} @ {gamma}"

        text = (f"# generated {kind} instance\n[delta]\n{head}\n[gamma]\nkind = {gamma_kind}\n\n"
                f"[graph]\n{graph}\n[elements]\nw1 = {element()}\nw2 = {element()}\n")
        G.formats.parse_instance_text(text)  # construction and validation belong to set-up
        out.append((kind, text, info))
    return out


def _cli_op(name, argv, code):
    # Exit-2 outputs are left out of the golden digests: the ROADMAP plans
    # an explanatory line on Unknown and exhausted outcomes.
    return Op(
        name,
        run=None,
        check=lambda out: _check_cli(out, code),
        document=_cli_document,
        key=input_key("cli", *argv),
        golden=code != 2,
        argv=argv,
    )


def _check_cli(out, code):
    exit_code, stdout, stderr, written = out
    if exit_code != code:
        return f"exit code {exit_code}, expected {code}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if code == 1:
        return None if stderr.startswith("error: ") and not stdout else "input error not reported on stderr"
    if written is not None:
        return None if not stdout and written else "--output left stdout non-empty or the file empty"
    return None if stdout else "empty output"


def _cli_document(out):
    exit_code, stdout, _, written = out
    return f"exit {exit_code}\n{stdout}{written or ''}"
