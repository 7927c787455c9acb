import inspect
import itertools
import pathlib
import random
import time
from collections import Counter

import pytest

import gwreath
from gwreath import (
    ArithmeticOffsets,
    Cyclic,
    FactorialOffsets,
    FiniteModeGraph,
    FiniteOffsets,
    FreeAbelian,
    GraphError,
    Instance,
    Symmetric,
    TranslationGraph,
    WreathElement,
    check_cond2,
    check_cond3,
    check_finitely_presented,
    classify,
    classify_wreath,
    quotient_graph,
    separate,
    verify_certificate,
    verify_witness,
    witness,
    word,
)
from gwreath import checker, formats, graphs, wreath
from gwreath.checker import NOT_RESIDUALLY_FINITE, RESIDUALLY_FINITE
from gwreath.graphs import enumerate_subgroups, residues_of

from tests.support import (
    brute_nonadjacent,
    brute_residues,
    complete_graph_rf,
    complete_z_graph,
    cycle_graph,
    edgeless_graph,
    edgeless_graph_rf,
    factorial_graph,
    k5_cyclic,
    klein_table,
    line_graph,
    path3_graph,
    prime_cycles_graph,
    random_complete_translation_graph,
    random_permutation_graph,
    random_wreath,
    reference_cond3_pair,
    reference_pair_evidence_finite,
    rule_modulus,
    separation_bound,
    torus_graph,
    two_orbit_graph,
)

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
C2 = Cyclic(2)
C3 = Cyclic(3)
S3 = Symmetric(3)


# ---------------------------------------------------------------------------
# condition 2


def test_cond2_line_abelian_branch_with_modulus_evidence():
    result = check_cond2(Instance(C2, line_graph()))
    assert result.holds is True
    assert result.abelian
    assert result.abelian_rule is not None
    assert result.per_orbit[0].modulus == 2


def test_cond2_line_nonabelian_modulus_two():
    result = check_cond2(Instance(S3, line_graph()))
    assert result.holds is True
    assert not result.abelian
    assert result.per_orbit[0].modulus == 2


def test_cond2_factorial_fails_for_every_modulus():
    result = check_cond2(Instance(S3, factorial_graph(0)))
    assert result.holds is False
    assert result.failing.obstruction.lemma == "factorial-zero"


def test_cond2_shifted_factorial_modulus_four():
    result = check_cond2(Instance(S3, factorial_graph(1)))
    assert result.holds is True
    assert result.per_orbit[0].modulus == 4


def test_cond2_complete_graph_arithmetic_lemma():
    result = check_cond2(Instance(S3, complete_z_graph()))
    assert result.holds is False
    assert result.failing.obstruction.lemma == "arithmetic-zero"


def test_cond2_finite_mode_always_holds():
    result = check_cond2(Instance(S3, k5_cyclic()))
    assert result.holds is True
    assert result.per_orbit[0].subgroup_index == 5  # the trivial subgroup


def _random_orbit_families(rng) -> tuple:
    """One or two families on a single label: finite offset sets,
    factorial shifts 0-60, arithmetic start and step up to 100, and
    arithmetic families with a prime step above 64.  A second family
    takes an arithmetic step of at most 6: two large steps put the least
    modulus near their product, in the thousands, where enumerating the
    residues of every smaller modulus takes seconds."""
    def family(max_step):
        kind = rng.choice(("finite", "factorial", "arithmetic", "prime-step"))
        if kind == "finite":
            return FiniteOffsets(frozenset(rng.sample(range(1, 40), rng.randint(1, 4))))
        if kind == "factorial":
            return FactorialOffsets(rng.randint(0, 60))
        if kind == "prime-step" and max_step > 64:
            return ArithmeticOffsets(rng.randint(1, 100), rng.choice((67, 71, 73, 79, 83, 89, 97)))
        return ArithmeticOffsets(rng.randint(1, 100), rng.randint(1, max_step))

    return (family(100),) + ((family(6),) if rng.random() < 0.5 else ())


def test_cond2_modulus_is_the_brute_force_least_modulus():
    # a holding orbit reports the least m with 0 missing from the
    # enumerated residues, a failing one has 0 among them for every m
    # tried, and neither depends on the bound ``classify`` records
    rng = random.Random(23)
    seen = Counter()
    for _ in range(200):
        families = _random_orbit_families(rng)
        inst = Instance(rng.choice((S3, C2)), TranslationGraph(("c",), {("c", "c"): families}))
        cond2 = check_cond2(inst)
        (e,) = cond2.per_orbit
        if e.status == "holds":
            least = next(m for m in itertools.count(1) if 0 not in brute_residues(families, m))
            assert e.modulus == least, families
            seen["holds", least > 64] += 1
        else:
            assert all(0 in brute_residues(families, m) for m in range(1, 41)), families
            seen["fails"] += 1
        assert {classify(inst, bound=bound).cond2 for bound in (1, 2, 64)} == {cond2}
    assert seen["fails"] >= 5 and seen["holds", False] >= 5 and seen["holds", True] >= 5, seen


def test_cond2_takes_no_bound():
    assert "bound" not in inspect.signature(check_cond2).parameters
    with pytest.raises(TypeError):
        check_cond2(Instance(S3, line_graph()), bound=64)


def test_removed_public_names_are_gone():
    for name in ("separation_bound", "gp_compose", "support"):
        with pytest.raises(AttributeError):
            getattr(gwreath, name)
        assert name not in gwreath.__all__
    assert not hasattr(FiniteOffsets, "max_offset")
    assert not hasattr(TranslationGraph, "max_finite_offset")


# ---------------------------------------------------------------------------
# condition 3


def test_cond3_line_rule():
    result = check_cond3(Instance(C2, line_graph()))
    assert result.holds is True
    evidence = result.per_pair[0]
    assert evidence.status == "holds-rule"
    assert evidence.rule == "m(t) = |t| + 1 + 1"


def test_cond3_edgeless_rule_is_point_separation():
    result = check_cond3(Instance(S3, edgeless_graph()))
    assert result.holds is True
    assert result.per_pair[0].rule == "m(t) = |t| + 0 + 1"


def test_cond3_shifted_factorial_fails_at_offset_one():
    result = check_cond3(Instance(C2, factorial_graph(1)))
    assert result.holds is False
    assert result.failing.obstruction.offset == 1
    assert result.failing.obstruction.lemma == "factorial-shift"


def test_cond3_factorial_zero_holds_by_rule():
    # no lemma offset but 0, which is the vertex itself
    result = check_cond3(Instance(C2, factorial_graph(0)))
    assert result.holds is True
    evidence = result.per_pair[0]
    assert evidence.status == "holds-rule"
    assert evidence.rule == "m(t) = lcm(1, M!) for the least M >= 2 with (M - 1)*(M - 1)! > |t| + 1"
    assert evidence.obstruction is None


def test_cond3_complete_graph_vacuous():
    result = check_cond3(Instance(C2, complete_z_graph()))
    assert result.holds is True
    assert result.per_pair[0].status == "holds-vacuous"


def _random_translation_graph(rng) -> TranslationGraph:
    labels = ("a", "b", "c")[: rng.randint(1, 3)]
    families = {}
    for i, c1 in enumerate(labels):
        for c2 in labels[i:]:
            fams = []
            for _ in range(rng.randint(0, 2)):
                kind = rng.choice(("finite", "factorial", "arithmetic"))
                if kind == "finite":
                    fams.append(FiniteOffsets(frozenset(rng.sample(range(1, 9), rng.randint(1, 3)))))
                elif kind == "factorial":
                    fams.append(FactorialOffsets(rng.randint(0, 5)))
                else:
                    fams.append(ArithmeticOffsets(rng.randint(1, 6), rng.randint(1, 6)))
            if fams:
                families[c1, c2] = tuple(fams)
    return TranslationGraph(labels, families)


def test_cond3_matches_the_brute_force_reference():
    # a failing pair reports the first non-adjacent offset hit modulo
    # every m <= 200, and a holding pair's rule m(t) misses every
    # non-adjacent offset, both by enumerated residue sets for |t| <= 60
    rng = random.Random(113)
    seen = Counter()
    memo = {}  # residue sets by (family, m), for this test only
    for _ in range(600):
        graph = _random_translation_graph(rng)
        inst = Instance(rng.choice((S3, C2)), graph)
        result = check_cond3(inst, rng.choice((None, 0, 3, 10, 40)))
        for e in result.per_pair:
            if e.status == "fails":
                assert reference_cond3_pair(graph, *e.pair, memo=memo) == e.obstruction.offset, (graph, e.pair)
                seen["fails"] += 1
                continue
            families = graph.families_for(*e.pair)
            zero = {0} if e.pair[0] == e.pair[1] else set()
            offsets = brute_nonadjacent(graph, *e.pair)
            if e.status == "holds-vacuous":
                assert offsets == []
            residues = {}
            for t in offsets:
                m = rule_modulus(e.rule, t)
                if m not in residues:
                    residues[m] = brute_residues(families, m, memo) | zero
                assert t % m not in residues[m], (graph, e.pair, t, m)
            seen[e.status, all(f.is_finite() for f in families)] += 1
        verdict = classify(inst)
        seen["verdict", verdict.status] += 1
        if verdict.failing_condition == "condition-3":
            failing = next(e for e in result.per_pair if e.status == "fails")
            (c1, c2), t = failing.pair, failing.obstruction.offset
            assert verdict.witness == witness(inst, "T3.2", [(c1, 0), (c2, t)])
    # every pair status, rules over finite and infinite families, and both verdicts
    for key in ["fails", ("holds-rule", True), ("holds-rule", False), ("holds-vacuous", False),
                ("verdict", RESIDUALLY_FINITE), ("verdict", NOT_RESIDUALLY_FINITE)]:
        assert seen[key] >= 5, (key, seen)


def test_cond3_window_counts_factorial_offsets():
    # 3 and 7 are factorial offsets in the class 3 mod 4, so the first
    # non-adjacent lemma offset, 11, lies past D + L = 9
    graph = TranslationGraph(("c",), {("c", "c"): (ArithmeticOffsets(1, 4), FactorialOffsets(1))})
    failing = check_cond3(Instance(C2, graph)).failing
    assert (failing.obstruction.offset, failing.obstruction.lemma) == (11, "arithmetic-step")
    assert reference_cond3_pair(graph, "c", "c") == 11


def _pair_failing_at_the_window(rng, memo):
    """A one-pair translation graph whose first non-adjacent lemma offset,
    by the brute-force reference, is W itself, with W; or None.  Each
    first offset found below W joins a finite family, which moves W,
    until one lands on W or past the reference's reach."""
    labels = rng.choice((("c",), ("a", "b")))
    pair = (labels[0], labels[-1])
    infinite = (ArithmeticOffsets(rng.randint(1, 6), rng.randint(2, 8)),)
    finite = set()
    while True:
        families = infinite + ((FiniteOffsets(frozenset(finite)),) if finite else ())
        graph = TranslationGraph(labels, {pair: families})
        t = reference_cond3_pair(graph, *pair, memo=memo)
        window = checker._offset_window([], *checker._datum_and_steps(families))
        if t == window:
            return graph, window
        if not t or t > window:
            return None
        finite.add(t)


def test_cond3_fails_at_the_window_itself():
    # the walk covers 0 <= t <= W with W included: here D = 10 and L = 6,
    # so W = 16, and 16 = -2 mod 6 is the first non-adjacent lemma offset,
    # as 2, 4, 8, 10 and 14 are edges
    families = (FiniteOffsets(frozenset({10})), FiniteOffsets(frozenset({4})), ArithmeticOffsets(2, 6))
    graph = TranslationGraph(("a", "b"), {("a", "b"): families})
    assert checker._offset_window([], *checker._datum_and_steps(families)) == 16
    verdict = classify(Instance(C2, graph))
    assert verdict.status == NOT_RESIDUALLY_FINITE
    failing = verdict.cond3.failing
    assert (failing.obstruction.offset, failing.obstruction.lemma) == (16, "arithmetic-step")
    assert reference_cond3_pair(graph, "a", "b") == 16
    rng, memo, found = random.Random(19), {}, 0
    for _ in range(60):
        case = _pair_failing_at_the_window(rng, memo)
        if case is not None:
            graph, window = case
            failing = check_cond3(Instance(C2, graph)).failing
            assert failing is not None and failing.obstruction.offset == window, graph
            found += 1
    assert found >= 20


def test_translation_verdicts_do_not_depend_on_the_search_knobs():
    # one of the two statuses, the same for every bound and t_max, and
    # a negative witness that verifies
    rng = random.Random(20)
    for _ in range(300):
        inst = Instance(rng.choice((S3, C2)), _random_translation_graph(rng))
        verdicts = [classify(inst, bound, t_max) for bound in (1, 4, 64) for t_max in (None, 0, 40)]
        assert len({(v.status, v.witness) for v in verdicts}) == 1
        assert verdicts[0].status in (RESIDUALLY_FINITE, NOT_RESIDUALLY_FINITE)
        if verdicts[0].witness is not None:
            assert wreath.verify_witness(inst, verdicts[0].witness)


def test_failing_pairs_stop_at_their_first_lemma_offset(monkeypatch):
    # a failing pair walks only lemma offsets and asks the lemmas once,
    # for the offset it reports
    tested, certified = [], []
    contains, certify = checker.contains_offset, checker.certify_offset_always
    monkeypatch.setattr(checker, "contains_offset", lambda *args: tested.append(args[1]) or contains(*args))
    monkeypatch.setattr(checker, "certify_offset_always",
                        lambda *args: certified.append(args[2]) or certify(*args))
    mixed = TranslationGraph(("a", "b"), {("a", "a"): (FactorialOffsets(1),),
                                          ("a", "b"): (ArithmeticOffsets(2, 3),),
                                          ("b", "b"): (FactorialOffsets(2),)})
    for graph in (factorial_graph(1), mixed):
        tested.clear(), certified.clear()
        result = check_cond3(Instance(C2, graph), t_max=300)
        assert all(e.status == "fails" for e in result.per_pair), result.per_pair
        assert tested == certified == [e.obstruction.offset for e in result.per_pair]
    verdict = classify(Instance(C2, factorial_graph(1)), t_max=300)
    assert verdict.cond3.failing.obstruction.offset == 1


def test_cond3_finite_mode_always_holds():
    result = check_cond3(Instance(S3, k5_cyclic()))
    assert result.holds is True


def test_classify_computes_the_subgroup_list_once(monkeypatch):
    # conditions 2 and 3 read one image and one subgroup list: as many
    # closures as one enumeration of the subgroups makes
    calls = Counter()
    closure = graphs._closure

    def counted(*args):
        calls["_closure"] += 1
        return closure(*args)

    monkeypatch.setattr(graphs, "_closure", counted)
    enumerate_subgroups(torus_graph(6))
    one_list = calls["_closure"]
    calls.clear()
    assert classify(Instance(S3, torus_graph(6))).status == RESIDUALLY_FINITE
    assert calls == Counter({"_closure": one_list})


def test_classify_computes_each_orbit_map_once(monkeypatch):
    # conditions 2 and 3 read one subgroup table: one orbit map for each
    # of the 30 subgroups of the 6x6 torus's image, the index-1 one being
    # the image's, derived with the graph; a later separation and its
    # verification read them too, and compute none of their own
    calls = Counter()
    orbits = graphs._orbits

    def counted(*args):
        calls["_orbits"] += 1
        return orbits(*args)

    monkeypatch.setattr(graphs, "_orbits", counted)
    graph = torus_graph(6)
    assert len(enumerate_subgroups(graph)) == 30
    inst = Instance(S3, graph)
    assert classify(inst).status == RESIDUALLY_FINITE
    assert calls == Counter({"_orbits": 30})
    x = WreathElement(word(S3, [(0, (1, 0, 2)), (7, (0, 2, 1))]), (1, 2))
    cert = separate(inst, x)
    assert cert.kind == "image-subgroup"
    assert verify_certificate(inst, cert)
    assert calls == Counter({"_orbits": 30})


def test_finite_mode_evidence_matches_direct_orbit_checks():
    # the first subgroup, by ascending index, whose orbit of v misses
    # N(v) (condition 2) or whose orbits keep v, w and their neighbours
    # apart (condition 3), found by scanning orbits with ``adjacent``
    for graph in (torus_graph(4), cycle_graph(8), k5_cyclic(), path3_graph()):
        subgroups = enumerate_subgroups(graph)

        def orbit(sub, v):
            return {p[graph.vertices.index(v)] for p in sub}

        def first_index(clears):
            sub = next(sub for sub in subgroups if clears(sub))
            return len(subgroups[0]) // len(sub)

        inst = Instance(S3, graph)
        cond2 = check_cond2(inst)
        reps = sorted({min(orbit(subgroups[0], v)) for v in graph.vertices})
        assert [e.orbit for e in cond2.per_orbit] == reps
        for e in cond2.per_orbit:
            v = e.orbit
            assert e.subgroup_index == first_index(
                lambda sub: not any(graph.adjacent(u, v) for u in orbit(sub, v))
            )
        cond3 = check_cond3(inst)
        pairs = [
            (v, w) for i, v in enumerate(graph.vertices) for w in graph.vertices[i + 1:]
            if not graph.adjacent(v, w)
        ]
        assert [e.pair for e in cond3.per_pair] == pairs
        for e in cond3.per_pair:
            v, w = e.pair
            assert e.subgroup_index == first_index(
                lambda sub: not any(u == v or graph.adjacent(u, v) for u in orbit(sub, w))
                and not any(u == w or graph.adjacent(u, w) for u in orbit(sub, v))
            )


SPREAD_GRAPHS = (
    [(f"cycle-{n}", lambda n=n: cycle_graph(n)) for n in range(3, 31)]
    + [(f"torus-{n}", lambda n=n: torus_graph(n)) for n in range(2, 7)]
    + [
        ("k5", k5_cyclic),
        ("path3", path3_graph),  # rank 0, not vertex-transitive
        ("prime-cycles-2-3-5", lambda: prime_cycles_graph((2, 3, 5))),
        ("prime-cycles-2-3-5-7", lambda: prime_cycles_graph((2, 3, 5, 7))),
        ("rank-0", lambda: FiniteModeGraph(tuple(range(5)), frozenset({(0, 1), (2, 3)}), ())),
    ]
)


@pytest.mark.parametrize("build", [b for _, b in SPREAD_GRAPHS], ids=[n for n, _ in SPREAD_GRAPHS])
def test_cond3_orbit_spread_matches_the_per_pair_scan(build):
    # one scan per orbit of pairs, spread through the image, gives every
    # pair the least index the scan of each pair finds
    graph = build()
    per_pair = check_cond3(Instance(S3, graph)).per_pair
    assert per_pair == tuple(reference_pair_evidence_finite(graph))


def test_cond3_lists_no_element_of_the_image():
    # each orbit of pairs is walked along the generator, so the image's
    # 210 permutations are never read
    class Unlisted(tuple):
        def __iter__(self, *args):
            raise AssertionError("condition 3 read the image's elements")

        __getitem__ = __len__ = __iter__

    graph = prime_cycles_graph((2, 3, 5, 7))
    expected = tuple(reference_pair_evidence_finite(graph))
    (index, perms, orbits), *rest = graph._subgroups
    assert index == 1 and len(perms) == 210
    vars(graph)["_subgroups"] = ((index, Unlisted(), orbits), *rest)
    assert check_cond3(Instance(S3, graph)).per_pair == expected


# ---------------------------------------------------------------------------
# classification of the example instances


def test_classify_line_graph_both_coefficient_kinds():
    assert classify(Instance(C2, line_graph())).status == RESIDUALLY_FINITE
    verdict = classify(Instance(S3, line_graph()))
    assert verdict.status == RESIDUALLY_FINITE
    assert verdict.cond2.per_orbit[0].modulus == 2


def test_classify_factorial_not_separable():
    verdict = classify(Instance(S3, factorial_graph(0)))
    assert verdict.status == NOT_RESIDUALLY_FINITE
    assert verdict.witness.theorem == "T3.1"
    assert verdict.failing_condition == "condition-2"
    assert len(verdict.witness.element.word) == 1


def test_classify_shifted_factorial_pair_failure():
    verdict = classify(Instance(C2, factorial_graph(1)))
    assert verdict.status == NOT_RESIDUALLY_FINITE
    assert verdict.witness.theorem == "T3.2"
    assert verdict.failing_condition == "condition-3"
    assert verdict.cond2.per_orbit[0].modulus == 4
    assert verdict.witness.vertices == (("c", 0), ("c", 1))


def test_classify_complete_graph():
    assert classify(Instance(C2, complete_z_graph())).status == RESIDUALLY_FINITE
    verdict = classify(Instance(S3, complete_z_graph()))
    assert verdict.status == NOT_RESIDUALLY_FINITE
    assert verdict.witness.theorem == "T3.1"


def test_classify_finite_mode_complete():
    assert classify(Instance(S3, k5_cyclic())).status == RESIDUALLY_FINITE


def test_classify_edgeless_free_product_shape():
    assert classify(Instance(S3, edgeless_graph())).status == RESIDUALLY_FINITE


def test_classify_factorial_abelian_is_residually_finite():
    verdict = classify(Instance(C2, factorial_graph(0)))
    assert verdict.status == RESIDUALLY_FINITE
    assert verdict.failing_condition is None
    assert verdict.bound == 64


def test_cond2_modulus_is_the_least_at_every_bound():
    # 1, 2 and 3 hit 0 and 4 misses it; the bound is only recorded
    inst = Instance(S3, factorial_graph(1))
    families = factorial_graph(1).families_for("c", "c")
    assert [0 in brute_residues(families, m) for m in (1, 2, 3, 4)] == [True, True, True, False]
    assert check_cond2(inst).per_orbit[0].modulus == 4
    for bound in (1, 2, 3, 4, 64):
        verdict = classify(inst, bound=bound)
        assert verdict.cond2.per_orbit[0].modulus == 4
        assert verdict.bound == bound


P = 1000003  # prime


@pytest.mark.parametrize("families, tried", [
    ((ArithmeticOffsets(1, 97),), [97]),
    ((ArithmeticOffsets(26, 83), ArithmeticOffsets(28, 73)), [83 * 73]),
    ((ArithmeticOffsets(1, P),), [P]),
    ((ArithmeticOffsets(1, 1000000007),), [1000000007]),
    ((ArithmeticOffsets(1, 2**61 - 1),), [2**61 - 1]),
    ((ArithmeticOffsets(1, P), ArithmeticOffsets(1, 999983)), [P * 999983]),
    ((ArithmeticOffsets(1, 1000000007 * 998244353),), [998244353]),
    ((ArithmeticOffsets(9, 3**7 * P),), [27]),
    # 1 + (P - 1)! = 0 mod P (Wilson), so P is hit; modulo 2P,
    # 1 + 1! = 2 and 1 + n! is odd for n >= 2, so 2P misses
    ((FactorialOffsets(1), ArithmeticOffsets(1, P)), [P, 2 * P]),
    ((ArithmeticOffsets(1, P), FactorialOffsets(1)), [P, 2 * P]),
], ids=["prime-97", "two-small-primes", "prime", "prime-1000000007", "mersenne-61",
        "two-primes", "semiprime", "power", "factorial-first", "factorial-last"])
def test_cond2_search_tries_only_the_moduli_its_steps_allow(monkeypatch, families, tried):
    # a prime q of step / gcd(start, step) misses 0 at the multiples of
    # q^(v_q(start) + 1) only, so the search never walks up to its answer
    seen, admits = [], graphs.admits

    def recording(m, apart, misses):
        seen.append(m)
        return admits(m, apart, misses)

    monkeypatch.setattr(graphs, "admits", recording)
    graph = TranslationGraph(("c",), {("c", "c"): families})
    start = time.perf_counter()
    (e,) = check_cond2(Instance(S3, graph)).per_orbit
    assert time.perf_counter() - start < 10
    assert (e.status, e.modulus, seen) == ("holds", tried[-1], tried)


def test_candidate_moduli_are_those_every_arithmetic_family_misses(monkeypatch):
    # against enumeration: start + k*step for k < m runs through every
    # residue the family has modulo m
    rng = random.Random(29)
    for _ in range(40):
        families = [ArithmeticOffsets(rng.randint(1, 200), rng.randint(2, 200))
                    for _ in range(rng.randint(1, 3))]
        families = [f for f in families if f.start % f.step] or [ArithmeticOffsets(1, 2)]
        misses = [m for m in range(1, 301)
                  if not any((f.start + k * f.step) % m == 0 for f in families for k in range(m))]
        seen = []
        monkeypatch.setattr(graphs, "admits", lambda m, apart, misses: seen.append(m))
        assert graphs.least_modulus([], [(families + [FactorialOffsets(1)], {0})], 300) is None
        assert seen == misses


def test_prime_factors():
    def trial(n):
        primes, q = set(), 2
        while q * q <= n:
            while n % q == 0:
                primes.add(q)
                n //= q
            q += 1
        return primes | ({n} if n > 1 else set())

    assert all(graphs._prime_factors(n) == trial(n) for n in range(1, 5001))
    assert graphs._prime_factors(2**61 - 1) == {2**61 - 1}
    assert graphs._prime_factors(2**89 - 1) == {2**89 - 1}
    assert graphs._prime_factors(3**40 * (2**31 - 1)**2) == {3, 2**31 - 1}
    # strong pseudoprimes to the bases 2..23 and 2..37
    assert graphs._prime_factors(3825123056546413051) == {149491, 747451, 34233211}
    assert graphs._prime_factors(318665857834031151167461) == {399165290221, 798330580441}


def test_classify_certified_verdicts_are_bound_monotone():
    cases = [
        Instance(C2, line_graph()),
        Instance(S3, line_graph()),
        Instance(S3, factorial_graph(0)),
        Instance(C2, factorial_graph(0)),
        Instance(C2, factorial_graph(1)),
        Instance(S3, TranslationGraph(("c",), {("c", "c"): (ArithmeticOffsets(2, 4),)})),
        Instance(C2, complete_z_graph()),
        Instance(S3, complete_z_graph()),
        Instance(S3, k5_cyclic()),
    ]
    for inst in cases:
        statuses = {classify(inst, bound=bound).status for bound in (1, 64, 128)}
        assert len(statuses) == 1
        assert statuses <= {RESIDUALLY_FINITE, NOT_RESIDUALLY_FINITE}


# ---------------------------------------------------------------------------
# the complete-graph view over classify


def test_classify_wreath_rows():
    assert classify_wreath(Instance(C2, complete_z_graph())).status == RESIDUALLY_FINITE
    verdict = classify_wreath(Instance(S3, complete_z_graph()))
    assert verdict.status == NOT_RESIDUALLY_FINITE
    assert verdict.witness.theorem == "T3.1"
    assert classify_wreath(Instance(S3, k5_cyclic())).status == RESIDUALLY_FINITE


CLASSICAL_COEFFICIENTS = (C2, Cyclic(5), S3, klein_table(), FreeAbelian(2))


def test_classify_wreath_agrees_with_classify():
    # status, witness and failing condition, each against Gruenberg's criterion
    rng = random.Random(27)
    fixed = [complete_z_graph(), k5_cyclic()]
    graphs = fixed + [g for _ in range(20) for g in (random_complete_translation_graph(rng),
                                                     random_permutation_graph(rng, True))]
    for graph in graphs:
        for delta in (C3,) + CLASSICAL_COEFFICIENTS:
            inst = Instance(delta, graph)
            verdict, full = classify_wreath(inst), classify(inst)
            assert (verdict.status, verdict.witness, verdict.failing_condition) == (
                full.status, full.witness, full.failing_condition), inst
            if complete_graph_rf(inst):
                assert verdict.status == RESIDUALLY_FINITE, inst
                assert verdict.witness is None and verdict.failing_condition is None, inst
            else:
                assert verdict.status == NOT_RESIDUALLY_FINITE, inst
                assert verdict.failing_condition == "condition-2", inst
                assert verdict.witness.theorem == "T3.1", inst
                assert verdict.witness.vertices == ((graph.labels[0], 0),), inst
                assert verify_witness(inst, verdict.witness), inst


def _oracle_status(rf: bool) -> str:
    return RESIDUALLY_FINITE if rf else NOT_RESIDUALLY_FINITE


def test_classify_agrees_with_the_complete_graph_oracle():
    # Gruenberg's wreath-product theorem, in both modes, with every
    # coefficient kind; classify_wreath reports the same verdicts
    rng = random.Random(157)
    for _ in range(200):
        for graph in (random_complete_translation_graph(rng), random_permutation_graph(rng, True)):
            for delta in CLASSICAL_COEFFICIENTS:
                inst = Instance(delta, graph)
                expected = _oracle_status(complete_graph_rf(inst))
                assert classify(inst).status == expected, inst
                assert classify_wreath(inst).status == expected, inst


def test_classify_agrees_with_the_edgeless_graph_oracle():
    # free products: residually finite in both modes, whatever the coefficients
    rng = random.Random(163)
    for _ in range(100):
        labels = ("a", "b", "c")[: rng.randint(1, 3)]
        for graph in (TranslationGraph(labels), random_permutation_graph(rng, False)):
            for delta in CLASSICAL_COEFFICIENTS:
                inst = Instance(delta, graph)
                assert classify(inst).status == _oracle_status(edgeless_graph_rf(inst)), inst


def test_classify_wreath_requires_complete_graph():
    with pytest.raises(GraphError):
        classify_wreath(Instance(C2, line_graph()))


# ---------------------------------------------------------------------------
# certified negatives really are universal


def test_factorial_obstruction_holds_to_one_hundred():
    fams = factorial_graph(0).families_for("c", "c")
    for m in range(1, 101):
        assert 0 in residues_of(fams, m)


def test_factorial_quotients_always_have_loops():
    graph = factorial_graph(0)
    for m in range(1, 101):
        q = quotient_graph(graph, m)
        assert q.loops == frozenset(q.vertices)


# ---------------------------------------------------------------------------
# soundness coupling: separable verdicts make separation succeed


@pytest.mark.parametrize(
    "inst",
    [Instance(C2, line_graph()), Instance(S3, line_graph()), Instance(C3, two_orbit_graph())],
    ids=["line-c2", "line-s3", "two-orbit-c3"],
)
def test_separation_succeeds_within_rule_bound(inst):
    rng = random.Random(83)
    verdict = classify(inst)
    assert verdict.status == RESIDUALLY_FINITE
    done = 0
    while done < 50:
        x = random_wreath(inst, rng, max_len=4, window=3)
        if inst.is_identity_element(x):
            continue
        done += 1
        bound = separation_bound(inst, verdict, x)
        cert = separate(inst, x, bound=bound)
        assert cert.modulus <= bound
        assert verify_certificate(inst, cert)


def test_separation_bound_covers_an_infinite_family():
    inst, _ = formats.load_instance(str(INSTANCES / "arithmetic-2-4-s3.instance"))
    verdict = classify(inst)
    assert verdict.status == RESIDUALLY_FINITE
    x = WreathElement(word(S3, [(("c", 0), (1, 0, 2)), (("c", 1), (1, 2, 0))]), 0)
    bound = separation_bound(inst, verdict, x)
    cert = separate(inst, x, bound=bound)
    assert cert.modulus == 4 <= bound
    assert verify_certificate(inst, cert)


def test_separation_succeeds_within_rule_bound_for_infinite_families():
    rng = random.Random(127)
    seen = Counter()
    while sum(seen.values()) < 100:
        graph = _random_translation_graph(rng)
        if all(f.is_finite() for fams in graph.families.values() for f in fams):
            continue
        inst = Instance(rng.choice((S3, C2)), graph)
        verdict = classify(inst)
        if verdict.status != RESIDUALLY_FINITE:
            continue
        x = random_wreath(inst, rng, max_len=4, window=3)
        if inst.is_identity_element(x):
            continue
        bound = separation_bound(inst, verdict, x)
        cert = separate(inst, x, bound=bound)
        assert cert.modulus <= min(bound, 300), (graph, x)
        assert verify_certificate(inst, cert)
        seen[type(inst.delta).__name__] += 1
    assert seen["Symmetric"] and seen["Cyclic"]


def test_separation_bound_requires_separable_verdict():
    inst = Instance(S3, factorial_graph(0))
    verdict = classify(inst)
    assert verdict.status == NOT_RESIDUALLY_FINITE
    with pytest.raises(GraphError):
        separation_bound(inst, verdict, WreathElement(inst.identity_element().word, 1))


# ---------------------------------------------------------------------------
# finite presentation


def test_fp_line_graph():
    report = check_finitely_presented(Instance(C2, line_graph()))
    assert report.finitely_presented
    assert report.vertex_orbits == 1 and report.edge_orbits == 1


def test_fp_factorial_fails_on_edge_orbits():
    report = check_finitely_presented(Instance(S3, factorial_graph(0)))
    assert not report.finitely_presented
    assert report.edge_orbits is None
    failing = [c for c in report.conditions if not c.ok]
    assert [c.name for c in failing] == ["finitely-many-orbits"]


def test_fp_complete_graph_fails():
    report = check_finitely_presented(Instance(C3, complete_z_graph()))
    assert not report.finitely_presented


def test_fp_finite_mode_holds():
    report = check_finitely_presented(Instance(S3, k5_cyclic()))
    assert report.finitely_presented
