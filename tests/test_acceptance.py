"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from gwreath import (
    Cyclic,
    EMPTY_WORD,
    Instance,
    Symmetric,
    WreathElement,
    act_word,
    canonical_form,
    check_finitely_presented,
    classify,
    classify_wreath,
    gp_invert,
    gw_compose,
    gw_invert,
    lef_certificate,
    quotient_graph,
    retract,
    separate,
    verify_certificate,
    verify_lef,
    word,
)
from gwreath.checker import NOT_RESIDUALLY_FINITE, RESIDUALLY_FINITE
from gwreath.graphs import residues_of

from tests.support import (
    all_short_words,
    bfs_trivial,
    brute_quotient,
    complete_z_graph,
    edgeless_graph,
    factorial_graph,
    k5_cyclic,
    line_graph,
    max_finite_offset,
    obstruction_spot_check,
    path3_graph,
    random_nontrivial,
    random_word,
    random_wreath,
    separation_bound,
)

C2 = Cyclic(2)
S3 = Symmetric(3)


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def _timed(limit: float):
    start = time.perf_counter()

    def finish():
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"took {elapsed:.2f}s, limit {limit}s"
        return elapsed

    return finish


def test_criterion_1_line_graph_is_separable():
    finish = _timed(1.0)
    verdict_abelian = classify(Instance(C2, line_graph()))
    assert verdict_abelian.status == RESIDUALLY_FINITE
    finish()

    finish = _timed(1.0)
    verdict = classify(Instance(S3, line_graph()))
    assert verdict.status == RESIDUALLY_FINITE
    assert verdict.cond2.per_orbit[0].modulus == 2
    finish()
    _report(1, "line graph separable for both coefficient groups, modulus 2 evidence")


def test_criterion_2_factorial_graph_witness():
    finish = _timed(1.0)
    inst = Instance(S3, factorial_graph(0))
    verdict = classify(inst)
    assert verdict.status == NOT_RESIDUALLY_FINITE
    assert verdict.witness.theorem == "T3.1"
    # the witness is the single-syllable commutator at the chosen vertex
    assert len(verdict.witness.element.word) == 1
    assert verdict.witness.vertices == (("c", 0),)
    fams = inst.graph.families_for("c", "c")
    for m in range(1, 101):
        assert 0 in residues_of(fams, m)
    assert obstruction_spot_check(fams, verdict.witness.obstruction, up_to=100)
    finish()
    _report(2, "factorial graph certified non-separable, obstruction checked to 100")


def test_criterion_3_shifted_factorial_pair_condition():
    finish = _timed(1.0)
    verdict = classify(Instance(C2, factorial_graph(1)))
    assert verdict.status == NOT_RESIDUALLY_FINITE
    assert verdict.failing_condition == "condition-3"
    assert verdict.witness.theorem == "T3.2"
    assert verdict.cond3.failing.obstruction.offset == 1
    assert verdict.cond2.per_orbit[0].modulus == 4
    finish()
    _report(3, "shifted factorial graph fails the pair condition at offset 1, modulus-4 evidence")


def test_criterion_4_complete_graph_desk_instances():
    finish = _timed(1.0)
    assert classify(Instance(C2, complete_z_graph())).status == RESIDUALLY_FINITE
    finish()
    finish = _timed(1.0)
    assert classify(Instance(S3, complete_z_graph())).status == NOT_RESIDUALLY_FINITE
    finish()
    finish = _timed(1.0)
    assert classify(Instance(S3, k5_cyclic())).status == RESIDUALLY_FINITE
    finish()
    # the complete-graph view reports the same verdicts
    assert classify_wreath(Instance(C2, complete_z_graph())).status == RESIDUALLY_FINITE
    assert classify_wreath(Instance(S3, complete_z_graph())).status == NOT_RESIDUALLY_FINITE
    assert classify_wreath(Instance(S3, k5_cyclic())).status == RESIDUALLY_FINITE
    _report(4, "complete-graph instances classified, finite stabilisers recognized")


def test_criterion_5_edgeless_graph():
    verdict = classify(Instance(S3, edgeless_graph()))
    assert verdict.status == RESIDUALLY_FINITE
    _report(5, "edgeless instance separable")


def test_criterion_6_separation_engine():
    inst = Instance(C2, line_graph())
    cert = separate(inst, WreathElement(word(C2, [(("c", 0), 1), (("c", 2), 1)]), 0))
    assert cert.modulus == 4
    assert verify_certificate(inst, cert)
    cert = separate(inst, WreathElement(EMPTY_WORD, 5))
    assert cert.modulus == 2
    assert verify_certificate(inst, cert)

    rng = random.Random(103)
    verdict = classify(inst)
    done = 0
    while done < 50:
        x = random_wreath(inst, rng, max_len=5, window=3)  # support diameter <= 6
        if inst.is_identity_element(x):
            continue
        done += 1
        cert = separate(inst, x, bound=64)
        assert cert.modulus <= 64
        assert verify_certificate(inst, cert)
        assert cert.modulus <= separation_bound(inst, verdict, x)
    _report(6, "separation pins moduli 4 and 2; 50 random elements separate and re-verify")


def test_criterion_7_word_problem_oracle_equivalence():
    finish = _timed(60.0)
    graph = path3_graph()
    total = 0
    for syllables in all_short_words(graph.vertices, [0, 1], max_len=4):
        total += 1
        fast = canonical_form(graph, C2, syllables).is_empty
        slow = bfs_trivial(graph, C2, syllables)
        assert fast == slow, f"disagreement on {syllables!r}"
    elapsed = finish()
    _report(7, f"canonical-form triviality matches the BFS oracle on {total} words in {elapsed:.1f}s")


def test_criterion_8_algebra_suites():
    rng = random.Random(107)
    cases = [Instance(C2, line_graph()), Instance(S3, k5_cyclic())]
    for inst in cases:
        graph, delta = inst.graph, inst.delta
        for _ in range(1000):
            w1 = random_word(graph, delta, rng, max_len=3, window=3)
            w2 = random_word(graph, delta, rng, max_len=3, window=3)
            w3 = random_word(graph, delta, rng, max_len=3, window=3)
            w12 = canonical_form(graph, delta, tuple(w1) + tuple(w2))
            w23 = canonical_form(graph, delta, tuple(w2) + tuple(w3))
            assert canonical_form(graph, delta, tuple(w12) + tuple(w3)) == \
                canonical_form(graph, delta, tuple(w1) + tuple(w23))
            assert canonical_form(graph, delta, tuple(w1) + tuple(EMPTY_WORD)) == \
                canonical_form(graph, delta, w1)
            inverse = gp_invert(graph, delta, w1)
            assert canonical_form(graph, delta, tuple(w1) + tuple(inverse)) == EMPTY_WORD
        for _ in range(1000):
            x = random_wreath(inst, rng, max_len=2, window=3)
            y = random_wreath(inst, rng, max_len=2, window=3)
            z = random_wreath(inst, rng, max_len=2, window=3)
            assert gw_compose(inst, gw_compose(inst, x, y), z) == gw_compose(inst, x, gw_compose(inst, y, z))
            assert gw_compose(inst, x, gw_invert(inst, x)) == inst.identity_element()

    # the action laws: composition, and action by automorphisms
    inst = Instance(S3, line_graph())
    graph, delta = inst.graph, inst.delta
    for _ in range(500):
        g1, g2 = rng.randint(-5, 5), rng.randint(-5, 5)
        w1 = random_word(graph, delta, rng, max_len=3, window=3)
        w2 = random_word(graph, delta, rng, max_len=3, window=3)
        assert act_word(graph, delta, g1 + g2, w1) == \
            act_word(graph, delta, g1, act_word(graph, delta, g2, w1))
        moved = tuple(act_word(graph, delta, g1, w1)) + tuple(act_word(graph, delta, g1, w2))
        assert act_word(graph, delta, g1, canonical_form(graph, delta, tuple(w1) + tuple(w2))) == \
            canonical_form(graph, delta, moved)

    # retraction after inclusion is the identity on the subgraph's words
    keep = {("c", 0), ("c", 1), ("c", 3)}
    pool = sorted(keep)
    for _ in range(500):
        sylls = [
            (rng.choice(pool), random_nontrivial(delta, rng))
            for _ in range(rng.randint(0, 4))
        ]
        w = word(delta, sylls) if sylls else EMPTY_WORD
        assert retract(graph, delta, w, keep) == canonical_form(graph, delta, w)
    _report(8, "group, extension, action, and retraction laws hold on all sampled cases")


def test_criterion_9_quotient_graphs():
    line = line_graph()
    q3 = quotient_graph(line, 3)
    assert len(q3.vertices) == 3 and len(q3.edges) == 3 and not q3.loops
    assert (set(q3.edges), set(q3.loops)) == tuple(map(set, brute_quotient(line, 3)))

    q2 = quotient_graph(line, 2)
    assert len(q2.vertices) == 2 and len(q2.edges) == 1 and not q2.loops
    assert (set(q2.edges), set(q2.loops)) == tuple(map(set, brute_quotient(line, 2)))

    fact = factorial_graph(0)
    q4 = quotient_graph(fact, 4)
    assert len(q4.vertices) == 4 and len(q4.edges) == 6
    assert q4.loops == frozenset(q4.vertices)
    edges, loops = brute_quotient(fact, 4, window=40)
    assert q4.edges == frozenset(edges) and q4.loops == frozenset(loops)
    _report(9, "quotients: triangle, single edge, complete-with-loops, all brute-force checked")


def test_criterion_10_lef_certificates():
    graph = factorial_graph(0)
    gammas, vertices = [0, 1], [("c", 0), ("c", 1), ("c", 2)]
    cert = lef_certificate(graph, gammas, vertices)
    assert cert.q_spec == Cyclic(5)
    assert verify_lef(cert, graph, gammas, vertices)

    rng = random.Random(109)
    line = line_graph()
    produced = 0
    while produced < 50:
        a_set = sorted({rng.randint(0, 6) for _ in range(rng.randint(1, 3))})
        diameter = rng.randint(0, 8)
        positions = {0, diameter} | {rng.randint(0, diameter) for _ in range(2)}
        e_set = [("c", p) for p in positions]
        produced += 1
        rule = max(a_set) + max_finite_offset(line) + diameter + 1
        cert = lef_certificate(line, a_set, e_set)
        assert cert.truncation.modulus <= rule
        assert verify_lef(cert, line, a_set, e_set)
    _report(10, "finite model at modulus 5 verifies; 50 random models within the documented rule")


def test_criterion_11_finite_presentation():
    assert check_finitely_presented(Instance(C2, line_graph())).finitely_presented
    report = check_finitely_presented(Instance(S3, factorial_graph(0)))
    assert not report.finitely_presented and report.edge_orbits is None
    report = check_finitely_presented(Instance(Cyclic(3), complete_z_graph()))
    assert not report.finitely_presented and report.edge_orbits is None
    _report(11, "finite presentation decided by edge-orbit finiteness on all three instances")
