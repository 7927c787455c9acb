import copy
import pathlib
import pickle
import random
import tracemalloc
from collections import Counter

import pytest

from gwreath import (
    ArithmeticOffsets,
    Cyclic,
    EMPTY_WORD,
    FiniteModeGraph,
    FiniteOffsets,
    GraphError,
    GroupError,
    IdentityElement,
    Instance,
    LoopObstruction,
    SearchExhausted,
    Symmetric,
    Syllable,
    TranslationGraph,
    WitnessError,
    Word,
    WordError,
    WreathElement,
    act_word,
    canonical_form,
    certificate_map,
    gw_compose,
    gw_invert,
    orbit_counts,
    quotient_graph,
    restrict_orbits,
    retract,
    separate,
    verify_certificate,
    verify_witness,
    witness,
    word,
)
from gwreath import formats, graphs, words, wreath
from gwreath.graphs import enumerate_subgroups

from tests.support import (
    brute_separating_modulus,
    complete_z_graph,
    counting_spec,
    cycle_graph,
    factorial_graph,
    k5_cyclic,
    ladder_graph,
    line_graph,
    obstruction_spot_check,
    prime_cycles_graph,
    random_word,
    random_nontrivial,
    random_translation_graph,
    random_wreath,
    reference_canonical_form,
    reference_first_candidate,
    reference_gw_compose,
    reference_gw_invert,
    replace,
    torus_graph,
    two_orbit_graph,
)

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"

C2 = Cyclic(2)
C3 = Cyclic(3)
S3 = Symmetric(3)


def line_instance(delta=C2):
    return Instance(delta, line_graph())


def fact_instance(shift=0, delta=S3):
    return Instance(delta, factorial_graph(shift))


# ---------------------------------------------------------------------------
# the action on words


def test_act_word_identity():
    inst = line_instance()
    w = word(C2, [(("c", 2), 1), (("c", 0), 1)])
    assert act_word(inst.graph, C2, 0, w) == canonical_form(inst.graph, C2, w)


def test_act_word_translates_indices():
    inst = line_instance()
    w = word(C2, [(("c", 0), 1), (("c", 1), 1)])
    moved = act_word(inst.graph, C2, 2, w)
    assert [s.vertex for s in moved] == [("c", 2), ("c", 3)]


def test_act_word_is_an_action():
    inst = Instance(C3, two_orbit_graph())
    rng = random.Random(53)
    for _ in range(500):
        g1, g2 = rng.randint(-6, 6), rng.randint(-6, 6)
        w = random_word(inst.graph, C3, rng, max_len=4)
        lhs = act_word(inst.graph, C3, g1 + g2, w)
        rhs = act_word(inst.graph, C3, g1, act_word(inst.graph, C3, g2, w))
        assert lhs == rhs


def test_act_word_by_automorphisms():
    inst = line_instance(S3)
    rng = random.Random(59)
    for _ in range(500):
        g = rng.randint(-6, 6)
        w1 = random_word(inst.graph, S3, rng, max_len=3)
        w2 = random_word(inst.graph, S3, rng, max_len=3)
        lhs = act_word(inst.graph, S3, g, canonical_form(inst.graph, S3, tuple(w1) + tuple(w2)))
        rhs = canonical_form(
            inst.graph, S3,
            tuple(act_word(inst.graph, S3, g, w1)) + tuple(act_word(inst.graph, S3, g, w2)),
        )
        assert lhs == rhs


def test_act_word_resolves_one_permutation_per_call(monkeypatch):
    graph = torus_graph(8)
    rng = random.Random(61)
    w = Word(
        tuple(
            Syllable(rng.choice(graph.vertices), random_nontrivial(S3, rng))
            for _ in range(64)
        )
    )
    gamma = (3, -2)
    expected = canonical_form(
        graph, S3, [Syllable(graph.act(gamma, s.vertex), s.value) for s in w]
    )

    calls = _count_closures(monkeypatch)
    perm_of = FiniteModeGraph.perm_of

    def counted_perm_of(self, g):
        calls["perm_of"] += 1
        return perm_of(self, g)

    monkeypatch.setattr(FiniteModeGraph, "perm_of", counted_perm_of)
    assert act_word(graph, S3, gamma, w) == expected
    assert calls == Counter({"perm_of": 1})  # and no closure


def test_word_operations_build_no_image_table_on_a_large_image(monkeypatch):
    graph = prime_cycles_graph()
    inst = Instance(S3, graph)
    calls = _count_closures(monkeypatch)
    rng = random.Random(67)
    x = WreathElement(random_word(graph, S3, rng, 12), (30031,))
    y = WreathElement(random_word(graph, S3, rng, 12), (-4,))
    assert graph.perm_of((30030,)) == graph.vertices
    assert graph.perm_of((30031,)) == graph.perm_of((1,))
    assert gw_compose(inst, x, gw_invert(inst, x)) == inst.normalize(WreathElement(EMPTY_WORD, (0,)))
    assert gw_compose(inst, x, y) == reference_gw_compose(inst, x, y)
    assert act_word(graph, S3, (-1,), act_word(graph, S3, (1,), y.word)) == inst.normalize(y).word
    assert not calls


def test_orbit_counts_restriction_and_quotients_close_no_group(monkeypatch):
    # orbits come from the generators' steps: on an image of order 30030
    # none of these lists an element or builds the subgroup table
    graph = prime_cycles_graph()
    calls = _count_closures(monkeypatch)
    assert orbit_counts(graph) == (6, 6)
    x = WreathElement(word(S3, [(0, (1, 0, 2)), (2, (1, 2, 0))]), (1,))
    sub, _ = restrict_orbits(Instance(S3, graph), x)
    assert sub.graph.vertices == (0, 1, 2, 3, 4)
    q = quotient_graph(graph, [(2,)])  # fixes the 2-cycle, rotates every odd one
    assert q.vertices == (0, 1, 2, 5, 10, 17, 28)
    assert q.edges == {(0, 1)}
    assert q.loops == {2, 5, 10, 17, 28}
    assert not calls
    assert "_subgroups" not in vars(graph)


def test_finite_mode_gamma_is_checked_at_the_boundary():
    inst = Instance(S3, torus_graph(3))
    x = WreathElement(word(S3, [(0, (1, 0, 2))]), (1.5, 0))
    with pytest.raises(GroupError):
        inst.normalize(x)
    with pytest.raises(GroupError):
        gw_compose(inst, x, x)
    with pytest.raises(GroupError):
        gw_invert(inst, x)


def test_finite_mode_quotient_carries_no_acting_group():
    with pytest.raises(GraphError):
        Instance(S3, quotient_graph(torus_graph(3), [(1, 0)]))


def test_act_word_validates_gamma_and_vertices():
    graph = torus_graph(3)
    w = Word((Syllable(0, (1, 0, 2)),))
    with pytest.raises(GroupError):
        act_word(graph, S3, (1,), w)
    with pytest.raises(GroupError):
        act_word(graph, S3, (1.0, 0), w)
    with pytest.raises(WordError):
        act_word(graph, S3, (1, 0), Word((Syllable(99, (1, 0, 2)),)))
    with pytest.raises(WordError):
        act_word(line_graph(), C2, 1, Word((Syllable(("x", 0), 1),)))
    with pytest.raises(GroupError):  # it would move ("c", 0) to ("c", 1.0), not a vertex
        act_word(line_graph(), C2, 1.0, Word((Syllable(("c", 0), 1),)))


# (graph, a vertex, a gamma of its acting group, gammas outside it)
BAD_GAMMAS = {
    "line": (line_graph(), ("c", 0), 1, [1.5, (1, 0), (1.5,)]),
    "torus": (torus_graph(3), 0, (1, 0), [1.5, 1, (1,), (1, 0, 0), (1.5, 0)]),
    "quotient": (quotient_graph(line_graph(), 4), ("c", 0), 1, [1.5, (1, 0), (1.5,)]),
}

# Each entry point, called with the instance, an element with a bad gamma and a vertex.
GAMMA_ENTRY_POINTS = {
    "normalize": lambda inst, x, v: inst.normalize(x),
    "is_identity_element": lambda inst, x, v: inst.is_identity_element(x),
    "separate": lambda inst, x, v: separate(inst, x),
    "gw_compose-left": lambda inst, x, v: gw_compose(inst, x, inst.identity_element()),
    "gw_compose-right": lambda inst, x, v: gw_compose(inst, inst.identity_element(), x),
    "gw_invert": lambda inst, x, v: gw_invert(inst, x),
    "act_word": lambda inst, x, v: act_word(inst.graph, inst.delta, x.gamma, x.word),
    "act": lambda inst, x, v: inst.graph.act(x.gamma, v),
    "action": lambda inst, x, v: inst.graph.action(x.gamma),
    "perm_of": lambda inst, x, v: inst.graph.perm_of(x.gamma),
}


@pytest.mark.parametrize("graph_name, entry", [
    (name, entry) for name, (graph, *_) in BAD_GAMMAS.items() for entry in GAMMA_ENTRY_POINTS
    if entry != "perm_of" or isinstance(graph, FiniteModeGraph)  # only it has permutations
])
def test_a_bad_gamma_is_a_group_error_at_every_entry_point(graph_name, entry):
    graph, v, _, gammas = BAD_GAMMAS[graph_name]
    inst = Instance(S3, graph)
    for gamma in gammas:
        x = WreathElement(word(S3, [(v, (1, 0, 2))]), gamma)
        with pytest.raises(GroupError, match="is not an element of"):
            GAMMA_ENTRY_POINTS[entry](inst, x, v)


@pytest.mark.parametrize("graph_name", ["line", "torus"])
def test_a_certificate_with_a_bad_gamma_does_not_verify(graph_name):
    graph, v, gamma, gammas = BAD_GAMMAS[graph_name]
    inst = Instance(S3, graph)
    cert = separate(inst, WreathElement(word(S3, [(v, (1, 0, 2))]), gamma))
    assert verify_certificate(inst, cert)
    for bad in gammas:
        assert not verify_certificate(inst, replace(cert, element=WreathElement(cert.element.word, bad)))


# ---------------------------------------------------------------------------
# semidirect arithmetic


def test_gw_identity_law():
    inst = line_instance()
    x = WreathElement(word(C2, [(("c", 0), 1)]), 3)
    product = gw_compose(inst, x, inst.identity_element())
    assert product == inst.normalize(x)


def test_gw_compose_twists_right_word():
    inst = line_instance()
    a0 = word(C2, [(("c", 0), 1)])
    x = WreathElement(a0, 1)
    y = WreathElement(a0, -1)
    z = gw_compose(inst, x, y)
    assert z.gamma == 0
    assert [s.vertex for s in z.word] == [("c", 0), ("c", 1)]


def test_gw_inverse_law_sampled():
    inst = Instance(S3, two_orbit_graph())
    rng = random.Random(61)
    for _ in range(500):
        x = random_wreath(inst, rng, max_len=4)
        assert gw_compose(inst, x, gw_invert(inst, x)) == inst.identity_element()
        assert gw_compose(inst, gw_invert(inst, x), x) == inst.identity_element()


def test_gw_associativity_sampled():
    inst = line_instance(C3)
    rng = random.Random(67)
    for _ in range(1000):
        x = random_wreath(inst, rng, max_len=3)
        y = random_wreath(inst, rng, max_len=3)
        z = random_wreath(inst, rng, max_len=3)
        assert gw_compose(inst, gw_compose(inst, x, y), z) == gw_compose(
            inst, x, gw_compose(inst, y, z)
        )


def test_conjugation_moves_the_word():
    inst = line_instance(S3)
    rng = random.Random(71)
    for _ in range(200):
        g = rng.randint(-5, 5)
        w = random_word(inst.graph, S3, rng, max_len=4)
        conj = gw_compose(
            inst,
            gw_compose(inst, WreathElement(EMPTY_WORD, g), WreathElement(w, 0)),
            WreathElement(EMPTY_WORD, -g),
        )
        assert conj.gamma == 0
        assert conj.word == act_word(inst.graph, S3, g, w)


def test_commutator_collapses_on_adjacent_translates():
    # moving a vertex inside its own neighbourhood kills the commutator
    inst = fact_instance(0, S3)
    graph = inst.graph
    g, h = (1, 0, 2), (2, 1, 0)
    for k in (1, 2, 6, 24):  # translates landing in the neighbourhood
        v, kv = ("c", 0), ("c", k)
        assert graph.adjacent(v, kv)
        commutator = [
            Syllable(v, g),
            Syllable(kv, h),
            Syllable(v, S3.invert(g)),
            Syllable(kv, S3.invert(h)),
        ]
        assert canonical_form(graph, S3, commutator) == EMPTY_WORD


# ---------------------------------------------------------------------------
# witnesses


def test_witness_factorial_commutator():
    inst = fact_instance(0, S3)
    wit = witness(inst, "T3.1", [("c", 0)], [(1, 0, 2), (2, 1, 0)])
    assert wit.theorem == "T3.1"
    assert len(wit.element.word) == 1
    assert wit.element.gamma == 0
    assert wit.obstruction.lemma == "factorial-zero"
    families = inst.graph.families_for("c", "c")
    assert obstruction_spot_check(families, wit.obstruction, up_to=100)
    assert verify_witness(inst, wit)


def test_witness_picks_noncommuting_pair_automatically():
    inst = fact_instance(0, S3)
    wit = witness(inst, "T3.1", [("c", 0)])
    a, b = wit.delta_elements
    assert S3.compose(a, b) != S3.compose(b, a)


def test_witness_shifted_factorial_pair():
    inst = fact_instance(1, C2)
    wit = witness(inst, "T3.2", [("c", 0), ("c", 1)])
    assert wit.theorem == "T3.2"
    assert len(wit.element.word) == 4
    assert wit.obstruction.lemma == "factorial-shift"
    assert wit.obstruction.offset == 1
    assert verify_witness(inst, wit)


def test_verify_witness_compares_the_whole_obstruction():
    inst = fact_instance(1, S3)
    wit = witness(inst, "T3.2", [("c", 0), ("c", 1)])
    assert verify_witness(inst, wit)
    proof = wit.obstruction
    # the arithmetic-step lemma for offset 1 over another family
    step = wreath.certify_offset_always([ArithmeticOffsets(3, 4)], ("c", "c"), 1)
    for tampered in (
        replace(proof, lemma=step.lemma, family=step.family, statement=step.statement),
        replace(proof, lemma=step.lemma),
        replace(proof, family=step.family),
        replace(proof, offset=-1),  # -1 is hit modulo every m as well, but is not this pair's
        replace(proof, statement=step.statement),
    ):
        assert not verify_witness(inst, replace(wit, obstruction=tampered)), tampered


def test_witness_requires_noncommuting_delta():
    inst = fact_instance(0, C2)
    with pytest.raises(WitnessError):
        witness(inst, "T3.1", [("c", 0)])


def test_witness_rejects_commuting_pair():
    inst = fact_instance(0, S3)
    with pytest.raises(WitnessError):
        witness(inst, "T3.1", [("c", 0)], [(1, 0, 2), (1, 0, 2)])


def test_witness_t32_rejects_adjacent_or_equal_vertices():
    inst = fact_instance(1, C2)
    with pytest.raises(WitnessError):
        witness(inst, "T3.2", [("c", 0), ("c", 0)])
    with pytest.raises(WitnessError):
        witness(inst, "T3.2", [("c", 0), ("c", 2)])  # offset 2 = 1 + 1! is an edge


def test_witness_t32_needs_a_lemma():
    inst = line_instance()
    with pytest.raises(WitnessError):
        witness(inst, "T3.2", [("c", 0), ("c", 5)])


@pytest.mark.parametrize(
    "delta, shift, kind, vertices, elements, message",
    [
        (S3, None, "T3.1", [("c", 0)], None, "no built-in lemma shows the orbit"),
        (C2, 0, "T3.2", [("c", 0)], None, "takes exactly two vertices"),
        (Cyclic(1), 0, "T3.2", [("c", 0), ("c", 3)], None, "coefficient group is trivial"),
        (S3, 0, "T3.1", [("c", 0)], [(1, 0, 2)], "takes two coefficient elements"),
        (C2, 0, "T3.2", [("c", 0), ("c", 3)], [1, 1], "takes one coefficient element"),
        (C2, 0, "T3.2", [("c", 0), ("c", 3)], [0], "must be nontrivial"),
    ],
    ids=["T3.1-no-lemma", "T3.2-one-vertex", "trivial-delta", "T3.1-one-element",
         "T3.2-two-elements", "identity-element"],
)
def test_witness_refusals(delta, shift, kind, vertices, elements, message):
    # shift None: the line graph, whose offsets miss 0 modulo 2
    inst = line_instance(delta) if shift is None else fact_instance(shift, delta)
    with pytest.raises(WitnessError, match=message):
        witness(inst, kind, vertices, elements)


def test_witness_t33_never_certifiable():
    inst = line_instance()
    with pytest.raises(WitnessError):
        witness(inst, "T3.3", [("c", 0), ("c", 3)])


def test_witness_finite_mode_never_certifiable():
    inst = Instance(S3, k5_cyclic())
    with pytest.raises(WitnessError):
        witness(inst, "T3.1", [0])


def test_witness_arithmetic_zero_lemma():
    inst = Instance(S3, complete_z_graph())
    wit = witness(inst, "T3.1", [("c", 0)])
    assert wit.obstruction.lemma == "arithmetic-zero"
    assert obstruction_spot_check(
        inst.graph.families_for("c", "c"), wit.obstruction, up_to=100
    )


# ---------------------------------------------------------------------------
# orbit restriction


def test_restrict_orbits_single_orbit_unchanged():
    inst = line_instance()
    x = WreathElement(word(C2, [(("c", 0), 1)]), 2)
    sub, y = restrict_orbits(inst, x)
    assert sub.graph.labels == ("c",)
    assert y == inst.normalize(x)


def test_restrict_orbits_drops_unused_orbit():
    inst = Instance(C2, two_orbit_graph())
    x = WreathElement(word(C2, [(("a", 0), 1), (("a", 3), 1)]), 1)
    sub, y = restrict_orbits(inst, x)
    assert sub.graph.labels == ("a",)
    assert ("a", "a") in sub.graph.families
    assert ("a", "b") not in sub.graph.families
    assert y.word == inst.normalize(x).word


def test_restrict_orbits_empty_support_keeps_gamma():
    inst = Instance(C2, two_orbit_graph())
    x = WreathElement(EMPTY_WORD, 5)
    sub, y = restrict_orbits(inst, x)
    assert sub.graph.labels == ()
    assert y.gamma == 5 and y.word.is_empty


def test_restrict_orbits_finite_mode():
    # two rotation-invariant components: a triangle and two isolated points
    from gwreath import FiniteModeGraph

    graph = FiniteModeGraph(
        (0, 1, 2, 3, 4),
        frozenset({(0, 1), (1, 2), (0, 2)}),
        ((1, 2, 0, 4, 3),),  # rotate the triangle, swap the points
    )
    inst = Instance(C2, graph)
    x = WreathElement(word(C2, [(0, 1)]), (0,))
    sub, y = restrict_orbits(inst, x)
    assert sub.graph.vertices == (0, 1, 2)
    assert len(sub.graph.edges) == 3
    assert sub.graph.generators == ((1, 2, 0),)
    sub, _ = restrict_orbits(inst, WreathElement(word(C2, [(3, 1)]), (0,)))
    assert sub.graph.vertices == (3, 4)
    assert sub.graph.generators == ((4, 3),)


# ---------------------------------------------------------------------------
# separation


def test_separate_two_step_word_needs_modulus_four():
    inst = line_instance()
    x = WreathElement(word(C2, [(("c", 0), 1), (("c", 2), 1)]), 0)
    cert = separate(inst, x)
    assert cert.modulus == 4
    assert not cert.word_image.is_empty
    assert verify_certificate(inst, cert)
    # the smaller candidates genuinely fail: 2 merges the support,
    # 3 creates an edge between the images
    with pytest.raises(SearchExhausted):
        separate(inst, x, bound=3)


def test_separate_pure_translation_element():
    inst = line_instance()
    cert = separate(inst, WreathElement(EMPTY_WORD, 5))
    assert cert.modulus == 2
    assert cert.gamma_image == 1
    assert cert.word_image.is_empty
    assert verify_certificate(inst, cert)


def test_separate_rejects_identity():
    inst = line_instance()
    with pytest.raises(IdentityElement):
        separate(inst, inst.identity_element())


def test_separate_search_exhausted_is_distinct():
    inst = line_instance()
    with pytest.raises(SearchExhausted) as info:
        separate(inst, WreathElement(EMPTY_WORD, 6), bound=1)
    assert info.value.bound == 1


def test_separate_single_syllable_uses_modulus_one():
    inst = line_instance()
    cert = separate(inst, WreathElement(word(C2, [(("c", 3), 1)]), 0))
    assert cert.modulus == 1
    assert len(cert.word_image) == 1


def test_separate_nonabelian_avoids_loops():
    # with non-abelian coefficients the quotient must stay loop-free,
    # which rules out moduli whose residues contain 0
    graph = two_orbit_graph()
    inst = Instance(S3, graph)
    x = WreathElement(word(S3, [(("a", 0), (1, 0, 2))]), 0)
    cert = separate(inst, x)
    assert cert.checks.loops_clear is True
    assert not cert.quotient.loops
    assert verify_certificate(inst, cert)


def test_separate_random_elements_reverify():
    rng = random.Random(73)
    inst = line_instance()
    for _ in range(60):
        x = random_wreath(inst, rng, max_len=4, window=3)
        if inst.is_identity_element(x):
            continue
        cert = separate(inst, x, bound=64)
        assert cert.checks.all_pass()
        assert verify_certificate(inst, cert)


def _certificate_document(name, element):
    inst, elements = formats.load_instance(str(INSTANCES / name))
    cert = separate(inst, elements[element])
    return inst, cert, "\n".join(formats.certificate_lines(inst, cert)) + "\n"


def _verifies(inst, text):
    _, record = formats.parse_structured(text)
    return verify_certificate(inst, formats.certificate_from_record(inst, record))


def test_verify_certificate_rejects_tampering():
    inst = line_instance()
    x = WreathElement(word(C2, [(("c", 0), 1), (("c", 2), 1)]), 0)
    cert = separate(inst, x)
    inflated = replace(cert, modulus=5)
    assert not verify_certificate(inst, inflated)
    swapped = replace(cert, word_image=EMPTY_WORD)
    assert not verify_certificate(inst, swapped)
    mismatched = replace(cert, kind="image-subgroup", subgroup_perms=((0, 1),))
    assert not verify_certificate(inst, mismatched)

    # every field is compared with the certificate rebuilt from scratch
    inst, cert, text = _certificate_document("ex11.instance", "w1")
    assert _verifies(inst, text)
    assert not verify_certificate(inst, replace(cert, restricted=(0, 1)))
    assert not verify_certificate(inst, replace(cert, restricted=("zz",)))
    assert not verify_certificate(inst, replace(cert, modulus=0))
    assert not _verifies(inst, text.replace("quotient.modulus 4", "quotient.modulus 5"))
    relabelled = copy.copy(cert.quotient)
    relabelled.labels = ("c", "zz")
    assert not verify_certificate(inst, replace(cert, quotient=relabelled))

    inst, cert, text = _certificate_document("finite5-s3.instance", "w1")
    assert _verifies(inst, text)
    assert not _verifies(inst, text.replace("quotient.orbit 1 1\n", "quotient.orbit 1 1 7 9\n"))
    # a generator alone is not the subgroup it generates
    assert not _verifies(inst, text.replace("subgroup.perm 0,1,2,3,4", "subgroup.perm 1,2,3,4,0"))


@pytest.mark.parametrize("modulus", [10**6, 10**9])
def test_verify_certificate_rejects_a_huge_modulus_without_building_it(modulus):
    # the rebuilt quotient would have |labels| * m vertices against the
    # document's few, so no residues and no quotient are built
    inst, _, text = _certificate_document("ex11.instance", "w1")
    edits = [
        text.replace("subgroup.modulus 4", f"subgroup.modulus {modulus}"),
        text.replace("subgroup.modulus 4", f"subgroup.modulus {modulus}")
        .replace("quotient.modulus 4", f"quotient.modulus {modulus}"),
    ]
    tracemalloc.start()
    try:
        for edited in edits:
            assert edited != text
            assert not _verifies(inst, edited)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_verify_certificate_short_perm_is_false():
    inst, _, text = _certificate_document("finite5-s3.instance", "w1")
    assert not _verifies(inst, text.replace("subgroup.perm 0,1,2,3,4", "subgroup.perm 0,1"))


def test_verify_certificate_perm_outside_image_is_false():
    inst, _, text = _certificate_document("finite5-s3.instance", "w1")
    swap = "subgroup.perm 0,1,2,3,4\nsubgroup.perm 1,0,2,3,4"
    assert not _verifies(inst, text.replace("subgroup.perm 0,1,2,3,4", swap))
    assert not _verifies(inst, text.replace("subgroup.perm 0,1,2,3,4", "subgroup.perm 1,0,2,3,4"))


def _count_quotients(monkeypatch):
    """Count the quotient builds of ``wreath``: ``quotient_graph`` for a
    modulus, ``_orbit_quotient`` for a subgroup of a finite image."""
    calls = Counter()
    for name in ("quotient_graph", "_orbit_quotient"):
        build = getattr(wreath, name)

        def counted(*args, name=name, build=build):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(wreath, name, counted)
    return calls


def test_separate_builds_one_quotient(monkeypatch):
    calls = _count_quotients(monkeypatch)
    # 1..6 all divide 60 and merge the support, so six moduli are rejected first
    cert = separate(line_instance(), WreathElement(word(C2, [(("c", 0), 1), (("c", 60), 1)]), 0))
    assert cert.modulus == 7
    assert calls == Counter({"quotient_graph": 1})
    calls.clear()
    cert = separate(Instance(S3, torus_graph(4)), WreathElement(word(S3, [(0, (1, 0, 2))]), (1, 0)))
    assert cert.kind == "image-subgroup"
    assert calls == Counter({"_orbit_quotient": 1})


def _count_closures(monkeypatch):
    """Calls of ``graphs._closure``, which builds the image and each
    subgroup, counted by the vertex tuple they close over."""
    calls = Counter()
    closure = graphs._closure

    def counted(vertices, *args):
        calls[vertices] += 1
        return closure(vertices, *args)

    monkeypatch.setattr(graphs, "_closure", counted)
    return calls


def test_separate_and_verify_build_one_image_table(monkeypatch):
    # one image and one subgroup list, read by both
    calls = _count_closures(monkeypatch)
    enumerate_subgroups(torus_graph(6))
    one_list = calls.total()
    calls.clear()
    inst = Instance(S3, torus_graph(6))
    x = WreathElement(word(S3, [(0, (1, 0, 2)), (7, (0, 2, 1))]), (1, 2))
    cert = separate(inst, x)
    assert cert.kind == "image-subgroup"
    assert verify_certificate(inst, cert)
    assert calls == Counter({inst.graph.vertices: one_list})


def test_restricted_separation_builds_only_the_ambient_image_table(monkeypatch):
    # two triangles, only the first rotated: the support at vertex 0 keeps
    # the first triangle, whose quotient is read off the ambient orbit map
    edges = frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)})
    inst = Instance(S3, FiniteModeGraph(tuple(range(6)), edges, ((1, 2, 0, 3, 4, 5),)))
    calls = _count_closures(monkeypatch)
    enumerate_subgroups(replace(inst.graph))  # a copy, with its own subgroup list
    one_list = calls.total()
    calls.clear()
    cert = separate(inst, WreathElement(word(S3, [(0, (1, 0, 2))]), (0,)))
    assert cert.restricted == cert.quotient.vertices == (0, 1, 2)
    assert verify_certificate(inst, cert)
    assert calls == Counter({inst.graph.vertices: one_list})
    # the trivial subgroup; its orbit lines cover the kept triangle only
    assert formats.certificate_lines(inst, cert) == [
        "gwreath v1 separation-certificate",
        "element.word 0=1,0,2",
        "element.gamma 0",
        "subgroup.kind image-subgroup",
        "subgroup.perm 0,1,2,3,4,5",
        "restricted 0 1 2",
        "quotient.kind finite",
        "quotient.orbit 0 0",
        "quotient.orbit 1 1",
        "quotient.orbit 2 2",
        "quotient.vertex 0",
        "quotient.vertex 1",
        "quotient.vertex 2",
        "quotient.edge 0|1",
        "quotient.edge 0|2",
        "quotient.edge 1|2",
        "quotient.lift 0 0",
        "quotient.lift 1 1",
        "quotient.lift 2 2",
        "image.gamma-coset trivial",
        "image.word 0=1,0,2",
        "check.gamma-injective pass",
        "check.induced-isomorphism pass",
        "check.loops-clear pass",
        "check.image-nontrivial pass",
    ]


def test_separate_and_verify_on_a_large_image_keep_a_small_memory_peak():
    # image order 2310 on 28 vertices: each subgroup is closed from a
    # lattice basis, with no table of |image|^2 products
    inst = Instance(S3, prime_cycles_graph((2, 3, 5, 7, 11)))
    x = WreathElement(word(S3, [(0, (1, 0, 2)), (17, (1, 2, 0))]), (0,))
    tracemalloc.start()
    try:
        cert = separate(inst, x)
        assert verify_certificate(inst, cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_exhausted_separate_builds_no_quotient(monkeypatch):
    calls = _count_quotients(monkeypatch)
    x = WreathElement(word(S3, [(("c", 0), (1, 0, 2)), (("c", 3), (0, 2, 1))]), 0)
    with pytest.raises(SearchExhausted):
        separate(fact_instance(0), x, bound=256)
    assert calls["quotient_graph"] == 0


def test_separate_picks_the_first_candidate_whose_quotient_passes():
    # the support-only checks accept exactly the candidates whose whole
    # quotient graph passes, so the search picks the same one
    rng = random.Random(83)
    bound = 24
    cases = [
        line_graph(), two_orbit_graph(), factorial_graph(1), factorial_graph(0),
        torus_graph(3), k5_cyclic(), cycle_graph(6),
    ]
    for graph in cases:
        for delta in (C2, S3):
            inst = Instance(delta, graph)
            translation = isinstance(graph, graphs.TranslationGraph)
            candidates = range(1, bound + 1) if translation else enumerate_subgroups(graph)
            for _ in range(8):
                x = random_wreath(inst, rng, max_len=4, window=4)
                if inst.is_identity_element(x):
                    continue
                expected = reference_first_candidate(inst, x, candidates)
                try:
                    cert = separate(inst, x, bound=bound)
                except SearchExhausted:
                    assert expected is None
                    continue
                chosen = cert.modulus if translation else cert.subgroup_perms
                assert expected is not None and candidates[expected] == chosen
                assert verify_certificate(inst, cert)


def test_translation_separate_matches_a_brute_force_scan():
    # beside finite families, arithmetic and factorial ones: the modulus
    # is the least of 1..bound that separates by the definitions, and the
    # search is exhausted at bound exactly when none does
    rng, memo, seen = random.Random(311), {}, Counter()
    for _ in range(400):
        inst = Instance(rng.choice((C2, S3)), random_translation_graph(rng))
        x = random_wreath(inst, rng, max_len=4, window=6)
        if inst.is_identity_element(x):
            continue
        bound = rng.choice((6, 24, 60))
        expected = brute_separating_modulus(inst, x, bound, memo)
        try:
            cert = separate(inst, x, bound=bound)
        except SearchExhausted as exhausted:
            assert (expected, exhausted.bound) == (None, bound), (inst, x, bound)
            seen["exhausted"] += 1
            continue
        assert cert.modulus == expected, (inst, x, bound)
        assert verify_certificate(inst, cert)
        if cert.modulus > 2:  # count the family kinds among the support's labels
            labels = {c for c, _ in x.word.vertices()}
            seen.update({type(f).__name__ for pair, fams in inst.graph.families.items()
                         if set(pair) <= labels for f in fams})
    assert min(seen[key] for key in ("exhausted", "ArithmeticOffsets", "FactorialOffsets")) >= 20, seen


def test_separate_asks_only_the_multiples_of_a_prime_step(monkeypatch):
    # offset 5 and, with S3, offset 0 miss arithmetic 1 10007 modulo m only
    # when 10007 divides m; 10012 = 5 modulo 10007, so 20014 is the least
    graph = TranslationGraph(("c",), {("c", "c"): (ArithmeticOffsets(1, 10007),
                                                   FiniteOffsets(frozenset({10012})))})
    inst = Instance(S3, graph)
    x = WreathElement(word(S3, [(("c", 0), (1, 0, 2)), (("c", 5), (0, 2, 1))]), 0)
    seen, admits = [], graphs.admits
    monkeypatch.setattr(graphs, "admits",
                        lambda m, apart, misses: seen.append(m) or admits(m, apart, misses))
    with pytest.raises(SearchExhausted):
        separate(inst, x, bound=10006)
    assert seen == []
    cert = separate(inst, x, bound=3 * 10007)
    assert (cert.modulus, seen) == (20014, [10007, 20014])
    assert verify_certificate(inst, cert)


def test_certificate_map_is_homomorphism():
    rng = random.Random(79)
    inst = line_instance(C3)
    x = WreathElement(word(C3, [(("c", 0), 1), (("c", 2), 2)]), 0)
    cert = separate(inst, x)
    phi = certificate_map(inst, cert)
    target = Instance(inst.delta, cert.quotient)
    for _ in range(200):
        y1 = random_wreath(inst, rng, max_len=3, window=3)
        y2 = random_wreath(inst, rng, max_len=3, window=3)
        lhs = phi(gw_compose(inst, y1, y2))
        rhs = gw_compose(target, phi(y1), phi(y2))
        assert lhs == rhs


def test_certificate_map_preserves_certified_element():
    inst = line_instance()
    x = WreathElement(word(C2, [(("c", 0), 1), (("c", 2), 1)]), 0)
    cert = separate(inst, x)
    phi = certificate_map(inst, cert)
    assert phi(cert.element).word == cert.word_image


def test_certificate_map_makes_two_canonical_passes(monkeypatch):
    inst = line_instance(S3)
    x = WreathElement(word(S3, [(("c", 0), (1, 0, 2)), (("c", 2), (0, 2, 1))]), 0)
    phi = certificate_map(inst, separate(inst, x))
    calls = _count_canonical_passes(monkeypatch)
    phi(x)
    # normalise, then one pass over the quotient
    assert calls == Counter({"canonical_form": 2})


def test_certificate_map_keeps_the_push_forward_errors():
    inst = line_instance(S3)
    x = WreathElement(word(S3, [(("c", 0), (1, 0, 2)), (("c", 2), (0, 2, 1))]), 0)
    cert = separate(inst, x)
    looped = replace(cert, modulus=1, quotient=quotient_graph(inst.graph, 1))
    with pytest.raises(LoopObstruction):
        certificate_map(inst, looped)(x)
    other = TranslationGraph(("d",), {("d", "d"): (FiniteOffsets(frozenset({1})),)})
    foreign = replace(cert, quotient=quotient_graph(other, cert.modulus))
    with pytest.raises(WordError):
        certificate_map(inst, foreign)(x)


# ---------------------------------------------------------------------------
# finite-mode separation


def test_separate_finite_mode_word():
    inst = Instance(S3, k5_cyclic())
    x = WreathElement(word(S3, [(0, (1, 0, 2)), (2, (2, 1, 0))]), (0,))
    cert = separate(inst, x)
    assert cert.kind == "image-subgroup"
    assert not cert.word_image.is_empty
    assert verify_certificate(inst, cert)


def test_separate_finite_mode_gamma():
    inst = Instance(S3, k5_cyclic())
    cert = separate(inst, WreathElement(EMPTY_WORD, (2,)))
    assert cert.kind == "image-subgroup"
    assert cert.gamma_image is not None
    assert verify_certificate(inst, cert)


def test_separate_finite_mode_kernel_gamma_exhausts():
    # (5,) acts trivially, so no subgroup of the acting image can tell it
    # from the identity; the honest outcome is an exhausted search
    inst = Instance(S3, k5_cyclic())
    with pytest.raises(SearchExhausted):
        separate(inst, WreathElement(EMPTY_WORD, (5,)))


def test_separate_finite_mode_after_restriction():
    # support touches only the triangle component; the isolated pair is
    # killed before the subgroup search, and the certificate still
    # re-verifies against the full instance
    from gwreath import FiniteModeGraph

    graph = FiniteModeGraph(
        (0, 1, 2, 3, 4),
        frozenset({(0, 1), (1, 2), (0, 2)}),
        ((1, 2, 0, 4, 3),),
    )
    inst = Instance(S3, graph)
    x = WreathElement(word(S3, [(1, (1, 0, 2))]), (0,))
    cert = separate(inst, x)
    assert set(cert.restricted) == {0, 1, 2}
    assert verify_certificate(inst, cert)


def test_separate_finite_mode_smallest_index_wins():
    # a single syllable survives even the full collapse for abelian
    # coefficients, so the index-1 subgroup is chosen
    inst = Instance(C2, k5_cyclic())
    x = WreathElement(word(C2, [(0, 1)]), (0,))
    cert = separate(inst, x)
    assert cert.subgroup_perms is not None
    assert len(cert.subgroup_perms) == 5  # the whole image: index 1
    assert verify_certificate(inst, cert)


# ---------------------------------------------------------------------------
# one canonical pass per group operation


def _quotient_line(m=6):
    return quotient_graph(line_graph(), m)


ONE_PASS_GRAPHS = {
    "line": line_graph,
    "two-orbit": two_orbit_graph,
    "torus8": lambda: torus_graph(8),
    "line-mod-6": _quotient_line,
}


def _sample_element(inst, rng, n, window):
    graph = inst.graph
    if isinstance(graph, graphs.TranslationGraph):
        vertices = [(c, p) for c in graph.labels for p in range(window)]
        gamma = rng.randint(-4, 4)
    elif isinstance(graph, FiniteModeGraph):
        vertices = list(graph.vertices)[:window]
        gamma = (rng.randint(-3, 3), rng.randint(-3, 3))
    else:
        vertices = list(graph.vertices)[:window]
        gamma = rng.randrange(graph.modulus)
    sylls = tuple(
        Syllable(rng.choice(vertices), random_nontrivial(inst.delta, rng)) for _ in range(n)
    )
    return WreathElement(Word(sylls), gamma)


@pytest.mark.parametrize("graph_name", sorted(ONE_PASS_GRAPHS))
@pytest.mark.parametrize("delta", [C2, S3, Cyclic(5)], ids=["C2", "S3", "C5"])
def test_one_pass_operations_agree_with_two_pass_reference(graph_name, delta):
    inst = Instance(delta, ONE_PASS_GRAPHS[graph_name]())
    rng = random.Random(f"one-pass:{graph_name}:{delta!r}")
    for n in (0, 1, 2, 3, 5, 8, 17, 32, 64, 128, 512):
        for window in (3, 12):
            x = _sample_element(inst, rng, n, window)
            y = _sample_element(inst, rng, rng.randint(0, n), window)
            assert gw_compose(inst, x, y) == reference_gw_compose(inst, x, y)
            assert gw_invert(inst, x) == reference_gw_invert(inst, x)
            inverse = gw_invert(inst, x)
            assert inst.is_identity_element(gw_compose(inst, x, inverse))


def _count_canonical_passes(monkeypatch):
    """Count canonical passes: ``words._canonical`` calls, made by
    ``canonical_form`` or directly, through either module's name."""
    calls = Counter()
    original = words._canonical

    def counted(*args):
        calls["canonical_form"] += 1
        return original(*args)

    monkeypatch.setattr(wreath, "_canonical", counted)
    monkeypatch.setattr(words, "_canonical", counted)
    return calls


@pytest.mark.parametrize("graph_name", sorted(ONE_PASS_GRAPHS))
def test_each_group_operation_makes_one_canonical_pass(monkeypatch, graph_name):
    inst = Instance(S3, ONE_PASS_GRAPHS[graph_name]())
    rng = random.Random(83)
    x, y = _sample_element(inst, rng, 40, 6), _sample_element(inst, rng, 30, 6)
    calls = _count_canonical_passes(monkeypatch)
    for operation in (
        lambda: gw_compose(inst, x, y),
        lambda: gw_invert(inst, x),
        lambda: act_word(inst.graph, S3, y.gamma, x.word),
    ):
        calls.clear()
        operation()
        assert calls == Counter({"canonical_form": 1})


@pytest.mark.parametrize("graph_name", ["line", "two-orbit", "torus8"])
def test_canonical_form_checks_each_vertex_once(monkeypatch, graph_name):
    graph = ONE_PASS_GRAPHS[graph_name]()
    rng = random.Random(89)
    w = _sample_element(Instance(S3, graph), rng, 200, 8).word
    cls = type(graph)
    counts = Counter()
    has_vertex, adjacent = cls.has_vertex, cls.adjacent

    def counted_has_vertex(self, v):
        counts["has_vertex"] += 1
        return has_vertex(self, v)

    def counted_adjacent(self, v, u):
        counts["adjacent"] += 1
        return adjacent(self, v, u)

    monkeypatch.setattr(cls, "has_vertex", counted_has_vertex)
    monkeypatch.setattr(cls, "adjacent", counted_adjacent)
    canonical_form(graph, S3, w)
    assert counts["adjacent"] > 0
    assert counts["has_vertex"] == len(w)


def test_separate_and_verify_canonicalise_their_element_once(monkeypatch):
    inst = Instance(S3, two_orbit_graph())
    # only orbit "a" is used, so the element is restricted before the search
    x = WreathElement(
        word(S3, [(("a", 0), (1, 0, 2)), (("a", 2), (0, 2, 1)), (("a", 5), (1, 0, 2))]), 3
    )
    calls = _count_canonical_passes(monkeypatch)
    cert = separate(inst, x)
    # normalise once, then push the normal word into the quotient
    assert calls == Counter({"canonical_form": 2})
    calls.clear()
    assert verify_certificate(inst, cert)
    assert calls == Counter({"canonical_form": 2})


@pytest.mark.parametrize("graph_name", sorted(ONE_PASS_GRAPHS))
def test_group_operations_check_each_syllable_once(monkeypatch, graph_name):
    inst = Instance(S3, ONE_PASS_GRAPHS[graph_name]())
    rng = random.Random(97)
    x0, y0 = _sample_element(inst, rng, 40, 6), _sample_element(inst, rng, 30, 6)
    cls, counts = type(inst.graph), Counter()
    has_vertex, contains = cls.has_vertex, Symmetric.contains

    def counted_has_vertex(self, v):
        counts["has_vertex"] += 1
        return has_vertex(self, v)

    def counted_contains(self, a):
        counts["contains"] += self is inst.delta  # not the acting group's gamma checks
        return contains(self, a)

    # fresh copies of the same elements: unrecorded, recorded against S3
    # only (as ``word`` builds them) and recorded against the graph and S3
    # (as canonical words are)
    forms = (
        (lambda z: WreathElement(Word(tuple(z.word)), z.gamma), ("has_vertex", "contains")),
        (_built_by_word, ("has_vertex",)),
        (inst.normalize, ()),
    )
    operations = (
        (lambda x, y: gw_compose(inst, x, y), len(x0.word) + len(y0.word)),
        (lambda x, y: gw_invert(inst, x), len(x0.word)),
        (lambda x, y: act_word(inst.graph, S3, y.gamma, x.word), len(x0.word)),
        (lambda x, y: retract(inst.graph, S3, x.word, {s.vertex for s in list(x.word)[::2]}), len(x0.word)),
    )
    monkeypatch.setattr(cls, "has_vertex", counted_has_vertex)
    monkeypatch.setattr(Symmetric, "contains", counted_contains)
    for fresh, tested in forms:
        for operation, n in operations:
            x, y = fresh(x0), fresh(y0)
            # the first call tests each syllable once and records what
            # passed; the same call again tests nothing
            for expected in ({test: n for test in tested}, {}):
                counts.clear()
                operation(x, y)
                assert counts == Counter(expected)


def _built_by_word(x):
    return WreathElement(word(S3, [(s.vertex, s.value) for s in x.word]), x.gamma)


COST_GRAPHS = {"line": line_graph, "ladder": ladder_graph, "torus8": lambda: torus_graph(8)}


@pytest.mark.parametrize("graph_name", sorted(COST_GRAPHS))
@pytest.mark.parametrize("delta", [C2, S3], ids=["C2", "S3"])
def test_inversion_inverts_each_distinct_value_once(graph_name, delta):
    graph = COST_GRAPHS[graph_name]()
    counting, calls = counting_spec(delta)
    inst = Instance(counting, graph)
    rng = random.Random(f"inverses:{graph_name}:{delta!r}")
    for n in (0, 1, 5, 64, 512):
        for window in (3, 12):
            x = _sample_element(inst, rng, n, window)
            ginv = graph.acting.invert(x.gamma)
            moved = _inverse_per_syllable(graph, delta, x.word, graph.action(ginv))
            for operation, expected in (
                (lambda: gw_invert(inst, x), WreathElement(moved, ginv)),
                (lambda: words.gp_invert(graph, counting, x.word),
                 _inverse_per_syllable(graph, delta, x.word, lambda v: v)),
            ):
                calls.clear()
                assert operation() == expected
                inverted = {a: count for (name, a), count in calls.items() if name == "_invert"}
                assert inverted == dict.fromkeys({s.value for s in x.word}, 1)


def _inverse_per_syllable(graph, delta, w, move):
    """The inverse of ``w`` moved by ``move``: one ``invert`` per
    syllable, then the direct quadratic canonical form."""
    inverses = [Syllable(move(s.vertex), delta.invert(s.value)) for s in reversed(w.syllables)]
    return reference_canonical_form(graph, delta, inverses)


@pytest.mark.parametrize("graph_name", sorted(COST_GRAPHS))
@pytest.mark.parametrize("delta", [C2, S3], ids=["C2", "S3"])
def test_parse_word_checks_each_distinct_value_text_once(graph_name, delta):
    graph = COST_GRAPHS[graph_name]()
    counting, calls = counting_spec(delta)
    rng = random.Random(f"parse:{graph_name}:{delta!r}")
    for n in (0, 1, 5, 64, 512):
        for window in (3, 12):
            w = _sample_element(Instance(delta, graph), rng, n, window).word
            calls.clear()
            parsed = formats.parse_word(graph, counting, formats.word_text(w))
            assert parsed == w
            assert canonical_form(graph, delta, parsed) == reference_canonical_form(graph, delta, w)
            assert calls == Counter({("contains", s.value): 1 for s in w})


@pytest.mark.parametrize("graph_name", sorted(COST_GRAPHS))
def test_gw_compose_checks_each_gamma_once(monkeypatch, graph_name):
    inst = Instance(S3, COST_GRAPHS[graph_name]())
    acting = inst.graph.acting
    rng = random.Random(101)
    x, y = _sample_element(inst, rng, 20, 6), _sample_element(inst, rng, 20, 6)
    ginv = acting.invert(x.gamma)
    checked, check = [], type(acting).check

    def counted_check(self, a):
        if self is acting:
            checked.append(a)
        return check(self, a)

    monkeypatch.setattr(type(acting), "check", counted_check)
    gw_compose(inst, x, y)
    assert checked == [x.gamma, y.gamma]
    checked.clear()
    gw_invert(inst, x)  # x's gamma, then the inverse the vertex map is built from
    assert checked == [x.gamma, ginv]
    # a bad gamma raises the acting group's error, x's before y's
    for left, right, culprit in (("x", y.gamma, "x"), (x.gamma, None, None), ("x", None, "x")):
        with pytest.raises(GroupError) as info:
            gw_compose(inst, WreathElement(x.word, left), WreathElement(y.word, right))
        assert str(info.value) == f"{culprit!r} is not an element of {acting!r}"


def _outcome(operation, w):
    """What ``operation(w)`` returns, or the class and message it raises."""
    try:
        return operation(w)
    except (GraphError, GroupError, WordError) as exc:
        return type(exc), str(exc)


def _forms_of_a_bad_word(inst, sylls, bad, twin):
    """A word whose record, if any, does not cover its one bad syllable
    for ``inst``: unrecorded, a copy or unpickled copy of a word recorded
    against ``inst``, or recorded against an equal but distinct graph
    ``twin`` (bad vertex) or group (bad value)."""
    recorded = words._record(Word(sylls), inst.graph, inst.delta)
    if bad == "vertex":
        equal = words._record(Word(sylls), twin, inst.delta)
    else:
        equal = words._record(Word(sylls), inst.graph, Symmetric(3))
    return {
        "raw": Word(sylls),
        "copy": copy.copy(recorded),
        "deepcopy": copy.deepcopy(recorded),
        "pickle": pickle.loads(pickle.dumps(recorded)),
        "equal-spec": equal,
    }


@pytest.mark.parametrize("graph_name", sorted(ONE_PASS_GRAPHS))
def test_operations_on_unrecorded_words_raise_as_a_full_check(graph_name):
    # A reference that tests everything: the same operation on an
    # unrecorded word with the same syllables.
    inst = Instance(S3, ONE_PASS_GRAPHS[graph_name]())
    graph, rng = inst.graph, random.Random(f"record:{graph_name}")
    twin = ONE_PASS_GRAPHS[graph_name]()
    assert twin == graph and twin is not graph
    operations = {
        "canonical_form": lambda w: canonical_form(graph, S3, w),
        "gp_invert": lambda w: words.gp_invert(graph, S3, w),
        "retract": lambda w: retract(graph, S3, w, {s.vertex for s in list(w)[::2]}),
        "push_forward": lambda w: words.push_forward(graph, S3, w, lambda v: v, graph),
        "gw_compose-left": lambda w: gw_compose(inst, WreathElement(w, gamma), other),
        "gw_compose-right": lambda w: gw_compose(inst, other, WreathElement(w, gamma)),
        "gw_invert": lambda w: gw_invert(inst, WreathElement(w, gamma)),
        "act_word": lambda w: act_word(graph, S3, gamma, w),
        "normalize": lambda w: inst.normalize(WreathElement(w, gamma)),
    }
    for trial in range(12):
        sample = _sample_element(inst, rng, rng.randint(1, 12), 6)
        other = inst.normalize(_sample_element(inst, rng, rng.randint(0, 8), 6))
        gamma = sample.gamma
        sylls = list(sample.word)
        bad = ("vertex", "value")[trial % 2]
        i = rng.randrange(len(sylls))
        s = sylls[i]
        sylls[i] = Syllable(("zz", 0), s.value) if bad == "vertex" else Syllable(s.vertex, (0, 0, 1))
        sylls = tuple(sylls)
        for name, operation in operations.items():
            expected = _outcome(operation, Word(sylls))
            assert expected[0] is (GroupError if bad == "value" else WordError), (name, expected)
            for form, w in _forms_of_a_bad_word(inst, sylls, bad, twin).items():
                assert _outcome(operation, w) == expected, (name, form)
        # a word that passed its checks gives what the unrecorded one does
        for w in (inst.normalize(sample).word, _built_by_word(sample).word):
            for name, operation in operations.items():
                assert _outcome(operation, w) == _outcome(operation, Word(tuple(w))), name


def _record_of(w):
    return getattr(w, "_graph", None), getattr(w, "_delta", None)


@pytest.mark.parametrize("graph_name", sorted(ONE_PASS_GRAPHS))
def test_a_bad_word_records_nothing_and_raises_on_every_call(graph_name):
    inst = Instance(S3, ONE_PASS_GRAPHS[graph_name]())
    graph, rng = inst.graph, random.Random(f"bad-record:{graph_name}")
    twin = ONE_PASS_GRAPHS[graph_name]()
    operations = {
        "canonical_form": lambda w: canonical_form(graph, S3, w),
        "gp_invert": lambda w: words.gp_invert(graph, S3, w),
        "gw_compose-left": lambda w: gw_compose(inst, WreathElement(w, gamma), other),
        "gw_compose-right": lambda w: gw_compose(inst, other, WreathElement(w, gamma)),
        "act_word": lambda w: act_word(graph, S3, gamma, w),
        "normalize": lambda w: inst.normalize(WreathElement(w, gamma)),
    }
    for trial in range(6):
        sample = _sample_element(inst, rng, rng.randint(1, 12), 6)
        other = inst.normalize(_sample_element(inst, rng, rng.randint(1, 8), 6))
        gamma, bad = sample.gamma, ("vertex", "value")[trial % 2]
        sylls = list(sample.word)
        i = rng.randrange(len(sylls))
        s = sylls[i]
        sylls[i] = Syllable(("zz", 0), s.value) if bad == "vertex" else Syllable(s.vertex, (0, 0, 1))
        sylls = tuple(sylls)
        for form, w in _forms_of_a_bad_word(inst, sylls, bad, twin).items():
            before = _record_of(w)
            for name, operation in operations.items():
                expected = _outcome(operation, Word(sylls))
                for _ in range(3):
                    assert _outcome(operation, w) == expected, (form, name)
                    assert _record_of(w) == before, (form, name)


@pytest.mark.parametrize("graph_name", sorted(ONE_PASS_GRAPHS))
def test_a_record_covers_only_the_objects_it_names(monkeypatch, graph_name):
    graph, twin, S3_twin = ONE_PASS_GRAPHS[graph_name](), ONE_PASS_GRAPHS[graph_name](), Symmetric(3)
    assert twin == graph and twin is not graph and S3_twin == S3 and S3_twin is not S3
    x = _sample_element(Instance(S3, graph), random.Random(101), 30, 6)
    w, n = x.word, len(x.word)
    expected = canonical_form(graph, S3, Word(tuple(w)))
    cls, counts = type(graph), Counter()
    has_vertex, contains = cls.has_vertex, Symmetric.contains

    def counted_has_vertex(self, v):
        counts["has_vertex"] += 1
        return has_vertex(self, v)

    def counted_contains(self, a):
        counts["contains"] += 1
        return contains(self, a)

    monkeypatch.setattr(cls, "has_vertex", counted_has_vertex)
    monkeypatch.setattr(Symmetric, "contains", counted_contains)
    # (graph, group, vertex tests, value tests) in order on one word
    steps = (
        (graph, S3, n, n), (graph, S3, 0, 0),
        (twin, S3, n, 0), (twin, S3, 0, 0), (graph, S3, n, 0),
        (graph, S3_twin, 0, n), (graph, S3_twin, 0, 0), (graph, S3, 0, n),
        (twin, S3_twin, n, n), (graph, S3, n, n), (graph, S3, 0, 0),
    )
    for g, d, vertex_tests, value_tests in steps:
        counts.clear()
        assert canonical_form(g, d, w) == expected
        assert +counts == +Counter(has_vertex=vertex_tests, contains=value_tests), (g, d)
        recorded_graph, recorded_delta = _record_of(w)
        assert recorded_graph is g and recorded_delta is d, (g, d)


def test_empty_words_and_syllable_lists_get_no_record(monkeypatch):
    inst = Instance(S3, line_graph())
    graph = inst.graph
    for w in (EMPTY_WORD, Word()):
        for operation in (
            lambda: canonical_form(graph, S3, w),
            lambda: words.gp_invert(graph, S3, w),
            lambda: gw_compose(inst, WreathElement(w, 1), WreathElement(w, 2)),
            lambda: act_word(graph, S3, 3, w),
        ):
            operation()
            assert not hasattr(w, "_graph") and not hasattr(w, "_delta")
    sylls = list(_sample_element(inst, random.Random(103), 20, 6).word)
    counts, has_vertex = Counter(), type(graph).has_vertex

    def counted_has_vertex(self, v):
        counts["has_vertex"] += 1
        return has_vertex(self, v)

    monkeypatch.setattr(type(graph), "has_vertex", counted_has_vertex)
    for form in (sylls, tuple(sylls)):
        for _ in range(2):  # nothing to record on, so every call tests again
            counts.clear()
            canonical_form(graph, S3, form)
            assert counts == Counter(has_vertex=len(sylls))


def _with_bad_syllable(rng, sample, bad):
    """``sample``'s word with one syllable made a foreign vertex (a
    tuple, or an unhashable list) or a value outside S3."""
    sylls = list(sample.word)
    i = rng.randrange(len(sylls))
    vertex, value = sylls[i].vertex, sylls[i].value
    if bad == "value":
        value = (0, 0, 1)
    else:
        vertex = ("zz", i) if bad == "vertex" else ["zz", i]
    sylls[i] = Syllable(vertex, value)
    return Word(tuple(sylls))


@pytest.mark.parametrize("graph_name", sorted(ONE_PASS_GRAPHS))
def test_every_operation_and_operand_raises_one_error_for_a_bad_syllable(graph_name):
    inst = Instance(S3, ONE_PASS_GRAPHS[graph_name]())
    graph, rng = inst.graph, random.Random(f"one-error:{graph_name}")
    operations = {
        "canonical_form": lambda w: canonical_form(graph, S3, w),
        "gp_invert": lambda w: words.gp_invert(graph, S3, w),
        "retract": lambda w: retract(graph, S3, w, ()),
        "push_forward": lambda w: words.push_forward(graph, S3, w, lambda v: v, graph),
        "gw_compose-left": lambda w: gw_compose(inst, WreathElement(w, gamma), other),
        "gw_compose-right": lambda w: gw_compose(inst, other, WreathElement(w, gamma)),
        "gw_invert": lambda w: gw_invert(inst, WreathElement(w, gamma)),
        "act_word": lambda w: act_word(graph, S3, gamma, w),
        "normalize": lambda w: inst.normalize(WreathElement(w, gamma)),
    }
    for trial in range(9):
        sample = _sample_element(inst, rng, rng.randint(1, 10), 6)
        other = inst.normalize(_sample_element(inst, rng, rng.randint(0, 8), 6))
        gamma, bad = sample.gamma, ("vertex", "unhashable", "value")[trial % 3]
        w = _with_bad_syllable(rng, sample, bad)
        outcomes = {name: _outcome(operation, w) for name, operation in operations.items()}
        error, message = outcomes["canonical_form"]
        assert error is (GroupError if bad == "value" else WordError), outcomes
        if bad != "value":
            assert message.endswith("does not belong to the graph"), message
        assert set(outcomes.values()) == {(error, message)}, outcomes
        # two bad operands: the error names the left one
        y = _sample_element(inst, rng, rng.randint(1, 8), 6)
        y_bad = ("value", "vertex", "unhashable")[trial % 3]
        bad_y = WreathElement(_with_bad_syllable(rng, y, y_bad), y.gamma)
        both = _outcome(lambda w: gw_compose(inst, WreathElement(w, gamma), bad_y), w)
        assert both == outcomes["gw_compose-left"]


def test_exhausted_separate_builds_no_residue_set(monkeypatch):
    # factorial shift 0 hits 0 modulo every m, so with S3 every modulus
    # fails the loop check, which needs no residue set
    inst = Instance(S3, factorial_graph(0))
    x = WreathElement(word(S3, [(("c", 0), (1, 0, 2)), (("c", 3), (0, 2, 1))]), 0)
    calls = Counter()
    residues_of = graphs.residues_of

    def counted(families, m):
        calls["residues_of"] += 1
        return residues_of(families, m)

    monkeypatch.setattr(graphs, "residues_of", counted)
    monkeypatch.setattr(graphs.FactorialOffsets, "residues",
                        lambda self, m: calls.update(["residues"]))
    with pytest.raises(SearchExhausted):
        separate(inst, x, bound=256)
    assert calls == Counter()


def test_support_pairs_share_one_residue_set_per_modulus(monkeypatch):
    # a factorial family's hits redoes the n! mod m walk on every call, so
    # the support pairs read one residue set per label pair and modulus
    inst = fact_instance(1, C2)
    x = WreathElement(word(C2, [(("c", v), 1) for v in (0, 2, 9, 17, 40, 41)]), 0)
    built = Counter()
    residues_of = graphs.residues_of

    def counted(families, m):
        built[m] += 1
        return residues_of(families, m)

    def walk(self, t, m):
        raise AssertionError("per-pair hits")

    monkeypatch.setattr(graphs, "residues_of", counted)
    monkeypatch.setattr(graphs.FactorialOffsets, "hits", walk)
    with pytest.raises(SearchExhausted):
        separate(inst, x, bound=64)
    assert len(built) > 30 and set(built.values()) == {1}


def test_separate_looks_up_support_adjacency_once(monkeypatch):
    # 841 = 1 + lcm(1..8) is 1 modulo every m <= 8: the two support
    # vertices keep distinct images but become adjacent, so every
    # candidate reaches the adjacency comparison and fails it
    inst = Instance(S3, line_graph())
    x = WreathElement(word(S3, [(("c", 0), (1, 0, 2)), (("c", 841), (1, 0, 2))]), 0)
    calls = Counter()
    adjacent = graphs.TranslationGraph.adjacent

    def counted(self, v, w):
        calls["adjacent"] += 1
        return adjacent(self, v, w)

    monkeypatch.setattr(graphs.TranslationGraph, "adjacent", counted)
    for bound in (4, 8):
        calls.clear()
        with pytest.raises(SearchExhausted):
            separate(inst, x, bound=bound)
        assert calls["adjacent"] == 1 + 1  # one support pair, one canonical lookup


def _foreign_vertex_cases():
    """(name, call, exception) for every public function that hands a
    caller's vertices or values to ``adjacent`` or the action."""
    from gwreath.lef import lef_certificate, truncate_graph, verify_lef

    line, torus = line_graph(), torus_graph(3)
    on_line, on_torus = Instance(S3, line), Instance(S3, torus)
    good = WreathElement(word(S3, [(("c", 0), (1, 0, 2)), (("c", 2), (0, 2, 1))]), 1)
    good_t = WreathElement(word(S3, [(0, (1, 0, 2)), (4, (0, 2, 1))]), (1, 0))

    def with_syllable(x, vertex, value):
        return WreathElement(Word(x.word.syllables + (Syllable(vertex, value),)), x.gamma)

    cases = []
    for label, inst, x, foreign in (
        ("line", on_line, good, ("x", 0)),
        ("line-position", on_line, good, ("c", 0.5)),
        ("torus", on_torus, good_t, 99),
    ):
        graph = inst.graph
        bad_vertex = with_syllable(x, foreign, (1, 0, 2))
        bad_value = with_syllable(x, x.word.syllables[0].vertex, (0, 0, 1))
        # 1.0 sorts and compares like 1, but a tuple cannot be indexed by it
        float_value = with_syllable(x, x.word.syllables[0].vertex, (1.0, 0, 2))
        for what, y, error in (
            ("vertex", bad_vertex, None),
            ("value", bad_value, GroupError),
            ("float-value", float_value, GroupError),
        ):
            cases += [
                (f"canonical_form/{label}/{what}",
                 lambda y=y, graph=graph: canonical_form(graph, S3, y.word),
                 error or WordError),
                (f"normalize/{label}/{what}", lambda y=y, inst=inst: inst.normalize(y),
                 error or WordError),
                (f"gw_compose-left/{label}/{what}",
                 lambda y=y, inst=inst, x=x: gw_compose(inst, y, x), error or WordError),
                (f"gw_compose-right/{label}/{what}",
                 lambda y=y, inst=inst, x=x: gw_compose(inst, x, y), error or WordError),
                (f"gw_invert/{label}/{what}",
                 lambda y=y, inst=inst: gw_invert(inst, y), error or WordError),
                (f"act_word/{label}/{what}",
                 lambda y=y, graph=graph, x=x: act_word(graph, S3, x.gamma, y.word),
                 error or WordError),
            ]
    cases += [
        ("witness/vertex",
         lambda: witness(Instance(S3, factorial_graph(2)), "T3.2", [("c", 0), ("c", 0.5)]),
         GraphError),
        ("witness/value",
         lambda: witness(Instance(S3, factorial_graph(0)), "T3.1", [("c", 0)],
                         [(0, 0, 1), (1, 0, 2)]),
         GroupError),
        ("truncate_graph/vertex",
         lambda: truncate_graph(line, [("c", 0), ("c", 0.5)]), GraphError),
        ("truncate_graph/label", lambda: truncate_graph(line, [("c", 0), ("x", 1)]), GraphError),
    ]
    cert = lef_certificate(line, [0, 1], [("c", 0), ("c", 1)])
    cases += [
        ("verify_lef/label",
         lambda: verify_lef(cert, line, [0, 1], [("c", 0), ("c", 1), ("x", 0)]), GraphError),
    ]
    return cases


def test_foreign_vertices_and_bad_values_are_rejected_at_the_boundary():
    # the exception types are those of the two-pass implementation
    for name, call, error in _foreign_vertex_cases():
        try:
            call()
        except error:
            continue
        except Exception as exc:  # noqa: BLE001 - report which case broke
            pytest.fail(f"{name} raised {type(exc).__name__}, not {error.__name__}")
        pytest.fail(f"{name} raised nothing")


def test_verify_lef_rejects_a_foreign_vertex_before_comparing():
    from gwreath.lef import lef_certificate, verify_lef

    line = line_graph()
    cert = lef_certificate(line, [0, 1], [("c", 0), ("c", 1)])
    with pytest.raises(GraphError):
        verify_lef(cert, line, [0, 1], [("c", 0), ("c", 1), ("c", 0.5)])


def test_quotient_operations_reject_a_foreign_right_operand():
    # (c, 7) is no orbit of the line modulo 6; moving it by a residue
    # must not wrap it round into one
    inst = Instance(C2, _quotient_line(6))
    foreign = WreathElement(Word((Syllable(("c", 7), 1),)), 0)
    one = WreathElement(Word((Syllable(("c", 1), 1),)), 2)
    with pytest.raises(WordError):
        gw_compose(inst, one, foreign)
    with pytest.raises(WordError):
        act_word(inst.graph, C2, 0, foreign.word)
    with pytest.raises(WordError):
        gw_compose(inst, foreign, one)
    with pytest.raises(WordError):
        gw_invert(inst, foreign)
