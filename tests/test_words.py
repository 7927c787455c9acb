import random
from collections import Counter

import pytest

from gwreath import (
    ArithmeticOffsets,
    Cyclic,
    EMPTY_WORD,
    FactorialOffsets,
    FiniteModeGraph,
    FiniteOffsets,
    GroupError,
    Instance,
    LoopObstruction,
    Symmetric,
    Syllable,
    TranslationGraph,
    Word,
    WordError,
    WreathElement,
    act_word,
    canonical_form,
    gp_invert,
    gw_compose,
    gw_invert,
    push_forward,
    quotient_graph,
    retract,
    word,
)

from tests.support import (
    bfs_trivial,
    complete_z_graph,
    edgeless_graph,
    factorial_graph,
    is_lex_normal,
    is_reduced,
    k5_cyclic,
    klein_table,
    line_graph,
    path3_graph,
    random_nontrivial,
    random_word,
    reference_canonical_form,
    torus_graph,
    two_orbit_graph,
)

C2 = Cyclic(2)
C3 = Cyclic(3)
C5 = Cyclic(5)
S3 = Symmetric(3)
P3 = path3_graph()


def syl(v, g=1):
    return Syllable(v, g)


def test_word_constructor_rejects_identity_syllables():
    with pytest.raises(WordError):
        word(C2, [(0, 0)])


def test_bool_values_are_rejected_by_word_and_normalize():
    with pytest.raises(GroupError):
        word(C2, [(("c", 0), True)])
    with pytest.raises(GroupError):
        word(S3, [(("c", 0), (True, 0, 2))])
    inst = Instance(S3, line_graph())
    for value in ((True, 0, 2), (0, True, 2)):
        raw = WreathElement(Word((Syllable(("c", 0), (1, 0, 2)), Syllable(("c", 1), value))), 0)
        with pytest.raises(GroupError):
            inst.normalize(raw)
        with pytest.raises(GroupError):
            canonical_form(inst.graph, S3, raw.word)


@pytest.mark.parametrize(
    "graph, bad", [(line_graph(), True), (torus_graph(3), (True, 0)), (torus_graph(3), (1, False))],
    ids=["line-True", "torus-(True,0)", "torus-(1,False)"],
)
def test_bool_gammas_are_rejected(graph, bad):
    inst = Instance(C2, graph)
    v = sorted(graph.vertices)[0] if isinstance(graph, FiniteModeGraph) else ("c", 0)
    w = word(C2, [(v, 1)])
    good = WreathElement(w, inst.graph.acting.identity())
    x = WreathElement(w, bad)
    for operation in (
        lambda: inst.normalize(x),
        lambda: inst.is_identity_element(x),
        lambda: gw_compose(inst, x, good),
        lambda: gw_compose(inst, good, x),
        lambda: gw_invert(inst, x),
        lambda: act_word(inst.graph, C2, bad, w),
    ):
        with pytest.raises(GroupError, match="is not an element of"):
            operation()


def test_canonical_empty():
    assert canonical_form(P3, C2, EMPTY_WORD) == EMPTY_WORD


def test_canonical_merge_across_commuting_vertex():
    # middle letter commutes past its neighbour, the outer pair cancels
    w = Word((syl(1), syl(0), syl(1)))
    out = canonical_form(P3, C2, w)
    assert out == Word((syl(0),))
    assert bfs_trivial(P3, C2, (syl(1), syl(0), syl(1), syl(0)))  # w * a0 is trivial


def test_canonical_blocked_by_non_adjacent_vertex():
    w = Word((syl(0), syl(2), syl(0)))
    out = canonical_form(P3, C2, w)
    assert out == w
    assert not bfs_trivial(P3, C2, tuple(w))


def test_canonical_drops_identity_syllables():
    raw = [Syllable(0, 1), Syllable(1, 0), Syllable(0, 1)]
    assert canonical_form(P3, C2, raw) == EMPTY_WORD


def test_canonical_orders_commuting_syllables_by_vertex():
    line = line_graph()
    w = Word((syl(("c", 1)), syl(("c", 0))))
    out = canonical_form(line, C2, w)
    assert [s.vertex for s in out] == [("c", 0), ("c", 1)]


def test_canonical_rejects_unknown_vertex():
    with pytest.raises(WordError):
        canonical_form(line_graph(), C2, Word((syl(("x", 0)),)))


def test_canonical_validates_values():
    with pytest.raises(GroupError):
        canonical_form(P3, C2, Word((Syllable(0, 7),)))


@pytest.mark.parametrize(
    "graph,delta",
    [(line_graph(), C2), (two_orbit_graph(), S3), (P3, C3), (factorial_graph(1), C2)],
    ids=["line-c2", "two-orbit-s3", "path3-c3", "factorial-c2"],
)
def test_canonical_idempotent(graph, delta):
    rng = random.Random(17)
    for _ in range(1000):
        w = random_word(graph, delta, rng, max_len=6, window=4)
        once = canonical_form(graph, delta, w)
        assert canonical_form(graph, delta, once) == once


def test_canonical_invariant_under_relations():
    rng = random.Random(23)
    graph, delta = two_orbit_graph(), C3
    for _ in range(400):
        w = random_word(graph, delta, rng, max_len=5, window=3)
        base = canonical_form(graph, delta, w)
        sylls = list(w)

        # (a) insert a cancelling same-vertex pair anywhere
        g = random_nontrivial(delta, rng)
        v = (rng.choice(graph.labels), rng.randint(-3, 3))
        i = rng.randint(0, len(sylls))
        inserted = sylls[:i] + [Syllable(v, g), Syllable(v, delta.invert(g))] + sylls[i:]
        assert canonical_form(graph, delta, inserted) == base

        # (b) swap two neighbouring syllables at adjacent vertices
        for j in range(len(sylls) - 1):
            if graph.adjacent(sylls[j].vertex, sylls[j + 1].vertex):
                swapped = list(sylls)
                swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
                assert canonical_form(graph, delta, swapped) == base
                break

        # (c) split one syllable into two factors
        if sylls:
            j = rng.randrange(len(sylls))
            target = sylls[j]
            left = random_nontrivial(delta, rng)
            right = delta.compose(delta.invert(left), target.value)
            split = (
                sylls[:j]
                + [Syllable(target.vertex, left), Syllable(target.vertex, right)]
                + sylls[j + 1 :]
            )
            assert canonical_form(graph, delta, split) == base


def _windows(graph):
    """A narrow and a wide vertex pool: many merges, then few."""
    if isinstance(graph, TranslationGraph):
        wide = [(c, p) for c in graph.labels for p in range(-32, 32)]
        narrow = [(c, p) for c in graph.labels for p in range(3)]
    else:
        wide = sorted(graph.vertices, key=graph.vertex_key)
        narrow = wide[:2] + wide[5:7]
    return {"narrow": narrow, "wide": wide}


def _mixed_graph():
    """Two labels, with finite and arithmetic families side by side."""
    return TranslationGraph(
        ("a", "b"),
        {
            ("a", "a"): (FiniteOffsets(frozenset({1, 2})),),
            ("a", "b"): (ArithmeticOffsets(2, 3),),
            ("b", "b"): (FiniteOffsets(frozenset({1})), ArithmeticOffsets(5, 5)),
        },
    )


REFERENCE_GRAPHS = {
    "line": line_graph,
    "two-orbit": two_orbit_graph,
    "factorial": lambda: factorial_graph(0),
    "torus8": lambda: torus_graph(8),
    "quotient-two-orbit-12": lambda: quotient_graph(two_orbit_graph(), 12),
    "quotient-torus8-4x4": lambda: quotient_graph(torus_graph(8), [(4, 0), (0, 4)]),
    "complete": complete_z_graph,
    "near-complete": lambda: TranslationGraph(("c",), {("c", "c"): (ArithmeticOffsets(2, 1),)}),
    "edgeless": edgeless_graph,
    "k5": k5_cyclic,
    "mixed": _mixed_graph,
}


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_canonical_matches_reference_on_long_words(name):
    graph = REFERENCE_GRAPHS[name]()
    rng = random.Random(f"reference:{name}")
    for delta in (C2, S3, C5, klein_table()):
        for window, pool in _windows(graph).items():
            lengths = [rng.randint(0, 512)]
            if (delta, window) == (C2, "wide"):
                lengths += [0, 512]
            for n in lengths:
                w = Word(
                    tuple(
                        Syllable(rng.choice(pool), random_nontrivial(delta, rng))
                        for _ in range(n)
                    )
                )
                assert canonical_form(graph, delta, w) == reference_canonical_form(
                    graph, delta, w
                ), (delta, window, n)


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_canonical_keys_only_the_vertices_a_back_scan_compares(monkeypatch, name):
    # no vertex is asked about itself; a vertex's key is taken at most once
    # per call, and only for a vertex of a pair that was found to commute
    graph = REFERENCE_GRAPHS[name]()
    rng = random.Random(f"memo:{name}")
    cls, asked, keyed = type(graph), [], []
    adjacent, vertex_key = cls.adjacent, cls.vertex_key

    def recorded(self, *pair):
        a = adjacent(self, *pair)
        asked.append((pair, a))
        return a

    def recorded_key(self, v):
        keyed.append(v)
        return vertex_key(self, v)

    monkeypatch.setattr(cls, "adjacent", recorded)
    monkeypatch.setattr(cls, "vertex_key", recorded_key)
    for delta in (C2, S3):
        for window, pool in _windows(graph).items():
            w = [
                Syllable(rng.choice(pool), random_nontrivial(delta, rng))
                for _ in range(300)
            ]
            asked.clear()
            keyed.clear()
            out = canonical_form(graph, delta, w)
            assert asked, (delta, window)
            assert all(u != v for (u, v), _ in asked), (delta, window)
            assert max(Counter(keyed).values(), default=1) == 1, (delta, window)
            commuting = {v for pair, a in asked if a for v in pair}
            assert set(keyed) <= commuting, (delta, window)
            assert out == reference_canonical_form(graph, delta, w), (delta, window)


INFINITE_FAMILY_GRAPHS = {
    "arithmetic-1-1": complete_z_graph,
    "arithmetic-2-1": REFERENCE_GRAPHS["near-complete"],
    "factorial-1": lambda: factorial_graph(1),
    "mixed": _mixed_graph,
}


@pytest.mark.parametrize("name", sorted(INFINITE_FAMILY_GRAPHS))
def test_infinite_family_probes_once_per_offset(monkeypatch, name):
    # the graph remembers each infinite family's answer per label pair and
    # offset, across calls, words and windows: families are negation-closed,
    # so d and -d share one answer, as do the two orders of a label pair
    graph = INFINITE_FAMILY_GRAPHS[name]()
    rng = random.Random(f"offsets:{name}")
    probes = Counter()
    for cls in (ArithmeticOffsets, FactorialOffsets):
        contains = cls.contains

        def recorded(self, d, contains=contains):
            probes[id(self), abs(d)] += 1
            return contains(self, d)

        monkeypatch.setattr(cls, "contains", recorded)
    for delta in (C2, S3):
        for window, pool in _windows(graph).items():
            for n in (40, 300):
                w = [Syllable(rng.choice(pool), random_nontrivial(delta, rng)) for _ in range(n)]
                out = canonical_form(graph, delta, w)
                assert probes and max(probes.values()) == 1, (delta, window, n)
                assert out == reference_canonical_form(graph, delta, w), (delta, window, n)


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_canonical_words_are_reduced_and_lex_normal(name):
    graph = REFERENCE_GRAPHS[name]()
    rng = random.Random(f"lex-normal:{name}")
    for delta in (C2, S3, C5, klein_table()):
        for window, pool in _windows(graph).items():
            for n in (0, 1, 2, rng.randint(3, 20), rng.randint(20, 150)):
                w = [Syllable(rng.choice(pool), random_nontrivial(delta, rng)) for _ in range(n)]
                out = canonical_form(graph, delta, w)
                assert is_reduced(graph, delta, out), (delta, window, n)
                assert is_lex_normal(graph, out), (delta, window, n)


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_canonical_keeps_the_callers_syllables(name):
    # only a merge builds a syllable: with one syllable per vertex nothing
    # merges, and splitting a canonical syllable in two merges exactly there
    graph = REFERENCE_GRAPHS[name]()
    rng = random.Random(f"identity:{name}")
    for delta in (S3, C5):
        for window, pool in _windows(graph).items():
            vertices = rng.sample(pool, min(len(pool), 40))
            w = [Syllable(v, random_nontrivial(delta, rng)) for v in vertices]
            out = canonical_form(graph, delta, w).syllables
            assert sorted(map(id, out)) == sorted(map(id, w)), (delta, window)

            split = {i for i in range(len(out)) if rng.random() < 0.3}
            pieces = []
            for i, s in enumerate(out):
                if i in split:
                    others = (s.value, delta.identity())
                    first = rng.choice([g for g in delta.elements() if g not in others])
                    pieces += [Syllable(s.vertex, first),
                               Syllable(s.vertex, delta.compose(delta.invert(first), s.value))]
                else:
                    pieces.append(s)
            again = canonical_form(graph, delta, pieces).syllables
            assert again == out, (delta, window)
            assert {i for i, s in enumerate(again) if s is not out[i]} == split, (delta, window)


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_each_kernel_branch_matches_the_reference(name):
    # The pass looks at the last reduced syllable first: one at the same
    # vertex merges or cancels, one that does not commute is appended, and
    # only otherwise does the back-scan run.  Directly built words keep
    # their identity syllables, which the pass drops between branches; one-
    # and two-vertex windows give long same-vertex tails, and a second
    # vertex adjacent to the first makes the back-scan run too.
    graph = REFERENCE_GRAPHS[name]()
    rng = random.Random(f"branches:{name}")
    wide = _windows(graph)["wide"]
    for delta in (C2, S3, C5, klein_table()):
        values = list(delta.elements())
        assert delta.identity() in values
        v = rng.choice(wide)
        near = [u for u in wide if u != v and graph.adjacent(u, v)]
        far = [u for u in wide if u != v and not graph.adjacent(u, v)]
        pools = [[v]] + [[v, rng.choice(side)] for side in (near, far) if side] + [wide]
        for pool in pools:
            for n in (rng.randint(1, 12), rng.randint(40, 200)):
                w = Word(tuple(Syllable(rng.choice(pool), rng.choice(values)) for _ in range(n)))
                out = canonical_form(graph, delta, w)
                assert out == reference_canonical_form(graph, delta, w), (delta, pool, n)
                assert is_reduced(graph, delta, out) and is_lex_normal(graph, out), (delta, pool, n)


def test_insertion_goes_before_a_larger_key_behind_the_blocker():
    # ("c", 3) commutes with ("c", 4) and ("c", 2) but not with ("c", 9)
    line = line_graph()
    w = [syl(("c", 9)), syl(("c", 2)), syl(("c", 4)), syl(("c", 3))]
    assert canonical_form(line, C2, w) == Word(
        (syl(("c", 9)), syl(("c", 2)), syl(("c", 3)), syl(("c", 4)))
    )


def test_cancellation_after_smaller_keyed_commuting_syllables():
    # ("c", 1) goes in before the first ("c", 3), which the second cancels
    graph = complete_z_graph()
    w = [syl(("c", 3)), syl(("c", 5)), syl(("c", 1)), syl(("c", 3))]
    assert canonical_form(graph, C2, w) == Word((syl(("c", 1)), syl(("c", 5))))


def test_merge_into_a_target_with_larger_keys_after_it():
    graph = complete_z_graph()
    w = [syl(("c", 3)), syl(("c", 5)), syl(("c", 1)), syl(("c", 3))]
    assert canonical_form(graph, C3, w) == Word(
        (syl(("c", 1)), syl(("c", 3), 2), syl(("c", 5)))
    )


def test_equal_vertices_are_each_validated():
    # ("c", 1.0) equals and hashes like the vertex ("c", 1) but is not one
    line = line_graph()
    inst = Instance(C2, line)
    w = Word((Syllable(("c", 1), 1), Syllable(("c", 1.0), 1)))
    with pytest.raises(WordError):
        canonical_form(line, C2, w)
    with pytest.raises(WordError):
        inst.normalize(WreathElement(w, 0))
    with pytest.raises(WordError):
        gw_compose(inst, WreathElement(w, 0), inst.identity_element())
    # a list equals no permutation tuple, and is not an element of S3
    w = Word((Syllable(("c", 0), (1, 0, 2)), Syllable(("c", 0), [1, 0, 2])))
    with pytest.raises(GroupError):
        canonical_form(line, S3, w)
    with pytest.raises(GroupError):
        gw_compose(Instance(S3, line), WreathElement(w, 0), WreathElement(EMPTY_WORD, 0))


def _count_calls(monkeypatch, cls, name) -> Counter:
    """Count calls to ``cls.name`` made while the test runs."""
    calls = Counter()
    original = getattr(cls, name)

    def counted(self, *args):
        calls[name] += 1
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("span", [6, 64, 512])
def test_canonical_adjacency_lookups_are_linear(monkeypatch, span):
    # a pairwise scan needs ~n^2/2 lookups here; memoised piling needs O(n)
    rng = random.Random(47)
    graph, n = line_graph(), 512
    w = Word(
        tuple(
            Syllable(("c", rng.randrange(span)), random_nontrivial(S3, rng))
            for _ in range(n)
        )
    )
    calls = _count_calls(monkeypatch, TranslationGraph, "adjacent")
    canonical_form(graph, S3, w)
    assert 0 < calls["adjacent"] <= 8 * n


def test_gp_invert_checks_each_coefficient_once(monkeypatch):
    graph, n = line_graph(), 100
    # vertices two apart on the line never commute, so the word stays as built
    w = canonical_form(graph, C5, [Syllable(("c", 2 * i), 1 + i % 4) for i in range(n)])
    assert len(w) == n
    calls = _count_calls(monkeypatch, Cyclic, "contains")
    inverse = gp_invert(graph, C5, Word(tuple(w)))  # unrecorded: each value tested once
    assert calls["contains"] == n
    calls.clear()
    assert gp_invert(graph, C5, w) == inverse  # recorded against C5: not tested again
    assert calls["contains"] == 0
    assert canonical_form(graph, C5, tuple(w) + tuple(inverse)) == EMPTY_WORD


def test_gp_invert_rejects_a_value_before_inverting_it():
    # Cyclic(5)._invert(7) would return the valid residue 3
    with pytest.raises(GroupError):
        gp_invert(line_graph(), C5, Word((Syllable(("c", 0), 7),)))


def test_triviality_agrees_with_bfs_short_words():
    rng = random.Random(29)
    for _ in range(300):
        w = random_word(P3, C2, rng, max_len=4)
        trivial = canonical_form(P3, C2, w).is_empty
        assert trivial == bfs_trivial(P3, C2, tuple(w))


def test_canonical_equality_is_group_equality_exhaustive():
    # two words are equal in the group iff w1 * w2^-1 reduces to nothing;
    # order-two values make the reversed word its own inverse
    from tests.support import all_short_words

    words = [Word(w) for w in all_short_words(P3.vertices, [1], max_len=3)]
    forms = [canonical_form(P3, C2, w) for w in words]
    for i, w1 in enumerate(words):
        for j, w2 in enumerate(words):
            concat = tuple(w1) + tuple(reversed(tuple(w2)))
            assert (forms[i] == forms[j]) == bfs_trivial(P3, C2, concat)


def test_concatenation_identity_law():
    line = line_graph()
    w = word(C2, [(("c", 0), 1), (("c", 3), 1)])
    assert canonical_form(line, C2, tuple(w) + tuple(EMPTY_WORD)) == canonical_form(line, C2, w)


def test_concatenation_order_two_cancels():
    line = line_graph()
    a0 = word(C2, [(("c", 0), 1)])
    assert canonical_form(line, C2, tuple(a0) + tuple(a0)) == EMPTY_WORD


def test_gp_invert_sorts_commuting_result():
    line = line_graph()
    w = word(C3, [(("c", 0), 1), (("c", 1), 2)])
    inv = gp_invert(line, C3, w)
    assert inv == Word((Syllable(("c", 0), 2), Syllable(("c", 1), 1)))
    assert canonical_form(line, C3, tuple(w) + tuple(inv)) == EMPTY_WORD


@pytest.mark.parametrize(
    "graph,delta",
    [(line_graph(), S3), (two_orbit_graph(), C3)],
    ids=["line-s3", "two-orbit-c3"],
)
def test_group_laws_sampled(graph, delta):
    rng = random.Random(31)
    for _ in range(300):
        w1 = random_word(graph, delta, rng, max_len=4, window=3)
        w2 = random_word(graph, delta, rng, max_len=4, window=3)
        w3 = random_word(graph, delta, rng, max_len=4, window=3)
        w12 = canonical_form(graph, delta, tuple(w1) + tuple(w2))
        w23 = canonical_form(graph, delta, tuple(w2) + tuple(w3))
        left = canonical_form(graph, delta, tuple(w12) + tuple(w3))
        right = canonical_form(graph, delta, tuple(w1) + tuple(w23))
        assert left == right
        inverse = gp_invert(graph, delta, w1)
        assert canonical_form(graph, delta, tuple(w1) + tuple(inverse)) == EMPTY_WORD


def test_canonical_vertices_examples():
    line = line_graph()
    assert canonical_form(line, C2, EMPTY_WORD).vertices() == frozenset()
    w = Word((syl(("c", 0)), syl(("c", 2)), syl(("c", 0))))
    assert canonical_form(line, C2, w).vertices() == frozenset({("c", 0), ("c", 2)})
    collapsing = Word((syl(("c", 1)), syl(("c", 0)), syl(("c", 1))))
    assert canonical_form(line, C2, collapsing).vertices() == frozenset({("c", 0)})


def test_retract_examples():
    line = line_graph()
    w = word(C2, [(("c", 0), 1), (("c", 1), 1)])
    assert retract(line, C2, w, {("c", 0)}) == word(C2, [(("c", 0), 1)])
    assert retract(line, C2, w, {("c", 0), ("c", 1)}) == canonical_form(line, C2, w)
    collapsing = Word((syl(("c", 1)), syl(("c", 0)), syl(("c", 1))))
    assert retract(line, C2, collapsing, {("c", 1)}) == EMPTY_WORD


def test_retract_is_homomorphism():
    rng = random.Random(37)
    graph, delta = two_orbit_graph(), C3
    keep = {("a", 0), ("a", 1), ("b", 2)}
    for _ in range(500):
        w1 = random_word(graph, delta, rng, max_len=4, window=3)
        w2 = random_word(graph, delta, rng, max_len=4, window=3)
        product = canonical_form(graph, delta, tuple(w1) + tuple(w2))
        retracts = tuple(retract(graph, delta, w1, keep)) + tuple(retract(graph, delta, w2, keep))
        assert retract(graph, delta, product, keep) == canonical_form(graph, delta, retracts)


def test_retract_fixes_words_supported_inside():
    # words supported on an induced subgraph embed, and retracting is a
    # one-sided inverse of that embedding
    rng = random.Random(41)
    graph, delta = line_graph(), S3
    keep = {("c", 0), ("c", 1), ("c", 4)}
    # the induced subgraph, as a rank-0 finite-mode graph on positions
    order = sorted(keep, key=graph.vertex_key)
    position = {v: i for i, v in enumerate(order)}
    edges = frozenset(
        (position[v], position[w])
        for i, v in enumerate(order) for w in order[i + 1:] if graph.adjacent(v, w)
    )
    sub = FiniteModeGraph(tuple(range(len(order))), edges)
    for _ in range(500):
        n = rng.randint(0, 4)
        sylls = [
            Syllable(rng.choice(sorted(keep)), random_nontrivial(delta, rng))
            for _ in range(n)
        ]
        w = Word(tuple(sylls))
        embedded = canonical_form(graph, delta, w)
        assert retract(graph, delta, w, keep) == embedded
        relabelled = [Syllable(position[s.vertex], s.value) for s in sylls]
        assert [
            Syllable(order[s.vertex], s.value) for s in canonical_form(sub, delta, relabelled)
        ] == list(embedded.syllables)


def test_push_forward_identity_maps():
    line = line_graph()
    w = word(C2, [(("c", 2), 1), (("c", 0), 1)])
    out = push_forward(line, C2, w, lambda v: v, line)
    assert out == canonical_form(line, C2, w)


def test_push_forward_line_mod4():
    line = line_graph()
    q = quotient_graph(line, 4)
    w = word(C2, [(("c", 0), 1), (("c", 2), 1)])
    out = push_forward(line, C2, w, q.project, q)
    assert len(out) == 2
    assert [s.vertex for s in out] == [("c", 0), ("c", 2)]


def test_push_forward_loop_obstruction():
    fact = factorial_graph(0)
    q = quotient_graph(fact, 4)  # loops at every vertex
    w = word(S3, [(("c", 0), (1, 0, 2))])
    with pytest.raises(LoopObstruction):
        push_forward(fact, S3, w, q.project, q)


def test_push_forward_loops_fine_for_abelian():
    fact = factorial_graph(0)
    q = quotient_graph(fact, 4)
    w = word(C2, [(("c", 0), 1)])
    out = push_forward(fact, C2, w, q.project, q)
    assert len(out) == 1


def test_push_forward_unmapped_vertex():
    line = line_graph()
    q = quotient_graph(line, 3)
    w = word(C2, [(("c", 0), 1)])
    with pytest.raises(WordError):
        push_forward(line, C2, w, {}, q)


def test_push_forward_is_homomorphism():
    rng = random.Random(43)
    line = line_graph()
    q = quotient_graph(line, 5)
    for _ in range(500):
        w1 = random_word(line, C3, rng, max_len=4, window=3)
        w2 = random_word(line, C3, rng, max_len=4, window=3)
        image_of_product = push_forward(
            line, C3, canonical_form(line, C3, tuple(w1) + tuple(w2)), q.project, q
        )
        product_of_images = canonical_form(
            q,
            C3,
            tuple(push_forward(line, C3, w1, q.project, q))
            + tuple(push_forward(line, C3, w2, q.project, q)),
        )
        assert image_of_product == product_of_images
