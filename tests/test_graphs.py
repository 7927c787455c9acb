import copy
import itertools
import math
import pickle
import random
import time
from collections import Counter

import pytest

from gwreath import (
    ArithmeticOffsets,
    Cyclic,
    FactorialOffsets,
    FiniteModeGraph,
    FiniteOffsets,
    GraphError,
    GroupError,
    Syllable,
    TranslationGraph,
    Word,
    WordError,
    canonical_form,
    is_complete,
    orbit_counts,
    quotient_graph,
    residues_of,
)
from gwreath import graphs
from gwreath.graphs import (
    contains_offset,
    covers_all_nonzero,
    enumerate_subgroups,
)

from tests.support import (
    brute_factorial_residues,
    brute_quotient,
    close_permutations,
    complete_z_graph,
    hits_mismatches,
    cycle_graph,
    factorial_graph,
    k5_cyclic,
    ladder_graph,
    line_graph,
    offsets_graph,
    prime_cycles_graph,
    random_translation_graph,
    random_vertex,
    reference_covers_all_nonzero,
    reference_enumerate_subgroups,
    reference_perm_of,
    reference_translation_quotient,
    torus_graph,
    two_orbit_graph,
)


# ---------------------------------------------------------------------------
# families


def test_family_membership():
    fin = FiniteOffsets(frozenset({1}))
    assert fin.contains(1) and fin.contains(-1)
    assert not fin.contains(2) and not fin.contains(0)

    fact = FactorialOffsets(0)
    for d in (1, 2, 6, 24, 120, -6):
        assert fact.contains(d)
    for d in (0, 4, 5, 25, -7):
        assert not fact.contains(d)

    shifted = FactorialOffsets(1)
    assert shifted.contains(2) and shifted.contains(7) and shifted.contains(-3)
    assert not shifted.contains(1) and not shifted.contains(4)

    arith = ArithmeticOffsets(1, 2)
    assert arith.contains(3) and arith.contains(-5)
    assert not arith.contains(2) and not arith.contains(0)


def test_family_constructors_exclude_zero():
    with pytest.raises(GraphError):
        FiniteOffsets(frozenset({0, 1}))
    with pytest.raises(GraphError):
        ArithmeticOffsets(0, 1)
    with pytest.raises(GraphError):
        FactorialOffsets(-1)


def test_families_symmetric_by_construction():
    f = FiniteOffsets(frozenset({3, -7}))
    assert f.offsets == frozenset({3, -3, 7, -7})


def test_residues_examples():
    assert FactorialOffsets(0).residues(4) == frozenset({0, 1, 2, 3})
    assert FactorialOffsets(1).residues(4) == frozenset({1, 2, 3})
    assert ArithmeticOffsets(1, 1).residues(3) == frozenset({0, 1, 2})
    assert FiniteOffsets(frozenset({1})).residues(3) == frozenset({1, 2})


def test_residues_rejects_bad_modulus():
    with pytest.raises(GraphError):
        residues_of([FiniteOffsets(frozenset({1}))], 0)


@pytest.mark.parametrize("shift", [0, 1, 2, 5])
def test_factorial_residues_stabilize(shift):
    # the incremental formula must agree with a longer brute-force scan
    for m in range(1, 51):
        assert FactorialOffsets(shift).residues(m) == brute_factorial_residues(
            shift, m
        )


@pytest.mark.parametrize("start,step", [(1, 1), (2, 3), (5, 2), (4, 4)])
def test_arithmetic_residues_brute(start, step):
    family = ArithmeticOffsets(start, step)
    for m in range(1, 31):
        brute = set()
        for k in range(4 * m):
            brute.add((start + step * k) % m)
            brute.add((-(start + step * k)) % m)
        assert family.residues(m) == frozenset(brute)


HITS_FAMILIES = [
    FiniteOffsets(frozenset({1})),
    FiniteOffsets(frozenset({2, 5, 7})),
    FiniteOffsets(frozenset({3, 12, 40})),
    FactorialOffsets(0),
    FactorialOffsets(1),
    FactorialOffsets(5),
    FactorialOffsets(24),
    FactorialOffsets(36),
    ArithmeticOffsets(1, 3),
    ArithmeticOffsets(2, 2),
    ArithmeticOffsets(4, 6),
]


@pytest.mark.parametrize("family", HITS_FAMILIES, ids=repr)
def test_hits_agrees_with_residue_sets(family):
    assert hits_mismatches(family, range(1, 257), range(-60, 61)) == []


def test_hits_examples():
    assert FactorialOffsets(1).hits(3, 4) and not FactorialOffsets(1).hits(0, 4)
    assert ArithmeticOffsets(2, 2).hits(0, 7) and not ArithmeticOffsets(4, 6).hits(1, 6)
    assert FiniteOffsets(frozenset({2})).hits(-9, 11) and not FiniteOffsets(frozenset()).hits(0, 1)


# ---------------------------------------------------------------------------
# adjacency and the action


def test_families_for_reads_both_orientations():
    g = TranslationGraph(
        ("a", "b", "c"),
        {("b", "a"): (FiniteOffsets(frozenset({2})),), ("c", "c"): (FactorialOffsets(1),)},
    )
    assert g.families_for("a", "b") == g.families_for("b", "a") == (FiniteOffsets(frozenset({2})),)
    assert g.families_for("a", "c") == g.families_for("a", "a") == ()
    assert g.adjacent(("b", 2), ("a", 0)) and g.adjacent(("a", 0), ("b", 2))
    for c1, c2 in (("a", "x"), ("x", "a"), ("x", "x")):
        with pytest.raises(GraphError, match="unknown orbit label 'x'"):
            g.families_for(c1, c2)
    assert g == TranslationGraph(g.labels, g.families)  # the table is no field


def test_adjacency_examples():
    line = line_graph()
    assert line.adjacent(("c", 0), ("c", 1))
    assert not line.adjacent(("c", 0), ("c", 2))
    fact = factorial_graph(0)
    assert fact.adjacent(("c", 0), ("c", 6))
    assert not fact.adjacent(("c", 0), ("c", 4))


def test_adjacency_cross_orbit():
    g = two_orbit_graph()
    assert g.adjacent(("a", 0), ("b", 2))
    assert g.adjacent(("b", 2), ("a", 0))
    assert g.adjacent(("a", 0), ("b", -2))
    assert not g.adjacent(("a", 0), ("b", 1))
    assert not g.adjacent(("a", 0), ("b", 0))


def test_translation_adjacency_table_matches_the_families():
    # each pair's finite offsets are merged into one set beside its
    # infinite families; half the pairs get a second, finite family
    rng = random.Random(71)
    for _ in range(200):
        base = random_translation_graph(rng)
        families = {}
        for pair, fams in base.families.items():
            if rng.random() < 0.5:
                fams += (FiniteOffsets(frozenset({rng.randint(1, 9)})),)
            families[pair] = fams
        graph = TranslationGraph(base.labels, families)
        for c1, c2 in itertools.product(graph.labels, repeat=2):
            fams = graph.families_for(c1, c2)
            x = rng.randint(-20, 20)
            for d in range(-60, 61):
                expected = contains_offset(fams, d)
                assert graph.adjacent((c1, x), (c2, x + d)) == expected, (families, c1, c2, d)


@pytest.mark.parametrize(
    "graph",
    [cycle_graph(n) for n in range(3, 13)] + [torus_graph(n) for n in range(2, 6)] + [k5_cyclic()],
    ids=repr,
)
def test_finite_mode_adjacency_matches_the_edge_set(graph):
    for u, w in itertools.product(graph.vertices, repeat=2):
        assert graph.adjacent(u, w) == ((min(u, w), max(u, w)) in graph.edges), (u, w)


def test_has_vertex_rejects_malformed_vertices():
    line = line_graph()
    assert line.has_vertex(("c", -3))
    for v in ((["c"], 0), ("x", 0), ("c", 1.0), ("c",), ["c", 0], "c", None):
        assert line.has_vertex(v) is False, v


def test_bools_are_no_vertices():
    # True equals 1 and hashes like it, but no reader parses it back: a
    # word at ("c", True) would print as c:True, so every graph kind
    # rejects it, as group membership rejects bool values
    line, torus = line_graph(), torus_graph(3)
    quotients = (quotient_graph(line, 4), quotient_graph(torus, [(1, 0)]))
    for graph, good, bad in (
        (line, ("c", 1), ("c", True)),
        (torus, 1, True),
        (torus, 0, False),
        (quotients[0], ("c", 1), ("c", True)),
        (quotients[1], 0, False),
    ):
        assert graph.has_vertex(good) and not graph.has_vertex(bad), (graph, bad)
        with pytest.raises(GraphError):
            graph.check_vertex(bad)
        with pytest.raises(WordError, match="does not belong to the graph"):
            canonical_form(graph, Cyclic(2), [Syllable(bad, 1)])
    with pytest.raises(GraphError, match="is not an int"):
        FiniteModeGraph((True, 2), frozenset(), ())


def test_act_examples():
    line = line_graph()
    assert line.act(3, ("c", 2)) == ("c", 5)
    assert line.act(0, ("c", -1)) == ("c", -1)
    cycle = FiniteModeGraph(
        (0, 1, 2, 3, 4),
        frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}),
        ((1, 2, 3, 4, 0),),
    )
    assert cycle.act((7,), 0) == 2
    assert cycle.act((0,), 3) == 3
    assert cycle.act((-1,), 0) == 4


def test_act_checks_gamma():
    # a gamma outside the acting group, of any type or length, is a GroupError
    for gamma in (1.5, (1,), "1"):
        with pytest.raises(GroupError):
            line_graph().act(gamma, ("c", 0))
    torus = torus_graph(3)
    for gamma in ((1.0, 0), (0, 1.5)):
        with pytest.raises(GroupError):
            torus.act(gamma, 0)
        with pytest.raises(GroupError):
            torus.perm_of(gamma)
    for gamma in ((1,), (1, 0, 0)):
        with pytest.raises(GroupError):
            torus.act(gamma, 0)
    assert torus.act((1, 0), 0) == torus.perm_of((1, 0))[0]


@pytest.mark.parametrize("graph", [line_graph(), factorial_graph(1), two_orbit_graph()], ids=repr)
def test_act_preserves_adjacency_translation(graph):
    rng = random.Random(5)
    for _ in range(1000):
        gamma = rng.randint(-10, 10)
        v = random_vertex(graph, rng)
        w = random_vertex(graph, rng)
        assert graph.adjacent(v, w) == graph.adjacent(graph.act(gamma, v), graph.act(gamma, w))


def test_act_preserves_adjacency_finite():
    graph = k5_cyclic()
    rng = random.Random(6)
    for _ in range(500):
        gamma = (rng.randint(-7, 7),)
        v = random_vertex(graph, rng)
        w = random_vertex(graph, rng)
        assert graph.adjacent(v, w) == graph.adjacent(graph.act(gamma, v), graph.act(gamma, w))


def test_finite_mode_validation():
    with pytest.raises(GraphError):  # loop
        FiniteModeGraph((0, 1), frozenset({(0, 0)}), ())
    with pytest.raises(GraphError):  # not a permutation
        FiniteModeGraph((0, 1), frozenset({(0, 1)}), ((0, 0),))
    with pytest.raises(GraphError):  # breaks the edge set
        FiniteModeGraph((0, 1, 2), frozenset({(0, 1)}), ((0, 2, 1),))
    with pytest.raises(GraphError):  # generators do not commute
        FiniteModeGraph((0, 1, 2), frozenset(), ((1, 0, 2), (0, 2, 1)))


# (name, vertices, edges, generators, the culprit the error names)
FINITE_MODE_ERRORS = [
    ("loop", (0, 1), {(0, 1), (0, 0)}, (), ("edge", (0, 0))),
    ("unknown-vertex", (0, 1, 2), {(1, 5)}, (), ("edge", (1, 5))),
    ("not-a-permutation", (0, 1), {(0, 1)}, ((1, 0), (0, 0)), ("generator", (0, 0))),
    ("edges-not-preserved", (0, 1, 2), {(0, 1)}, ((0, 1, 2), (0, 2, 1)), ("generator", (0, 2, 1))),
    ("not-commuting", (0, 1, 2), set(), ((1, 0, 2), (0, 2, 1)), ("generator", (0, 2, 1))),
    ("repeated-vertex", (0, 1, 1), set(), (), None),
    ("bool-vertex", (True, 2), set(), (), None),
]


@pytest.mark.parametrize(
    "vertices, edges, generators, culprit",
    [case[1:] for case in FINITE_MODE_ERRORS],
    ids=[case[0] for case in FINITE_MODE_ERRORS],
)
def test_finite_mode_errors_name_their_culprit(vertices, edges, generators, culprit):
    # the instance parser maps the culprit back to the line that gave it
    with pytest.raises(GraphError) as info:
        FiniteModeGraph(vertices, frozenset(edges), generators)
    assert info.value.culprit == culprit


def test_translation_graph_rejects_repeated_labels():
    with pytest.raises(GraphError, match="orbit labels must be distinct") as info:
        TranslationGraph(("c", "d", "c"))
    assert info.value.culprit is None


def test_translation_graph_rejects_families_of_unknown_or_repeated_pairs():
    fin = (FiniteOffsets(frozenset({1})),)
    with pytest.raises(GraphError, match="unknown label in \\('a', 'z'\\)"):
        TranslationGraph(("a", "b"), {("a", "z"): fin})
    with pytest.raises(GraphError, match="duplicate family entry for pair \\('a', 'b'\\)"):
        TranslationGraph(("a", "b"), {("a", "b"): fin, ("b", "a"): fin})


def test_finite_mode_check_vertex():
    torus = torus_graph(3)
    torus.check_vertex(8)
    for bad in (9, -1, True, (0,), "0"):
        with pytest.raises(GraphError, match="is not a vertex of this graph"):
            torus.check_vertex(bad)


# ---------------------------------------------------------------------------
# quotients


def test_quotient_line_mod3_is_triangle():
    q = quotient_graph(line_graph(), 3)
    assert len(q.vertices) == 3
    assert len(q.edges) == 3
    assert not q.loops
    edges, loops = brute_quotient(line_graph(), 3)
    assert q.edges == frozenset(edges) and q.loops == frozenset(loops)


def test_quotient_line_mod2_is_single_edge():
    q = quotient_graph(line_graph(), 2)
    assert len(q.vertices) == 2
    assert q.edges == frozenset({(("c", 0), ("c", 1))})
    assert not q.loops
    edges, loops = brute_quotient(line_graph(), 2)
    assert q.edges == frozenset(edges) and q.loops == frozenset(loops)


def test_quotient_factorial_mod4_complete_with_loops():
    q = quotient_graph(factorial_graph(0), 4)
    assert len(q.vertices) == 4
    assert len(q.edges) == 6  # complete on 4 vertices
    assert q.loops == frozenset(q.vertices)
    edges, loops = brute_quotient(factorial_graph(0), 4, window=40)
    assert q.edges == frozenset(edges) and q.loops == frozenset(loops)


@pytest.mark.parametrize(
    "graph",
    [line_graph(), offsets_graph(1, 3), offsets_graph(2, 5), two_orbit_graph()],
    ids=repr,
)
def test_quotient_matches_brute_force(graph):
    for m in range(1, 13):
        q = quotient_graph(graph, m)
        edges, loops = brute_quotient(graph, m)
        assert q.edges == frozenset(edges), f"modulus {m}"
        assert q.loops == frozenset(loops), f"modulus {m}"


@pytest.mark.parametrize(
    "graph",
    [line_graph(), ladder_graph(), two_orbit_graph(), factorial_graph(0), factorial_graph(1),
     factorial_graph(5), complete_z_graph(),
     TranslationGraph(("a", "b"), {("a", "a"): (ArithmeticOffsets(2, 2),),
                                   ("a", "b"): (ArithmeticOffsets(1, 3), FactorialOffsets(2))})],
    ids=repr,
)
def test_quotient_matches_quadratic_reference(graph):
    for m in range(1, 41):
        assert quotient_graph(graph, m) == reference_translation_quotient(graph, m), f"modulus {m}"


def test_quotient_act_checks_its_vertex():
    q = quotient_graph(line_graph(), 6)
    assert q.act(2, ("c", 5)) == ("c", 1)
    for foreign in (("c", 7), ("c", -1), ("x", 0), 3):
        with pytest.raises(GraphError, match="is not an orbit"):
            q.act(0, foreign)


def test_quotient_rejects_unhashable_vertices_and_foreign_residues():
    # as on the other graph kinds: a list is no vertex, and a residue is
    # checked against the acting group, as ``act_word`` checks it
    q = quotient_graph(line_graph(), 6)
    for graph in (q, line_graph(), torus_graph(3)):
        assert not graph.has_vertex(["c", 1])
    with pytest.raises(WordError, match="does not belong to the graph"):
        canonical_form(q, Cyclic(2), Word((Syllable(["c", 1], 1),)))
    with pytest.raises(GraphError, match="is not an orbit"):
        q.act(0, ["c", 1])
    for residue in (1.5, -1, 6, "1"):
        with pytest.raises(GroupError):
            q.act(residue, ("c", 0))
    assert q.act(5, ("c", 3)) == ("c", 2)


def test_quotient_vertex_key_names_an_unknown_label():
    q = quotient_graph(two_orbit_graph(), 3)
    assert q.vertex_key(("b", 2)) == (1, 2)
    with pytest.raises(GraphError, match="unknown orbit label 'z'"):
        q.vertex_key(("z", 0))


def test_finite_quotient_has_no_residue_action():
    # only cosets act on a finite-mode quotient's orbits
    q = quotient_graph(k5_cyclic(), [])
    assert q.acting is None
    for operation in (lambda: q.action(1), lambda: q.act(0, 0)):
        with pytest.raises(GraphError, match="requires a coset"):
            operation()


def test_quotient_equality_is_only_against_quotients():
    q = quotient_graph(line_graph(), 3)
    assert q == quotient_graph(line_graph(), 3) and q != quotient_graph(line_graph(), 4)
    assert q.__eq__(q.content()) is NotImplemented
    for other in (q.content(), line_graph(), None, 3):
        assert q != other and not q == other, other


def test_quotient_modulus_one_has_one_vertex_per_orbit():
    for graph in (line_graph(), two_orbit_graph(), factorial_graph(1)):
        q = quotient_graph(graph, 1)
        assert len(q.vertices) == len(graph.labels)


def test_quotient_projects_onto_residue_orbits():
    q = quotient_graph(line_graph(), 5)
    for (c, r) in q.vertices:
        assert q.project((c, r + 35)) == (c, r)


def test_quotient_rejects_bad_modulus():
    with pytest.raises(GraphError):
        quotient_graph(line_graph(), 0)


def test_finite_quotient_trivial_subgroup_is_identity():
    k5 = k5_cyclic()
    q = quotient_graph(k5, [])
    assert q.vertices == tuple(range(5))
    assert len(q.edges) == 10
    assert not q.loops


def test_finite_quotient_full_subgroup_collapses():
    k5 = k5_cyclic()
    q = quotient_graph(k5, [(1,)])
    assert q.vertices == (0,)
    assert q.loops == frozenset({0})
    assert q.project(3) == 0


def test_finite_quotient_rejects_bad_generators():
    # a generator is a gamma vector of the graph's rank, with integer
    # coordinates; a permutation dict is not one, even with rank keys
    k5 = k5_cyclic()
    rotation = dict(zip(k5.vertices, k5.generators[0]))
    for bad in [(1, 0)], [()], [(1.5,)], [("1",)], [[1]], [1], [{0: 1}], [rotation]:
        with pytest.raises(GraphError):
            quotient_graph(k5, bad)


def test_enumerate_subgroups_of_c6():
    cycle6 = FiniteModeGraph(
        tuple(range(6)),
        frozenset({(i, (i + 1) % 6) for i in range(6)}),
        ((1, 2, 3, 4, 5, 0),),
    )
    subs = enumerate_subgroups(cycle6)
    assert [len(s) for s in subs] == [6, 3, 2, 1]  # ascending index 1,2,3,6


def _as_perm_tuples(graph, subgroups):
    verts = graph.vertices
    return [tuple(sorted(tuple(p[v] for v in verts) for p in sub)) for sub in subgroups]


def _degenerate_graphs():
    """No vertex (ranks 0 and 1), one vertex (rank 2), rank 0 on three
    vertices, and ids that are not positions under two generators with
    fixed points and cycles of lengths 1 to 4: (0 1 2)(3 4) and
    (3 4)(5 6 7 8), with 9 fixed by both."""
    ids = tuple(10 * v + 3 for v in range(10))

    def perm(*cycles):
        image = list(range(10))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                image[a] = b
        return tuple(ids[i] for i in image)

    edges = {(0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (6, 7), (7, 8), (5, 8)}
    mixed = FiniteModeGraph(
        ids, frozenset((ids[u], ids[w]) for u, w in edges),
        (perm((0, 1, 2), (3, 4)), perm((3, 4), (5, 6, 7, 8))),
    )
    return [
        FiniteModeGraph((), frozenset(), ()),
        FiniteModeGraph((), frozenset(), ((),)),
        FiniteModeGraph((7,), frozenset(), ((7,), (7,))),
        FiniteModeGraph((0, 1, 2), frozenset({(0, 1)}), ()),
        mixed,
    ]


def _image_reference_graphs():
    """Cyclic, rank-2 and non-faithful actions (a rotation given twice),
    and two of rank 3: disjoint 2-, 3- and 4-cycles each rotated by its
    own generator (image order 24), and C6 under its rotation, the
    rotation's square and the identity (a trivial generator and a
    kernel that is not diagonal); then ``_degenerate_graphs``."""
    rotation = tuple((i + 1) % 6 for i in range(6))
    kernel = FiniteModeGraph(tuple(range(6)), cycle_graph(6).edges, (rotation, rotation))
    square = tuple(rotation[v] for v in rotation)
    kernel3 = FiniteModeGraph(
        tuple(range(6)), cycle_graph(6).edges, (rotation, square, tuple(range(6)))
    )
    cycles = prime_cycles_graph((2, 3, 4))
    own = tuple(
        tuple(cycles.generators[0][v] if start <= v < end else v for v in cycles.vertices)
        for start, end in ((0, 2), (2, 5), (5, 9))
    )
    graphs = [cycle_graph(n) for n in range(1, 31)]
    graphs += [torus_graph(n) for n in range(2, 7)]
    own_cycles = FiniteModeGraph(cycles.vertices, cycles.edges, own)
    return graphs + [k5_cyclic(), kernel, kernel3, own_cycles] + _degenerate_graphs()


def test_enumerate_subgroups_matches_reference():
    # the same subgroups in the same order as the join-of-cyclics closure
    # over permutation dicts
    for graph in _image_reference_graphs():
        expected = _as_perm_tuples(graph, reference_enumerate_subgroups(graph))
        assert enumerate_subgroups(graph) == expected, graph


def test_subgroup_table_entries_match_their_permutations():
    # each entry's index times its order is the image's order, and its
    # orbit map names each vertex's orbit, read off the permutations
    for graph in _image_reference_graphs():
        image = len(graph._subgroups[0][1])
        for index, perms, orbits in graph._subgroups:
            assert index * len(perms) == image, graph
            orbit = {v: {p[k] for p in perms} for k, v in enumerate(graph.vertices)}
            assert orbits == {v: min(orbit[v]) for v in graph.vertices}, graph


def test_perm_of_matches_dict_composition():
    # the cycle read-off agrees with composing generator dicts
    big = 10**9 + 7
    for graph in _image_reference_graphs():
        gammas = list(itertools.product(range(-7, 8), repeat=graph.rank))
        gammas.append(tuple((-1) ** i * big for i in range(graph.rank)))
        for gamma in gammas:
            expected = reference_perm_of(graph, gamma)
            assert graph.perm_of(gamma) == tuple(expected[v] for v in graph.vertices), gamma


def test_finite_mode_graph_copies_act_the_same():
    # the cycle runs are derived state; a copy, deep copy or pickle carries
    # them, so none may hold a lambda, and each acts as the original does
    copiers = [copy.copy, copy.deepcopy] + [
        lambda graph, protocol=protocol: pickle.loads(pickle.dumps(graph, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for graph in [torus_graph(4), prime_cycles_graph((2, 3, 5))] + _degenerate_graphs():
        gammas = list(itertools.product(range(-3, 4), repeat=graph.rank))
        expected = [graph.perm_of(gamma) for gamma in gammas]
        for copier in copiers:
            duplicate = copier(graph)
            assert duplicate == graph
            assert [duplicate.perm_of(gamma) for gamma in gammas] == expected, graph
            for gamma in gammas[:5]:
                move, moved = graph.action(gamma), duplicate.action(gamma)
                assert [moved(v) for v in graph.vertices] == [move(v) for v in graph.vertices]
            assert enumerate_subgroups(duplicate) == enumerate_subgroups(graph)


def test_perm_of_on_an_image_far_larger_than_the_vertex_set():
    # order 30030 on 41 vertices: read off the cycles, with no image table
    graph = prime_cycles_graph()
    for k in (-3, -1, 0, 1, 2, 30029, 30031, 10**9 + 7):
        expected = reference_perm_of(graph, (k,))
        assert graph.perm_of((k,)) == tuple(expected[v] for v in graph.vertices), k
    assert "_subgroups" not in vars(graph)


def test_perm_of_checks_the_rank():
    for gamma in ((1,), (1, 0, 0), 1):
        with pytest.raises(GroupError, match="is not an element of"):
            torus_graph(3).perm_of(gamma)


def test_subgroups_share_the_image_tuples():
    graph = prime_cycles_graph((2, 3, 5, 7, 11))
    image = {id(p) for p in graph._subgroups[0][1]}
    assert len(image) == 2310
    assert all(id(p) in image for sub in enumerate_subgroups(graph) for p in sub)


def test_subgroup_lists_are_closed_and_normalized():
    graph = torus_graph(4)
    position = graph._position
    for _, perms, orbits in graph._subgroups:
        assert list(perms) == sorted(set(perms))
        members = set(perms)
        assert all(tuple(p[position[v]] for v in q) in members for p in perms for q in perms)
        assert len(set(orbits.values())) * len(perms) == len(graph.vertices)  # free action


def _closed_orbit_map(graph, maps):
    """Each vertex to the least of its images over the closed element
    list of the group that the vertex dicts ``maps`` generate."""
    elements = close_permutations(maps, graph.vertices)
    return {v: min(p[v] for p in elements) for v in graph.vertices}


def test_orbits_match_closed_element_lists():
    # the image's orbit map, each table entry's, the quotient by a random
    # gamma set and both orbit counts, against the closed element lists
    rng = random.Random(151)
    for graph in _image_reference_graphs():
        generators = [dict(zip(graph.vertices, g)) for g in graph.generators]
        assert graph._orbit_map == _closed_orbit_map(graph, generators), graph
        for _, perms, orbits in graph._subgroups:
            maps = [dict(zip(graph.vertices, p)) for p in perms]
            assert orbits == _closed_orbit_map(graph, maps), graph
        for _ in range(4):
            gammas = [tuple(rng.randint(-7, 7) for _ in range(graph.rank))
                      for _ in range(rng.randint(0, 3))]
            omap = _closed_orbit_map(graph, [reference_perm_of(graph, g) for g in gammas])
            q = quotient_graph(graph, gammas)
            assert q.orbit_map == omap, (graph, gammas)
            assert q.vertices == tuple(sorted(set(omap.values())))
            assert q.edges == {tuple(sorted((omap[u], omap[w]))) for u, w in graph.edges
                               if omap[u] != omap[w]}
            assert q.loops == {omap[u] for u, w in graph.edges if omap[u] == omap[w]}
        image = close_permutations(generators, graph.vertices)
        vertex_orbits = {frozenset(p[v] for p in image) for v in graph.vertices}
        edge_orbits = {frozenset(frozenset((p[u], p[w])) for p in image) for u, w in graph.edges}
        assert orbit_counts(graph) == (len(vertex_orbits), len(edge_orbits))


def test_finite_mode_orbits_come_from_one_routine():
    # no orbit map over element lists, no closure of a generating set,
    # and no image apart from the subgroup table's index-1 entry
    assert not hasattr(graphs, "orbit_map")
    assert not hasattr(graphs, "normalize_subgroup")
    assert not hasattr(FiniteModeGraph, "_image")
    graph = torus_graph(3)
    assert graph._subgroups[0][0] == 1
    assert graph._subgroups[0][2] is graph._orbit_map


# ---------------------------------------------------------------------------
# orbit counts and completeness


def test_orbit_counts_examples():
    assert orbit_counts(line_graph()) == (1, 1)
    assert orbit_counts(factorial_graph(0)) == (1, None)
    assert orbit_counts(k5_cyclic()) == (1, 2)


def test_orbit_counts_two_orbit():
    # one same-orbit offset class and one signed cross-orbit pair
    assert orbit_counts(two_orbit_graph()) == (2, 1 + 2)


def test_orbit_counts_complete_graph_infinite():
    assert orbit_counts(complete_z_graph()) == (1, None)


def test_covers_all_nonzero():
    assert covers_all_nonzero([ArithmeticOffsets(1, 1)])
    assert not covers_all_nonzero([ArithmeticOffsets(2, 2)])
    assert covers_all_nonzero([ArithmeticOffsets(1, 2), ArithmeticOffsets(2, 2)])
    assert covers_all_nonzero([ArithmeticOffsets(2, 1), FiniteOffsets(frozenset({1}))])
    assert not covers_all_nonzero([FactorialOffsets(0)])
    assert not covers_all_nonzero([FiniteOffsets(frozenset({1, 2}))])


def test_covers_all_nonzero_agrees_with_the_first_written_scan():
    rng = random.Random(59)
    seen = Counter()
    for _ in range(3000):
        families = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.25:
                families.append(FiniteOffsets(frozenset(rng.sample(range(1, 13), rng.randint(1, 4)))))
            else:
                families.append(ArithmeticOffsets(rng.randint(1, 12), rng.randint(1, 12)))
        covers = covers_all_nonzero(families)
        assert covers == reference_covers_all_nonzero(families), families
        seen[covers] += 1
    assert seen[True] >= 20 and seen[False] >= 20, seen
    # steps drawn so that a family's step often does not divide the lcm of the others
    seen = Counter()
    for _ in range(3000):
        families = [ArithmeticOffsets(rng.randint(1, 6), rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 10, 12)))
                    for _ in range(rng.randint(1, 5))]
        steps = [f.step for f in families]
        drops = any(math.lcm(*steps[:i], *steps[i + 1:]) % s for i, s in enumerate(steps))
        covers = covers_all_nonzero(families)
        assert covers == reference_covers_all_nonzero(families), families
        seen[covers, drops] += 1
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def test_covers_all_nonzero_drops_a_family_inside_another():
    # arithmetic 1 1 holds every nonzero offset, so the lcm is 1, not 1000003
    families = [ArithmeticOffsets(1, 1000003), ArithmeticOffsets(1, 1), ArithmeticOffsets(1, 1000003)]
    start = time.perf_counter()
    assert covers_all_nonzero(families)
    assert not covers_all_nonzero([ArithmeticOffsets(2, 2), ArithmeticOffsets(4, 1000002)])
    assert covers_all_nonzero([ArithmeticOffsets(1, 1)] * 2)  # equal families: one stays
    assert time.perf_counter() - start < 0.1


def test_covers_all_nonzero_drops_a_family_whose_step_does_not_divide_the_others_lcm():
    # the classes 1 and 2 mod 2 cover; a prime step beside them adds no
    # cover, so the lcm is 2, not 2 * 10000019
    start = time.perf_counter()
    for step in (1000003, 10000019):
        assert covers_all_nonzero([ArithmeticOffsets(1, 2), ArithmeticOffsets(2, 2),
                                   ArithmeticOffsets(1, step)])
        assert not covers_all_nonzero([ArithmeticOffsets(2, 2), ArithmeticOffsets(1, step)])
        assert not covers_all_nonzero([ArithmeticOffsets(4, 2), ArithmeticOffsets(1, 2),
                                       ArithmeticOffsets(3, step)])  # 2 is missed
    assert time.perf_counter() - start < 0.1


def test_is_complete():
    assert is_complete(complete_z_graph())
    assert not is_complete(line_graph())
    assert not is_complete(two_orbit_graph())
    assert is_complete(k5_cyclic())
    path = FiniteModeGraph((0, 1, 2), frozenset({(0, 1), (1, 2)}), ())
    assert not is_complete(path)


def test_residues_of_union():
    fams = [FiniteOffsets(frozenset({1})), FiniteOffsets(frozenset({5}))]
    assert residues_of(fams, 4) == frozenset({1, 3})
    assert fams[1].contains(-5)
