import itertools
import random
import tracemalloc

import pytest

from gwreath import (
    Cyclic,
    GraphError,
    GroupError,
    ParseError,
    QuotientGraph,
    lef_certificate,
    truncate_graph,
    verify_lef,
)
from gwreath import formats, lef

from tests.support import (
    factorial_graph,
    k5_cyclic,
    lef_satisfies,
    line_graph,
    max_finite_offset,
    offsets_graph,
    random_translation_graph,
    replace,
    two_orbit_graph,
)

C = "c"


def cv(*positions):
    return [(C, p) for p in positions]


# ---------------------------------------------------------------------------
# truncation


def test_truncate_factorial_keeps_realized_offsets():
    graph = factorial_graph(0)
    truncated, kept = truncate_graph(graph, cv(0, 1, 2))
    assert kept == {(C, C): frozenset({1, 2})}
    fams = truncated.families_for(C, C)
    assert len(fams) == 1
    assert fams[0].offsets == frozenset({1, -1, 2, -2})


def test_truncate_singleton_is_edgeless():
    truncated, kept = truncate_graph(factorial_graph(0), cv(5))
    assert kept == {}
    assert truncated.families == {}


def test_truncate_line_with_far_apart_vertices():
    truncated, kept = truncate_graph(line_graph(), cv(0, 5))
    assert kept == {}
    assert truncated.families == {}


def test_truncate_preserves_adjacency_inside_the_set():
    rng = random.Random(89)
    for graph in (factorial_graph(0), factorial_graph(1), two_orbit_graph()):
        for _ in range(30):
            vertices = {
                (rng.choice(graph.labels), rng.randint(-8, 8)) for _ in range(rng.randint(1, 5))
            }
            truncated, _ = truncate_graph(graph, vertices)
            pool = sorted(vertices, key=graph.vertex_key)
            for i, v in enumerate(pool):
                for w in pool[i + 1 :]:
                    assert graph.adjacent(v, w) == truncated.adjacent(v, w)


def test_truncate_rejects_finite_mode():
    with pytest.raises(GraphError):
        truncate_graph(k5_cyclic(), [0, 1])


def test_lef_checks_each_acting_element_through_the_acting_group():
    for gamma_set in ([1.5], [(1,)], [(1.5,)], [0, "1"], [0, [1]], iter([0, (1,)])):
        with pytest.raises(GroupError, match="is not an element of"):
            lef_certificate(line_graph(), gamma_set, [(C, 0)])


# ---------------------------------------------------------------------------
# certificates


def test_factorial_model_uses_modulus_five():
    graph = factorial_graph(0)
    cert = lef_certificate(graph, [0, 1], cv(0, 1, 2))
    assert cert.q_spec == Cyclic(5)
    assert cert.truncation.modulus == 5
    # the finite graph is the full quotient on five vertices, no loops
    assert len(cert.y.vertices) == 5
    assert len(cert.y.edges) == 10
    assert not cert.y.loops
    assert verify_lef(cert, graph, [0, 1], cv(0, 1, 2))


def test_line_model_uses_modulus_four():
    graph = line_graph()
    cert = lef_certificate(graph, [0], cv(0, 1, 2))
    assert cert.q_spec == Cyclic(4)
    assert len(cert.y.vertices) == 4
    assert len(cert.y.edges) == 4  # the quotient is a 4-cycle
    assert not cert.y.loops
    assert verify_lef(cert, graph, [0], cv(0, 1, 2))


def test_empty_vertex_set_gives_trivial_model():
    graph = factorial_graph(0)
    cert = lef_certificate(graph, [0], [])
    assert cert.q_spec == Cyclic(1)
    assert cert.psi == {}
    assert not cert.y.edges
    assert verify_lef(cert, graph, [0], [])


def test_least_modulus_past_four_is_returned():
    graph = factorial_graph(0)
    prepared = lef._prepare(graph, [0, 1], cv(0, 1, 2))
    assert all(lef._certificate_at(prepared, m) is None for m in range(1, 5))
    cert = lef_certificate(graph, [0, 1], cv(0, 1, 2))
    assert cert.truncation.modulus == 5
    assert verify_lef(cert, graph, [0, 1], cv(0, 1, 2))


def test_least_modulus_past_the_old_default_bound():
    # T = 0..70 needs modulus 71, beyond the old default search bound 64
    graph = factorial_graph(0)
    cert = lef_certificate(graph, range(71), cv(0, 1, 2))
    assert cert.truncation.modulus == 71
    assert verify_lef(cert, graph, range(71), cv(0, 1, 2))


def test_the_scan_starts_at_the_size_of_t(monkeypatch):
    # no modulus below |T| keeps the |T| values of T apart, so T = 0..3999
    # takes one modulus where a scan from 1 would try 4000
    moduli = []
    certificate_at = lef._certificate_at
    monkeypatch.setattr(lef, "_certificate_at",
                        lambda prepared, m: moduli.append(m) or certificate_at(prepared, m))
    cert = lef_certificate(factorial_graph(0), range(4000), cv(0, 1, 2))
    assert moduli == [4000]
    assert cert.truncation.modulus == 4000


def test_least_modulus_equals_a_scan_from_one():
    rng = random.Random(137)
    for _ in range(300):
        graph = random_translation_graph(rng)
        gammas = {rng.randint(-9, 9) for _ in range(rng.randint(0, 5))}
        vertices = {(rng.choice(graph.labels), rng.randint(-9, 9)) for _ in range(rng.randint(0, 5))}
        prepared = lef._prepare(graph, gammas, vertices)
        least = next(m for m in itertools.count(1) if lef._certificate_at(prepared, m) is not None)
        assert lef_certificate(graph, gammas, vertices).truncation.modulus == least


def test_two_orbit_model():
    graph = two_orbit_graph()
    gammas = [0, 1]
    vertices = [("a", 0), ("a", 1), ("b", 2)]
    cert = lef_certificate(graph, gammas, vertices)
    assert verify_lef(cert, graph, gammas, vertices)


def test_the_distinctness_rule_alone_yields_certificates():
    # the exhaustive oracle accepts the search's certificate and the one
    # at every modulus up to 64 whose distinctness precheck passes
    rng = random.Random(131)
    accepted = 0
    for _ in range(500):
        graph = random_translation_graph(rng)
        gammas = sorted({rng.randint(-6, 6) for _ in range(rng.randint(1, 4))})
        vertices = sorted(
            {(rng.choice(graph.labels), rng.randint(-6, 6)) for _ in range(rng.randint(0, 5))},
            key=graph.vertex_key,
        )
        assert lef_satisfies(lef_certificate(graph, gammas, vertices), graph, gammas, vertices)
        prepared = lef._prepare(graph, gammas, vertices)
        for m in range(1, 65):
            cert = lef._certificate_at(prepared, m)
            if cert is not None:
                accepted += 1
                assert lef_satisfies(cert, graph, gammas, vertices), (graph, gammas, vertices, m)
    assert accepted > 10_000


# ---------------------------------------------------------------------------
# verification is strict


def _base_case():
    graph = factorial_graph(0)
    gammas = [0, 1]
    vertices = cv(0, 1, 2)
    cert = lef_certificate(graph, gammas, vertices)
    return graph, gammas, vertices, cert


def test_verify_rejects_merged_vertices():
    graph, gammas, vertices, cert = _base_case()
    merged = dict(cert.psi)
    merged[(C, 1)] = merged[(C, 0)]
    assert not verify_lef(replace(cert, psi=merged), graph, gammas, vertices)


def test_verify_rejects_dropped_edges():
    graph, gammas, vertices, cert = _base_case()
    y = cert.y
    pruned_edges = set(y.edges)
    pruned_edges.discard((cert.psi[(C, 0)], cert.psi[(C, 1)]))
    pruned_edges.discard((cert.psi[(C, 1)], cert.psi[(C, 0)]))
    pruned = QuotientGraph(
        y.kind, y.vertices, pruned_edges, y.loops,
        modulus=y.modulus, labels=y.labels,
    )
    assert not verify_lef(replace(cert, y=pruned), graph, gammas, vertices)


def test_verify_rejects_broken_equivariance():
    graph, gammas, vertices, cert = _base_case()
    twisted = dict(cert.psi)
    twisted[(C, 0)], twisted[(C, 2)] = twisted[(C, 2)], twisted[(C, 0)]
    assert not verify_lef(replace(cert, psi=twisted), graph, gammas, vertices)


def test_verify_rejects_non_homomorphic_phi():
    graph = line_graph()
    gammas = [0, 1, 2]
    vertices = cv(0)
    cert = lef_certificate(graph, gammas, vertices)
    broken = dict(cert.phi)
    broken[2] = (broken[2] + 1) % cert.q_spec.n
    assert not verify_lef(replace(cert, phi=broken), graph, gammas, vertices)


def _edited(lines, old, new):
    """``lines`` with the line ``old`` replaced by the lines ``new``."""
    at = lines.index(old)
    return lines[:at] + new + lines[at + 1:]


def test_verify_rejects_edited_documents():
    # each edit parses, and is rejected because the certificate rebuilt
    # at the recorded modulus differs from it
    graph, gammas, vertices, cert = _base_case()
    lines = formats.lef_lines(graph, cert)
    edits = [
        _edited(lines, "q cyclic 5", ["q cyclic 7"]),
        _edited(lines, "y.modulus 5", ["y.modulus 7"]),
        _edited(lines, "truncation.offsets c c 1 2", []),
        _edited(_edited(lines, "y.vertex c:4", []), "y.lift c:4 c:4", []),
        [line for line in lines if not line.startswith("y.edge") or "c:3" not in line],
    ]
    for edited in edits:
        parsed = formats.lef_from_record(graph, formats.parse_structured("\n".join(edited))[1])
        assert not verify_lef(parsed, graph, gammas, vertices), edited
    assert verify_lef(formats.lef_from_record(graph, formats.parse_structured("\n".join(lines))[1]),
                      graph, gammas, vertices)
    # a document without its modulus line does not parse
    record = formats.parse_structured("\n".join(_edited(lines, "modulus 5", [])))[1]
    with pytest.raises(ParseError, match="missing key 'modulus'"):
        formats.lef_from_record(graph, record)


@pytest.mark.parametrize("modulus", [10**6, 10**9])
def test_verify_lef_rejects_a_huge_modulus_without_building_it(modulus):
    # the rebuilt Y would have |labels| * m vertices against the given
    # Y's few, so no quotient is built
    graph, gammas, vertices, cert = _base_case()
    huge = replace(cert, truncation=replace(cert.truncation, modulus=modulus))
    tracemalloc.start()
    try:
        assert not verify_lef(huge, graph, gammas, vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "graph,gammas,vertices",
    [
        (factorial_graph(0), [0, 1], cv(0, 1, 2)),
        (two_orbit_graph(), [0, 1], [("a", 0), ("a", 1), ("b", 2)]),
        (line_graph(), [-1, 0, 2], cv(0, 1, 3)),
    ],
    ids=["factorial", "two-orbit", "line"],
)
def test_single_line_edits_are_rejected_or_change_nothing(graph, gammas, vertices):
    # deleting any one line or replacing its last token either raises
    # ParseError, fails verification, or re-emits the document unchanged
    lines = formats.lef_lines(graph, lef_certificate(graph, gammas, vertices))
    for i, line in enumerate(lines):
        head = line.rsplit(" ", 1)[0]
        tokens = ("0", "7", "-1", "x", f"{graph.labels[0]}:7", f"{graph.labels[-1]}:1")
        for edit in ([], *([f"{head} {token}"] for token in tokens)):
            edited = lines[:i] + edit + lines[i + 1:]
            try:
                parsed = formats.lef_from_record(graph, formats.parse_structured("\n".join(edited))[1])
            except ParseError:
                continue
            if verify_lef(parsed, graph, gammas, vertices):
                assert formats.lef_lines(graph, parsed) == lines, edited


# ---------------------------------------------------------------------------
# the documented modulus rule


@pytest.mark.parametrize("graph", [line_graph(), offsets_graph(1, 3), two_orbit_graph()], ids=repr)
def test_random_models_within_documented_rule(graph):
    # for finite families the search always lands within
    # max(A) + max offset + diameter(E) + 1, for A nonnegative and E
    # normalized to start at 0 (the form the rule is documented in)
    rng = random.Random(97)
    dmax = max_finite_offset(graph)
    produced = 0
    while produced < 50:
        gammas = sorted({rng.randint(0, 6) for _ in range(rng.randint(1, 4))})
        diameter = rng.randint(0, 8)
        positions = {0, diameter} | {rng.randint(0, diameter) for _ in range(3)}
        vertices = [(rng.choice(graph.labels), p) for p in positions]
        produced += 1
        rule = max(gammas) + dmax + diameter + 1
        cert = lef_certificate(graph, gammas, vertices)
        assert verify_lef(cert, graph, gammas, vertices)
        assert cert.truncation.modulus <= rule


@pytest.mark.parametrize("graph", [line_graph(), two_orbit_graph()], ids=repr)
def test_random_models_within_spread_rule(graph):
    # without any normalization, one more than the spread of the
    # distinctness set always suffices
    rng = random.Random(101)
    for _ in range(50):
        gammas = sorted({rng.randint(-6, 6) for _ in range(rng.randint(1, 4))})
        base = rng.randint(-5, 5)
        positions = {base + rng.randint(0, 8) for _ in range(rng.randint(1, 4))}
        vertices = [(rng.choice(graph.labels), p) for p in positions]
        spread_rule = _spread_rule(graph, gammas, vertices)
        cert = lef_certificate(graph, gammas, vertices)
        assert verify_lef(cert, graph, gammas, vertices)
        assert cert.truncation.modulus <= spread_rule


def _spread_rule(graph, gammas, vertices):
    # spread of the distinctness set plus one always works
    _, kept = truncate_graph(graph, vertices)
    offsets = {abs(o) for offs in kept.values() for o in offs}
    positions = [p for _, p in vertices]
    values = set(gammas) | set(positions) | {p + o for p in positions for o in offsets}
    return max(values) - min(values) + 1
