"""Finite partial models of the action on a translation graph.

Given finite subsets A of the acting group and E of the vertex set, a
certificate consists of a finite group Q, a finite graph Y, an
injective partial homomorphism A -> Q and an embedding of E into Y as
an induced subgraph, equivariant wherever the action stays inside E.
Infinite edge families are first truncated to the offsets actually
realized inside E, which leaves adjacency on E untouched; a single
modulus then yields Q and Y as quotients.
"""

from __future__ import annotations

import itertools

from .errors import GraphError, SearchExhausted
from .graphs import (
    FiniteOffsets,
    QuotientGraph,
    TranslationGraph,
    Vertex,
    quotient_graph,
)
from .groups import Cyclic, GroupSpec, Record


class Truncation(Record):
    """The offsets retained for one certificate, and its modulus."""

    kept_offsets: dict[tuple[str, str], frozenset[int]]
    modulus: int


class LEFCertificate(Record):
    q_spec: GroupSpec
    y: QuotientGraph
    phi: dict[int, int]
    psi: dict[Vertex, tuple]
    truncation: Truncation | None = None


def truncate_graph(
    graph: TranslationGraph, vertex_set
) -> tuple[TranslationGraph, dict[tuple[str, str], frozenset[int]]]:
    """Keep only the offsets realized between members of ``vertex_set``.

    The returned graph has finite families and agrees with the original
    on adjacency within the set.
    """
    if not isinstance(graph, TranslationGraph):
        raise GraphError("truncation is defined for translation graphs only")
    vertices = sorted(set(vertex_set), key=graph.vertex_key)
    for v in vertices:
        graph.check_vertex(v)
    realized: dict[tuple[str, str], set[int]] = {}
    for v, w in itertools.combinations(vertices, 2):
        if graph.adjacent(v, w):
            (c1, x), (c2, y) = v, w
            i, j = graph.label_index(c1), graph.label_index(c2)
            if i <= j:
                key, offset = (c1, c2), y - x
            else:
                key, offset = (c2, c1), x - y
            realized.setdefault(key, set()).add(abs(offset) if c1 == c2 else offset)
    kept = {key: frozenset(offs) for key, offs in realized.items()}
    families = {key: (FiniteOffsets(frozenset(offs)),) for key, offs in kept.items()}
    truncated = TranslationGraph(graph.labels, families)
    return truncated, kept


def lef_certificate(
    graph: TranslationGraph, gamma_set, vertex_set, bound: int = 64
) -> LEFCertificate:
    """Search for a modulus giving a verified finite partial model.

    The candidate modulus must keep A, E, and every realized offset
    translate of E pairwise distinct, which is the classical recipe for
    this construction; each candidate is then checked exhaustively
    against all four certificate conditions before being returned.
    """
    prepared = _prepare(graph, gamma_set, vertex_set)
    for m in range(1, bound + 1):
        cert = _certificate_at(graph, prepared, m)
        if cert is not None:
            return cert
    raise SearchExhausted(bound)


def verify_lef(cert: LEFCertificate, graph, gamma_set, vertex_set) -> bool:
    """Rebuild the certificate at its recorded modulus and compare it
    with the given one as a whole, so every field is checked."""
    prepared = _prepare(graph, gamma_set, vertex_set)
    m = None if cert.truncation is None else cert.truncation.modulus
    # a rebuilt Y has an orbit per label and residue: build none larger than the given Y
    if not isinstance(m, int) or m < 1 or len(cert.y.vertices) != len(graph.labels) * m:
        return False
    return _certificate_at(graph, prepared, m) == cert


def _prepare(graph, gamma_set, vertex_set):
    """A and E, checked and sorted; the truncation of E; and the values
    a modulus must keep distinct."""
    if not isinstance(graph, TranslationGraph):
        raise GraphError("finite partial models are built for translation graphs only")
    gammas = sorted(set(gamma_set))
    for g in gammas:
        if not isinstance(g, int):
            raise GraphError(f"acting elements must be integers, got {g!r}")
    truncated, kept = truncate_graph(graph, vertex_set)
    vertices = sorted(set(vertex_set), key=graph.vertex_key)
    offsets = {abs(o) for offs in kept.values() for o in offs}
    positions = [v[1] for v in vertices]
    targets = set(gammas) | set(positions) | {p + o for p in positions for o in offsets}
    return gammas, vertices, truncated, kept, targets


def _certificate_at(graph, prepared, m: int) -> LEFCertificate | None:
    """The certificate at modulus ``m``, or None when ``m`` merges two
    of the distinct values or the exhaustive check rejects it."""
    gammas, vertices, truncated, kept, targets = prepared
    if len({value % m for value in targets}) != len(targets):
        return None
    quotient = quotient_graph(truncated, m)
    cert = LEFCertificate(
        q_spec=Cyclic(m),
        y=quotient,
        phi={g: g % m for g in gammas},
        psi={v: quotient.project(v) for v in vertices},
        truncation=Truncation(kept_offsets=kept, modulus=m),
    )
    return cert if _satisfies(cert, graph, gammas, vertices) else None


def _satisfies(cert: LEFCertificate, graph, gammas, vertices) -> bool:
    """Exhaustively check a certificate against the original action.

    Injectivity of both maps, the induced-subgraph embedding (taken
    against the untruncated graph, with no loops allowed on image
    vertices), the partial homomorphism law on A, and equivariance
    wherever a translate of E stays in E.
    """
    phi, psi, y = cert.phi, cert.psi, cert.y
    if (
        set(phi) != set(gammas)
        or set(psi) != set(vertices)
        or len(set(phi.values())) != len(gammas)
        or len(set(psi.values())) != len(vertices)
        or not all(map(cert.q_spec.contains, phi.values()))
        or not all(map(y.has_vertex, psi.values()))
    ):
        return False
    for v, w in itertools.combinations(vertices, 2):
        if graph.adjacent(v, w) != y.adjacent(psi[v], psi[w]):
            return False
    if any(y.has_loop(psi[v]) for v in vertices):
        return False
    if any(
        a + b in phi and cert.q_spec.compose(phi[a], phi[b]) != phi[a + b]
        for a, b in itertools.product(gammas, repeat=2)
    ):
        return False
    for a in gammas:
        move = graph.action(a)  # A and E are checked
        for v in vertices:
            if move(v) in psi and y.act(phi[a], psi[v]) != psi[move(v)]:
                return False
    return True
