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
    """The finite subgraph retained for one certificate."""

    kept_offsets: dict[tuple[str, str], frozenset[int]]
    graph: TranslationGraph
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
    if not isinstance(graph, TranslationGraph):
        raise GraphError("finite partial models are built for translation graphs only")
    gammas = sorted(set(gamma_set))
    for g in gammas:
        if not isinstance(g, int):
            raise GraphError(f"acting elements must be integers, got {g!r}")
    vertices = sorted(set(vertex_set), key=graph.vertex_key)
    truncated, kept = truncate_graph(graph, vertices)
    offsets = sorted({abs(o) for offs in kept.values() for o in offs})
    positions = [v[1] for v in vertices]
    distinct_targets = set(gammas) | set(positions) | {
        p + o for p in positions for o in offsets
    }

    for m in range(1, bound + 1):
        if len({value % m for value in distinct_targets}) != len(distinct_targets):
            continue
        quotient = quotient_graph(truncated, m)
        phi = {g: g % m for g in gammas}
        psi = {v: quotient.project(v) for v in vertices}
        cert = LEFCertificate(
            q_spec=Cyclic(m),
            y=quotient,
            phi=phi,
            psi=psi,
            truncation=Truncation(kept_offsets=kept, graph=truncated, modulus=m),
        )
        if verify_lef(cert, graph, gammas, vertices):
            return cert
    raise SearchExhausted(bound)


def verify_lef(cert: LEFCertificate, graph, gamma_set, vertex_set) -> bool:
    """Exhaustively re-check a certificate against the original action.

    Injectivity of both maps, the induced-subgraph embedding (taken
    against the untruncated graph, with no loops allowed on image
    vertices), the partial homomorphism law on A, and equivariance
    wherever a translate of E stays in E.
    """
    gammas = sorted(set(gamma_set))
    vertices = sorted(set(vertex_set), key=graph.vertex_key)
    for v in vertices:
        graph.check_vertex(v)

    if set(cert.phi) != set(gammas) or set(cert.psi) != set(vertices):
        return False
    if len(set(cert.phi.values())) != len(gammas):
        return False
    if len(set(cert.psi.values())) != len(vertices):
        return False
    for image in cert.phi.values():
        if not cert.q_spec.contains(image):
            return False
    for image in cert.psi.values():
        if not cert.y.has_vertex(image):
            return False

    for v, w in itertools.combinations(vertices, 2):
        if graph.adjacent(v, w) != cert.y.adjacent(cert.psi[v], cert.psi[w]):
            return False
    for v in vertices:
        if cert.y.has_loop(cert.psi[v]):
            return False

    for a, b in itertools.product(gammas, repeat=2):
        ab = a + b
        if ab in cert.phi:
            if cert.q_spec.compose(cert.phi[a], cert.phi[b]) != cert.phi[ab]:
                return False

    psi_lookup = dict(cert.psi)
    for a in gammas:
        for v in vertices:
            moved = graph.act(a, v)
            if moved in psi_lookup:
                if cert.y.act(cert.phi[a], cert.psi[v]) != psi_lookup[moved]:
                    return False
    return True
