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

from .errors import GraphError
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
    truncation: Truncation


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


def lef_certificate(graph: TranslationGraph, gamma_set, vertex_set) -> LEFCertificate:
    """The finite partial model at the least good modulus.

    The first modulus keeping A, E, and every realized offset translate
    of E pairwise distinct is returned; that rule alone makes the
    quotient a certificate (see ``_certificate_at``).  No m < |T| keeps
    T apart and every m > max T - min T does, so the scan runs from |T|
    (or 1) to at most the span of T plus one.
    """
    prepared = _prepare(graph, gamma_set, vertex_set)
    for m in itertools.count(max(1, len(prepared[-1]))):  # prepared[-1] is T
        if (cert := _certificate_at(prepared, m)) is not None:
            return cert


def verify_lef(cert: LEFCertificate, graph, gamma_set, vertex_set) -> bool:
    """Rebuild the certificate at its recorded modulus and compare it
    with the given one as a whole, so every field is checked."""
    prepared = _prepare(graph, gamma_set, vertex_set)
    m = cert.truncation.modulus
    # a rebuilt Y has an orbit per label and residue: build none larger than the given Y
    if not isinstance(m, int) or m < 1 or len(cert.y.vertices) != len(graph.labels) * m:
        return False
    return _certificate_at(prepared, m) == cert


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


def _certificate_at(prepared, m: int) -> LEFCertificate | None:
    """The certificate at modulus ``m``, or None when ``m`` merges two
    values of T = A | P | {p + o}, for P the positions of E and o the
    absolute realized offsets.  When T injects mod m, the quotient of
    the truncated graph is a certificate:

    - A lies in T, so phi is injective; P lies in T, so psi is.
    - If Y joins psi(c, p) and psi(c', q), then q - p = +-o mod m for an
      offset o kept for {c, c'}.  As q, p + o and q + o all lie in T,
      injectivity forces q - p = +-o exactly, an offset realized in G;
      and every adjacency inside E is realized, so it is kept.
    - A loop needs a kept o = 0 mod m, but p and p + o both lie in T.
    - The homomorphism law holds because phi is reduction mod m, and
      equivariance because psi(c, p + a) = (c, (p + a) mod m).
    """
    gammas, vertices, truncated, kept, targets = prepared
    if len({value % m for value in targets}) != len(targets):
        return None
    quotient = quotient_graph(truncated, m)
    return LEFCertificate(
        q_spec=Cyclic(m),
        y=quotient,
        phi={g: g % m for g in gammas},
        psi={v: quotient.project(v) for v in vertices},
        truncation=Truncation(kept_offsets=kept, modulus=m),
    )
