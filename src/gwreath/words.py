"""Words over vertex copies of a coefficient group, with a canonical form.

An element of the product group attached to a graph is a sequence of
syllables (vertex, value).  Copies at adjacent vertices commute; no
other relations hold beyond the group laws inside each copy.  Words are
brought to a canonical form in two passes, after the Hermiller-Meier
normal form for graph products and the piling solution of the word
problem of Crisp, Godelle and Wiest:

* a single left-to-right piling pass drops identity syllables and
  pushes each syllable back past the trailing syllables it commutes
  with, merging or cancelling it against the first same-vertex
  syllable it meets; the result is a reduced word;
* a heap then emits the lexicographically least shuffle of that
  reduced word's commutation class, ordered by ``vertex_key``.

Each syllable costs one adjacency lookup per commuting syllable it is
pushed past, and adjacency is memoised within a call, so a word of n
syllables needs O(n log n) work when commuting runs are short instead
of the O(n^2) lookups of a pairwise scan.  Equal group elements always
produce equal canonical words, so equality and triviality testing
reduce to comparison against this form.  A group operation makes one
canonical pass, which checks every syllable on entry; ``adjacent`` does not.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Mapping

from .errors import LoopObstruction, WordError
from .groups import Element, GroupSpec, Record, _set
from .graphs import Vertex


# Syllable, Word and wreath.WreathElement keep an explicit constructor: word
# arithmetic builds them per syllable, and it takes under half the generic one's time.
class Syllable(Record):
    _fields = ("vertex", "value")

    def __init__(self, vertex: Vertex, value: Element):
        _set(self, "vertex", vertex)
        _set(self, "value", value)


class Word(Record):
    _fields = ("syllables",)

    def __init__(self, syllables: tuple[Syllable, ...] = ()):
        _set(self, "syllables", syllables)

    def __len__(self) -> int:
        return len(self.syllables)

    def __iter__(self):
        return iter(self.syllables)

    @property
    def is_empty(self) -> bool:
        return not self.syllables

    def vertices(self) -> frozenset[Vertex]:
        return frozenset(s.vertex for s in self.syllables)


EMPTY_WORD = Word()


def word(delta: GroupSpec, pairs: Iterable[tuple[Vertex, Element]]) -> Word:
    """Build a word, rejecting identity-valued syllables."""
    out = []
    for vertex, value in pairs:
        delta.check(value)
        if delta.is_identity(value):
            raise WordError(f"identity syllable at vertex {vertex!r}")
        out.append(Syllable(vertex, value))
    return Word(tuple(out))


def _validate(graph, delta: GroupSpec, w: Word | Iterable[Syllable]) -> list[Syllable]:
    sylls = list(w)
    for s in sylls:
        if not graph.has_vertex(s.vertex):
            raise WordError(f"syllable vertex {s.vertex!r} does not belong to the graph")
        delta.check(s.value)
    return sylls


def canonical_form(graph, delta: GroupSpec, w: Word | Iterable[Syllable]) -> Word:
    """The unique canonical word equal to ``w``.

    One left-to-right pass keeps a reduced word: each incoming syllable
    is pushed back past the trailing syllables whose vertices are
    adjacent to its own, then merged with (or cancelled against) the
    first same-vertex syllable it meets, or appended when a
    non-commuting syllable stops it first.  A cancellation removes a
    syllable that everything after it commuted with, so it can never
    unblock an earlier pair and no rescan is needed.  The reduced word
    is then emitted as the least shuffle of its class with a heap keyed
    by ``vertex_key``: a syllable waits on its nearest remaining
    non-commuting predecessor and is looked at again only when that
    predecessor is emitted.

    Both passes cost one adjacency lookup per syllable stepped over, so
    the work is linear in the length times the length of the commuting
    runs, plus a heap log factor.  Adjacency is memoised for the
    duration of the call only, so ``graph.adjacent`` is asked about
    each pair of vertices at most once.
    """
    return _canonical(graph, delta, _validate(graph, delta, w))


def _canonical(graph, delta: GroupSpec, sylls: list[Syllable]) -> Word:
    """``canonical_form`` of syllables already known to be valid."""
    sylls = [s for s in sylls if not delta.is_identity(s.value)]
    adjacent = _adjacency(graph)

    reduced: list[Syllable] = []
    for s in sylls:
        v = s.vertex
        k = len(reduced) - 1
        while k >= 0 and reduced[k].vertex != v and adjacent(reduced[k].vertex, v):
            k -= 1
        if k < 0 or reduced[k].vertex != v:
            reduced.append(s)
            continue
        merged = delta._compose(reduced[k].value, s.value)  # validated by the caller
        if delta.is_identity(merged):
            del reduced[k]
        else:
            reduced[k] = Syllable(v, merged)
    return Word(tuple(_least_shuffle(graph, reduced, adjacent)))


def _adjacency(graph) -> Callable[[Vertex, Vertex], bool]:
    """``graph.adjacent`` memoised over unordered pairs, for one call."""
    memo: dict[tuple[Vertex, Vertex], bool] = {}

    def adjacent(u: Vertex, w: Vertex) -> bool:
        try:
            return memo[u, w]
        except KeyError:
            memo[u, w] = memo[w, u] = found = graph.adjacent(u, w)
            return found

    return adjacent


def _least_shuffle(graph, sylls: list[Syllable], adjacent) -> list[Syllable]:
    """The lexicographically least reordering of a reduced word that
    only swaps neighbouring syllables at adjacent vertices.

    Remaining syllables form a linked list (``prev``/``nxt``).  A
    syllable enters the heap once no remaining predecessor blocks it;
    ties in ``vertex_key`` go to the earlier position.
    """
    n = len(sylls)
    verts = [s.vertex for s in sylls]
    keys = {v: graph.vertex_key(v) for v in verts}
    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    waiting: list[list[int]] = [[] for _ in range(n)]
    heap: list[tuple] = []

    def place(j: int, i: int) -> None:
        v = verts[j]
        while i >= 0 and adjacent(verts[i], v):
            i = prev[i]
        if i < 0:
            heapq.heappush(heap, (keys[v], j))
        else:
            waiting[i].append(j)

    for j in range(n):
        place(j, j - 1)
    out = []
    while heap:
        _, i = heapq.heappop(heap)
        out.append(sylls[i])
        p, q = prev[i], nxt[i]
        if p >= 0:
            nxt[p] = q
        if q < n:
            prev[q] = p
        for j in waiting[i]:
            place(j, p)
    return out


def gp_compose(graph, delta: GroupSpec, w1: Word, w2: Word) -> Word:
    return canonical_form(graph, delta, tuple(w1) + tuple(w2))


def gp_invert(graph, delta: GroupSpec, w: Word) -> Word:
    sylls = _validate(graph, delta, w)  # once, before ``_invert`` can wrap a bad value
    inverses = [Syllable(s.vertex, delta._invert(s.value)) for s in reversed(sylls)]
    return _canonical(graph, delta, inverses)


def support(graph, delta: GroupSpec, w: Word) -> frozenset[Vertex]:
    """Vertices of the canonical form: a valid (not necessarily minimal)
    support of the element."""
    return canonical_form(graph, delta, w).vertices()


def retract(graph, delta: GroupSpec, w: Word, keep: Iterable[Vertex]) -> Word:
    """Kill every syllable outside ``keep``.

    This is the homomorphism onto the subgroup generated by the copies
    at ``keep``; composed with the inclusion of a word supported there
    it is the identity.
    """
    keep_set = set(keep)
    kept = [s for s in _validate(graph, delta, w) if s.vertex in keep_set]
    return canonical_form(graph, delta, kept)


def push_forward(
    src_graph,
    delta: GroupSpec,
    w: Word,
    vertex_map: Mapping | Callable,
    dst_graph,
) -> Word:
    """Map a word along a vertex map, keeping every coefficient.

    The result lives over ``dst_graph`` and is canonicalized there.
    When the destination carries a loop at an image vertex of the
    support and the coefficients are non-abelian, no such homomorphism
    exists and LoopObstruction is raised.
    """
    canonical = canonical_form(src_graph, delta, w)

    if callable(vertex_map) and not isinstance(vertex_map, Mapping):
        mapper = vertex_map
    else:
        mapping = dict(vertex_map)

        def mapper(v):
            try:
                return mapping[v]
            except KeyError:
                raise WordError(f"vertex {v!r} is not mapped") from None

    return _push_normal(canonical, delta, mapper, dst_graph)


def _push_normal(w: Word, delta: GroupSpec, mapper: Callable, dst_graph) -> Word:
    """``push_forward`` of a word already in normal form, with the same
    errors, in one canonical pass over ``dst_graph``."""
    images = {}
    for v in w.vertices():
        u = mapper(v)
        if not dst_graph.has_vertex(u):
            raise WordError(f"image vertex {u!r} does not belong to the destination")
        images[v] = u
    if not delta.is_abelian():
        for u in sorted(images.values(), key=dst_graph.vertex_key):
            if dst_graph.has_loop(u):
                raise LoopObstruction(u)
    return _canonical(dst_graph, delta, [Syllable(images[s.vertex], s.value) for s in w])
