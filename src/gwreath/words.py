"""Words over vertex copies of a coefficient group, with a canonical form.

An element of the product group attached to a graph is a sequence of
syllables (vertex, value).  Copies at adjacent vertices commute; no
other relations hold beyond the group laws inside each copy.  Words are
brought to a canonical form in one left-to-right pass, after the
Hermiller-Meier normal form for graph products and the piling solution
of the word problem of Crisp, Godelle and Wiest.  The pass drops
identity syllables and pushes each syllable back past the trailing
syllables it commutes with.  It merges or cancels the syllable against
the first same-vertex syllable it meets; otherwise it inserts it where
the lexicographic normal form by ``vertex_key`` puts it.  The word kept
is reduced and in that normal form after every syllable, so the pass
ends on the canonical form; it keeps no adjacency memo (its cost:
``canonical_form``).  Equal elements give equal canonical words, so
equality and triviality tests compare forms.

A word is tested once per graph and group.  ``word`` checks each value
against the coefficient group, ``formats.parse_word`` each vertex
against the graph and each value against the group, and the canonical
pass builds its result from checked syllables; each records on the
``Word`` the group and graph objects it checked against.  Every group
operation, here and in ``wreath``, tests each word operand on entry with
``_validate``, which skips a test the record covers and records what
a nonempty ``Word`` passed; a word built directly, copied or unpickled
has none.  A bad vertex raises ``WordError`` and a bad value
``GroupError``, from every operation and operand.  ``adjacent`` checks
nothing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .errors import LoopObstruction, WordError
from .groups import Element, GroupSpec, Record
from .graphs import Vertex


# Syllable, Word and wreath.WreathElement, which word arithmetic builds per syllable, keep slots
# (no instance dictionary) and an explicit constructor that writes each slot through the slot's
# own descriptor, bound once below: a quarter less time than ``_set`` by name, and under a third
# of the generic constructor's.
class Syllable(Record):
    __slots__ = _fields = ("vertex", "value")

    def __init__(self, vertex: Vertex, value: Element):
        _set_vertex(self, vertex)
        _set_value(self, value)


_set_vertex, _set_value = Syllable.vertex.__set__, Syllable.value.__set__


class Word(Record):
    # ``_graph`` and ``_delta``: the objects the syllables were checked against,
    # set only by ``_record``.  Not fields, so ==, hash, repr, copy and pickle
    # ignore them.
    __slots__ = ("syllables", "_graph", "_delta")
    _fields = ("syllables",)

    def __init__(self, syllables: tuple[Syllable, ...] = ()):
        _set_syllables(self, syllables)

    def __len__(self) -> int:
        return len(self.syllables)

    def __iter__(self):
        return iter(self.syllables)

    @property
    def is_empty(self) -> bool:
        return not self.syllables

    def vertices(self) -> frozenset[Vertex]:
        return frozenset(s.vertex for s in self.syllables)


_set_syllables, _set_graph, _set_delta = (
    Word.syllables.__set__, Word._graph.__set__, Word._delta.__set__
)
EMPTY_WORD = Word()


def _record(w: Word, graph, delta: GroupSpec) -> Word:
    """``w``, recording the graph (None: none) and coefficient group its
    syllables were checked against."""
    _set_graph(w, graph)
    _set_delta(w, delta)
    return w


def word(delta: GroupSpec, pairs: Iterable[tuple[Vertex, Element]]) -> Word:
    """Build a word, rejecting identity-valued syllables; it records
    ``delta``, against which every value was checked."""
    out = []
    for vertex, value in pairs:
        delta.check(value)
        if delta.is_identity(value):
            raise WordError(f"identity syllable at vertex {vertex!r}")
        out.append(Syllable(vertex, value))
    return _record(Word(tuple(out)), None, delta)


def _validate(graph, delta: GroupSpec, w: Word | Iterable[Syllable]) -> list[Syllable]:
    """The syllables of ``w``, each vertex and then value tested once.

    The vertex test is skipped when ``w`` records this ``graph`` object,
    the value test when it records this ``delta`` object: identity, not
    equality, so an equal but distinct spec tests again.  ``check`` runs
    only to raise.  A nonempty ``Word`` that passes records ``graph`` and
    ``delta``; each slot only ever holds an object the syllables passed
    against, so threads that race to write it leave it sound.
    """
    sylls = list(w)
    test_vertex = getattr(w, "_graph", None) is not graph
    test_value = getattr(w, "_delta", None) is not delta
    if test_vertex or test_value:
        has_vertex, contains = graph.has_vertex, delta.contains
        for s in sylls:
            if test_vertex and not has_vertex(s.vertex):
                raise WordError(f"syllable vertex {s.vertex!r} does not belong to the graph")
            if test_value and not contains(s.value):
                delta.check(s.value)
        if sylls and isinstance(w, Word):
            _record(w, graph, delta)
    return sylls


def canonical_form(graph, delta: GroupSpec, w: Word | Iterable[Syllable]) -> Word:
    """The unique canonical word equal to ``w``: among the reduced words
    equal to it, the least by ``vertex_key`` read syllable by syllable.

    One left-to-right pass keeps such a word: each incoming syllable
    is pushed back past the trailing syllables whose vertices are
    adjacent to its own, then merged with (or cancelled against) the
    first same-vertex syllable it meets.  When a syllable at another,
    non-adjacent vertex stops it first, it goes in just before the first
    syllable after that one whose key exceeds its own, or at the end.
    ``_canonical`` proves that the word stays reduced and in
    lexicographic normal form.

    Each syllable costs one ``graph.adjacent`` call per commuting
    syllable it passes, plus a ``list.insert`` unless it is appended, so
    the work is linear in the length times the length of the commuting
    runs.  No pair is memoised per call, since pairs seldom recur, and a
    vertex's key is taken when a back-scan first compares it.
    ``_validate`` tests the syllables first, except where ``w``'s record
    covers them, and records them on a nonempty ``Word`` that passes.
    """
    return _canonical(graph, delta, _validate(graph, delta, w))


def _canonical(graph, delta: GroupSpec, sylls: list[Syllable]) -> Word:
    """``canonical_form`` of syllables already known to be valid.

    Its callers (``canonical_form``, ``gp_invert``, ``retract``,
    ``_push_normal``; ``wreath``'s ``act_word``, ``gw_compose``,
    ``gw_invert``) pass syllables ``_validate`` tested against ``graph``
    and ``delta``, or built from those by inverting values, mapping them
    to tested images or moving them along the action, which keeps a
    vertex a vertex.  The word returned records both on that contract.

    ``reduced`` stays reduced (no two same-vertex syllables with only
    commuting syllables between them) and in lexicographic normal form
    by key.  By Anisimov and Knuth (*Inhomogeneous sorting*, 1979; see
    Diekert and Rozenberg, *The Book of Traces*, 1995), a word is in
    that form iff it has no forbidden factor: a factor ``b u a`` with
    key(a) < key(b) where a commutes with b and with every letter of u.
    The reduced words of one element form one commutation class (Green's
    normal form theorem), whose form is unique, so the word left at the
    end is the canonical one.  The new syllable s looks at the last
    syllable first: one at s's vertex is its blocker, and after one s
    does not commute with, s is appended (insertion with no c).  Only
    otherwise does the back-scan walk back over the syllables s commutes
    with, to its blocker: the last syllable it does not commute with.

    * Insertion (no blocker, or one at another vertex): s goes before
      the first syllable c after the blocker whose key exceeds its own,
      or at the end; it commutes with every syllable it moves past.  A
      forbidden factor ending in s would begin after the blocker and
      before s, where no key exceeds s's.  One that starts at s ends
      below s's key, so past c: ``s c u' a`` with key(a) < key(s) <
      key(c), and ``c u' a`` was forbidden already.  No same-vertex
      syllable lies after the blocker, and the blocker hides every
      earlier one.  A forbidden factor or same-vertex pair that passes
      over s was one without s.
    * Cancellation (the blocker t is at s's vertex and the product is
      the identity): t is deleted.  Everything after t commutes with s,
      so with t, and a forbidden factor or same-vertex pair that
      passes over t's place was one with t in it.
    * Merge (as cancellation, with another product): t keeps its
      vertex, so its key and what it commutes with.

    A same-vertex blocker is found by comparing vertices, kept in ``rv``
    beside ``reduced``.  The reduced word keeps the caller's syllables:
    only a merge builds one.
    """
    identity, compose = delta.identity(), delta._compose
    adjacent, vertex_key = graph.adjacent, graph.vertex_key
    keys: dict = {}  # each vertex a back-scan has compared, to its key
    key_of = keys.get
    reduced: list[Syllable] = []
    rv: list[Vertex] = []  # the vertex of each reduced syllable

    for s in sylls:
        if s.value == identity:
            continue
        v = s.vertex
        k = len(rv) - 1
        if k < 0 or (u := rv[k]) != v:
            if k < 0 or not adjacent(u, v):
                reduced.append(s)
                rv.append(v)
                continue
            kv = key_of(v)
            if kv is None:
                kv = keys[v] = vertex_key(v)
            ku = key_of(u)
            if ku is None:
                ku = keys[u] = vertex_key(u)
            place = k if ku > kv else k + 1
            k -= 1
            while k >= 0:
                u = rv[k]
                if u == v or not adjacent(u, v):
                    break
                ku = key_of(u)
                if ku is None:
                    ku = keys[u] = vertex_key(u)
                if ku > kv:
                    place = k
                k -= 1
            if k < 0 or rv[k] != v:
                reduced.insert(place, s)
                rv.insert(place, v)
                continue
        merged = compose(reduced[k].value, s.value)
        if merged == identity:
            del reduced[k], rv[k]
        else:
            reduced[k] = Syllable(v, merged)
    return _record(Word(tuple(reduced)), graph, delta)


def _inverses(delta: GroupSpec, sylls: list[Syllable]) -> dict[Element, Element]:
    """Each distinct value of ``sylls``, already checked, to its inverse:
    a word holds few distinct values, so each is inverted once."""
    invert = delta._invert
    return {a: invert(a) for a in {s.value for s in sylls}}


def gp_invert(graph, delta: GroupSpec, w: Word) -> Word:
    sylls = _validate(graph, delta, w)  # once, before ``_invert`` can wrap a bad value
    inverse = _inverses(delta, sylls)
    return _canonical(graph, delta, [Syllable(s.vertex, inverse[s.value]) for s in reversed(sylls)])


def retract(graph, delta: GroupSpec, w: Word, keep: Iterable[Vertex]) -> Word:
    """Kill every syllable outside ``keep``.

    This is the homomorphism onto the subgroup generated by the copies
    at ``keep``; composed with the inclusion of a word supported there
    it is the identity.
    """
    keep_set = set(keep)
    return _canonical(graph, delta, [s for s in _validate(graph, delta, w) if s.vertex in keep_set])


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
