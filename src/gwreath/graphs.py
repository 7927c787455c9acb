"""Graphs carrying a group action, and their finite quotients.

Two instance classes are supported.  Translation graphs have vertex set
C x Z for a finite label set C, with edges described by difference
families (sets of offsets closed under negation), and the integers
acting by translation.  Finite-mode graphs are finite simplicial graphs
on which Z^n acts through a list of commuting automorphisms.  Both
classes admit exact computation of adjacency, orbits, and quotient
graphs by finite-index subgroups, which is what every construction in
this package ultimately reduces to.  A finite-mode orbit is a component
of its generators' steps (``_orbits``); only the subgroup table lists
the elements of the acting image.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from functools import cached_property
from typing import Iterable, Sequence

from .errors import GraphError
from .groups import Cyclic, FreeAbelian, Integers, Record, _set

# A vertex is (label, position) in translation mode and a plain int id
# in finite mode.
Vertex = tuple[str, int] | int
Gamma = int | tuple[int, ...]


# ---------------------------------------------------------------------------
# difference families


class FiniteOffsets(Record):
    """A finite, negation-closed set of nonzero offsets."""

    _fields = ("offsets",)

    def __init__(self, offsets: frozenset[int]):
        if 0 in offsets:
            raise GraphError("offset 0 would create a loop")
        _set(self, "offsets", frozenset(offsets) | frozenset(-d for d in offsets))

    def contains(self, d: int) -> bool:
        return d in self.offsets

    def residues(self, m: int) -> frozenset[int]:
        return frozenset(d % m for d in self.offsets)

    def hits(self, t: int, m: int) -> bool:
        """Whether ``t % m`` lies in ``residues(m)``, without building it."""
        return any((t - d) % m == 0 for d in self.offsets)

    def is_finite(self) -> bool:
        return True

    def datum(self) -> int:
        return max((abs(d) for d in self.offsets), default=0)


class FactorialOffsets(Record):
    """Offsets {±(shift + n!) : n >= 1}."""

    _fields = ("shift",)

    def __init__(self, shift: int):
        if shift < 0:
            raise GraphError(f"shift must be >= 0, got {shift}")
        _set(self, "shift", shift)

    def contains(self, d: int) -> bool:
        target = abs(d) - self.shift
        if target < 1:
            return False
        f, n = 1, 1
        while f < target:
            n += 1
            f *= n
        return f == target

    def residues(self, m: int) -> frozenset[int]:
        # n! is divisible by m once n >= m, so the tail contributes
        # exactly the residues of +-shift; small n are computed directly,
        # with n! kept modulo m and stopped once it is 0 there.
        out = {self.shift % m, (-self.shift) % m}
        f = 1
        for n in range(1, max(m, 2)):
            f = f * n % m
            if f == 0:
                break
            out.add((self.shift + f) % m)
            out.add((-(self.shift + f)) % m)
        return frozenset(out)

    def hits(self, t: int, m: int) -> bool:
        """Whether ``t % m`` lies in ``residues(m)``: the same walk, stopped
        at a hit, or once gcd(n!, m) divides neither t - s nor t + s.  A
        hit n! = t - s or -(t + s) modulo m needs gcd(n!, m) to equal
        gcd(t - s, m) or gcd(t + s, m), and gcd(n!, m) only gains
        factors as n grows; at n!'s first multiple of m it is m."""
        s = self.shift
        if (t - s) % m == 0 or (t + s) % m == 0:
            return True
        f = 1
        for n in range(1, m):
            f = f * n % m
            g = math.gcd(f, m)
            if (t - s) % g and (t + s) % g:
                return False
            if (t - s - f) % m == 0 or (t + s + f) % m == 0:
                return True
        return False

    def is_finite(self) -> bool:
        return False

    def datum(self) -> int:
        return max(self.shift, 1)


class ArithmeticOffsets(Record):
    """Offsets {±(start + step * k) : k >= 0}."""

    _fields = ("start", "step")

    def __init__(self, start: int, step: int):
        if start < 1 or step < 1:
            raise GraphError("start and step must both be >= 1")
        _set(self, "start", start)
        _set(self, "step", step)

    def contains(self, d: int) -> bool:
        return abs(d) >= self.start and (abs(d) - self.start) % self.step == 0

    # Modulo m, start + step*k runs through the class of start modulo gcd(step, m).
    def residues(self, m: int) -> frozenset[int]:
        g, s = math.gcd(self.step, m), self.start
        return frozenset(range(s % g, m, g)).union(range(-s % g, m, g))

    def hits(self, t: int, m: int) -> bool:
        """Whether ``t % m`` lies in ``residues(m)``."""
        g = math.gcd(self.step, m)
        return (t - self.start) % g == 0 or (t + self.start) % g == 0

    def is_finite(self) -> bool:
        return False

    def datum(self) -> int:
        return self.start + self.step


DifferenceFamily = FiniteOffsets | FactorialOffsets | ArithmeticOffsets


def residues_of(families: Iterable[DifferenceFamily], m: int) -> frozenset[int]:
    """Exact residue set { d mod m : d in some family }."""
    if m < 1:
        raise GraphError(f"modulus must be >= 1, got {m}")
    out: frozenset[int] = frozenset()
    for family in families:
        out |= family.residues(m)
    return out


def contains_offset(families: Iterable[DifferenceFamily], d: int) -> bool:
    return any(family.contains(d) for family in families)


def covers_all_nonzero(families: Sequence[DifferenceFamily]) -> bool:
    """Whether the union of the families contains every nonzero offset.

    Decidable because only arithmetic families can cover all large
    offsets: their classes (start mod step) must cover Z/B for B the lcm
    of the steps, after which a finite window check handles small
    offsets.  Two rules drop a family f before B is taken, and neither
    changes whether the classes cover.  If f lies inside another family
    g (g.step divides f.step and f.start - g.start, which is >= 0), f
    adds no offset.  If f.step does not divide the lcm L of the other
    steps, f adds no cover: a prime power p^e divides f.step and not L,
    so L divides B/p, and a residue x the others miss they miss at
    x + k*B/p for k < p.  Those are distinct modulo p^e, and f's one
    class holds at most one.  Dropping shrinks the other lcms and keeps
    the family each dropped one lies inside, so the rules repeat until
    they drop nothing.  The kept families then hold every offset above
    their largest start, so the window is taken over them.
    """
    arith = [f for f in families if isinstance(f, ArithmeticOffsets)]
    while True:
        kept = [
            f for i, f in enumerate(arith)
            if math.lcm(*(g.step for g in arith[:i] + arith[i + 1:])) % f.step == 0
            and not any(g != f and f.step % g.step == 0 and f.start >= g.start
                        and (f.start - g.start) % g.step == 0 for g in arith)
        ]
        if len(kept) == len(arith):
            break
        arith = kept
    if not arith:
        return False
    big = math.lcm(*(f.step for f in arith))
    if any(
        not any((r - f.start) % f.step == 0 for f in arith) for r in range(big)
    ):
        return False
    window = max(f.start for f in arith) + big
    return all(contains_offset(families, n) for n in range(1, window + 1))


# ---------------------------------------------------------------------------
# least moduli


def least_modulus(apart, misses, limit: int) -> int | None:
    """The least m <= ``limit`` that ``admits``, or None.

    No m below the size of the largest set in ``apart`` injects it.  An
    arithmetic family misses t modulo m iff g = gcd(step, m) divides
    neither t - start nor t + start, and g fails to divide a iff
    q^(v_q(a) + 1) divides m for some prime q of step / gcd(a, step).
    So the candidates are the multiples of the lcms of one such prime
    power per family, offset and sign, merged by ``_progressions``: the
    search costs the factoring of the steps, not a walk through every
    modulus below its answer.  A family with no such prime hits t modulo
    every m, and leaves no candidate.
    """
    bases = {1}
    for families, offsets in misses:
        for f in families:
            if isinstance(f, ArithmeticOffsets):
                for a in {abs(t + sign * f.start) for t in offsets for sign in (1, -1)}:
                    powers = [next(q**k for k in itertools.count(1) if a % q**k)
                              for q in _prime_factors(f.step // math.gcd(a, f.step))]
                    bases = {math.lcm(b, power) for b in bases for power in powers}
    lo = max([1, *map(len, apart)])
    moduli = _progressions([(-(-lo // b) * b, b) for b in bases], limit)
    return next((m for m in moduli if admits(m, apart, misses)), None)


def admits(m: int, apart, misses) -> bool:
    """Whether modulo ``m`` each set of integers in ``apart`` injects and,
    for each (families, offsets) in ``misses``, no family hits an offset.
    A single offset asks each family's ``hits``; several share one
    residue set, since a factorial family's ``hits`` walks n! mod m on
    every call.  The misses go first, in order, so a loop check that
    fails at every modulus costs a ``hits`` per family and nothing more."""
    for families, offsets in misses:
        if len(offsets) == 1:
            (t,) = offsets
            if any(f.hits(t, m) for f in families):
                return False
        elif not residues_of(families, m).isdisjoint(t % m for t in offsets):
            return False
    return all(len({value % m for value in values}) == len(values) for values in apart)


def _progressions(runs, limit: int):
    """The distinct values <= ``limit`` of the arithmetic progressions
    (first, step) in ``runs``, in increasing order, merged lazily from a
    heap of each run's next value."""
    heap, last = list(runs), None
    heapq.heapify(heap)
    while heap and heap[0][0] <= limit:
        value, step = heap[0]
        if value != last:  # a value on two runs comes twice
            yield value
            last = value
        heapq.heapreplace(heap, (value + step, step))


def _prime_factors(n: int) -> set[int]:
    """The primes dividing n >= 1: the primes up to 41 by trial
    division, the rest by splitting with Pollard's rho until every part
    passes ``_is_prime``."""
    primes = set()
    for q in _SMALL_PRIMES:
        if n % q == 0:
            primes.add(q)
            while n % q == 0:
                n //= q
    parts = [n] if n > 1 else []
    while parts:
        n = parts.pop()
        if _is_prime(n):
            primes.add(n)
        else:
            d = _rho_divisor(n)
            parts += [d, n // d]
    return primes


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41, for n > 41 with no factor up to
    41: exact for n < 3.3 * 10**24 (Sorenson and Webster), and a strong
    probable-prime test above."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n, by Pollard's rho with
    Floyd's cycle finding on x -> x^2 + c, trying c = 1, 2, ..."""
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d


# ---------------------------------------------------------------------------
# translation graphs


class TranslationGraph(Record):
    """Vertices C x Z with Z translating positions.

    ``families`` maps an unordered label pair (stored with the lower
    label index first) to the difference families generating edges
    between the two orbits: (c, x) ~ (c', y) iff y - x lies in some
    family of the pair.  Negation closure of the families makes this
    orientation-independent.  Construction derives, per label pair, the
    union of its finite offsets and its infinite families, so ``adjacent``
    is a set probe that asks the infinite families only for pairs that
    have any.  Such a pair keeps its answers by offset, d and -d at once:
    adjacency there depends on the offset alone, and families are
    negation-closed.  The memo holds a bool per offset probed, at most
    twice the span of the widest word seen; it is no field, so equality
    and repr ignore it, and a copy or pickle rebuilds the graph from its
    fields (``__reduce__``), so its memo starts empty.  ``has_vertex``
    and ``vertex_key`` look labels up in a dict.
    """

    acting = Integers()  # not a field: translation by the integers
    _fields = ("labels", "families")

    def __init__(
        self,
        labels: tuple[str, ...],
        families: dict[tuple[str, str], tuple[DifferenceFamily, ...]] | None = None,
    ):
        if len(set(labels)) != len(labels):
            raise GraphError("orbit labels must be distinct")
        _set(self, "labels", labels)
        # Not a field: equality and hashing still see only labels and families.
        _set(self, "_label_index", {c: i for i, c in enumerate(labels)})
        normalized: dict[tuple[str, str], tuple[DifferenceFamily, ...]] = {}
        for (c1, c2), fams in (families or {}).items():
            if c1 not in labels or c2 not in labels:
                raise GraphError(f"family references unknown label in ({c1!r}, {c2!r})")
            key = self._pair_key(c1, c2)
            if key in normalized:
                raise GraphError(f"duplicate family entry for pair {key!r}")
            normalized[key] = tuple(fams)
        _set(self, "families", normalized)
        # Each ordered label pair, both orders sharing one entry, to its families,
        # the union of its finite offsets, its infinite families and their memo.
        tables = dict.fromkeys(itertools.product(labels, repeat=2), ((), frozenset(), (), None))
        for (c1, c2), fams in normalized.items():
            infinite = tuple(f for f in fams if not f.is_finite())
            tables[c1, c2] = tables[c2, c1] = (
                fams, frozenset().union(*(f.offsets for f in fams if f.is_finite())),
                infinite, {} if infinite else None,
            )
        _set(self, "_pair_tables", tables)

    def __reduce__(self):
        return TranslationGraph, (self.labels, self.families)

    def label_index(self, c: str) -> int:
        try:
            return self._label_index[c]
        except KeyError:
            raise GraphError(f"unknown orbit label {c!r}") from None

    def _pair_key(self, c1: str, c2: str) -> tuple[str, str]:
        """The unordered label pair, lower label index first."""
        return (c1, c2) if self.label_index(c1) <= self.label_index(c2) else (c2, c1)

    def has_vertex(self, v: Vertex) -> bool:
        # type, not isinstance: True equals 1, but no reader parses it as a position
        if not (isinstance(v, tuple) and len(v) == 2 and type(v[1]) is int):
            return False
        try:
            return v[0] in self._label_index
        except TypeError:  # an unhashable label is no label
            return False

    def check_vertex(self, v: Vertex) -> None:
        if not self.has_vertex(v):
            raise GraphError(f"{v!r} is not a vertex of this graph")

    def families_for(self, c1: str, c2: str) -> tuple[DifferenceFamily, ...]:
        try:
            return self._pair_tables[c1, c2][0]
        except KeyError:
            return self.families.get(self._pair_key(c1, c2), ())  # GraphError: unknown label

    def adjacent(self, v: Vertex, w: Vertex) -> bool:
        """Both must be vertices of this graph, checked by the caller.

        A probe of the pair's finite offsets or, if it has infinite
        families, of its kept answer, which a miss asks of both.  No
        family holds offset 0, so no vertex is adjacent to itself.
        """
        (c1, x), (c2, y) = v, w
        _, offsets, infinite, seen = self._pair_tables[c1, c2]
        d = y - x
        if seen is None:
            return d in offsets
        if (a := seen.get(d)) is None:
            a = seen[d] = seen[-d] = d in offsets or contains_offset(infinite, d)
        return a

    def action(self, gamma: int):
        """The vertex map of ``gamma``, on vertices checked by the caller."""
        self.acting.check(gamma)
        return lambda v: (v[0], v[1] + gamma)

    def act(self, gamma: int, v: Vertex) -> Vertex:
        self.check_vertex(v)
        return self.action(gamma)(v)

    def vertex_key(self, v: Vertex):
        try:
            return (self._label_index[v[0]], v[1])
        except KeyError:
            raise GraphError(f"unknown orbit label {v[0]!r}") from None

    def has_loop(self, v: Vertex) -> bool:
        return False

    def all_finite(self) -> bool:
        return all(f.is_finite() for fams in self.families.values() for f in fams)


# ---------------------------------------------------------------------------
# finite-mode graphs


class FiniteModeGraph(Record):
    """A finite simplicial graph with Z^n acting through commuting
    edge-preserving automorphisms.

    Vertices are distinct integer ids; ``generators[i][k]`` is the image
    of ``vertices[k]`` under the i-th generator.  Generators must
    pairwise commute (so the image of Z^n stays abelian) and map edges
    to edges; both properties are checked exhaustively at construction.
    ``acting`` is Z^n.  The image's orbits are derived from the
    generators at construction; the table of the image's subgroups, from
    the lattices of Z^n that contain the kernel of the action, is built
    on first use and kept.
    """

    _fields = ("vertices", "edges", "generators")

    def __init__(
        self,
        vertices: tuple[int, ...],
        edges: frozenset[tuple[int, int]],
        generators: tuple[tuple[int, ...], ...] = (),
    ):
        verts = tuple(sorted(vertices))
        position = {v: i for i, v in enumerate(verts)}
        if len(position) != len(verts):
            raise GraphError("vertex ids must be distinct")
        for v in verts:  # as ``has_vertex`` reads them: True equals 1, but is no id
            if type(v) is not int:
                raise GraphError(f"vertex id {v!r} is not an int")
        _set(self, "vertices", verts)
        pairs = set()
        neighbours: dict[int, set[int]] = {v: set() for v in verts}
        for e in edges:
            u, w = e
            if u == w:
                raise GraphError(f"loop at vertex {u} is not allowed", ("edge", e))
            if u not in position or w not in position:
                raise GraphError(f"edge {e!r} references an unknown vertex", ("edge", e))
            pairs.add((min(u, w), max(u, w)))
            neighbours[u].add(w)
            neighbours[w].add(u)
        _set(self, "edges", frozenset(pairs))
        _set(self, "generators", generators)
        for g in generators:
            if len(g) != len(verts) or set(g) != position.keys():
                raise GraphError(
                    f"generator {g!r} is not a permutation of the vertices", ("generator", g)
                )
        for g in generators:  # g[position[v]] is the image of v
            for u, w in pairs:
                gu, gw = g[position[u]], g[position[w]]
                if (min(gu, gw), max(gu, gw)) not in pairs:
                    raise GraphError("generator does not preserve the edge set", ("generator", g))
        for a, b in itertools.combinations(generators, 2):
            if any(a[position[v]] != b[position[u]] for u, v in zip(a, b)):
                raise GraphError("generators must pairwise commute", ("generator", b))
        # Derived once; not fields, so equality and hashing are unchanged.
        _set(self, "_position", position)
        _set(self, "_cycles", tuple(_cycle_runs([position[v] for v in g]) for g in generators))
        _set(self, "_neighbours", {v: frozenset(ns) for v, ns in neighbours.items()})
        _set(self, "_orbit_map", _orbits(verts, generators))
        _set(self, "acting", FreeAbelian(len(generators)))

    @cached_property
    def _subgroups(self) -> tuple[tuple[int, tuple[tuple[int, ...], ...], dict[int, int]], ...]:
        """The subgroup table: (index, permutation tuples, orbit map) for
        every subgroup of the acting image, in ``enumerate_subgroups``
        order, built on first use and kept; the index-1 entry is the image.

        The image is Z^n/K for K the lattice of gammas acting trivially,
        so its subgroups of index k are the images of the lattices
        K <= L <= Z^n of index k.  Each such L has one upper-triangular
        Hermite normal form basis, row i being d_i e_i plus entries
        0 <= a_ij < d_j for j > i (Cohen, GTM 138, 2.4), and d_i divides
        the order of generator i since that multiple of e_i lies in K.
        The basis images generate the image of L, of index [Z^n : L+K],
        which is k exactly when K <= L; so a closure is abandoned once it
        grows past |image|/k elements.  L's orbits are its basis images'.
        """
        image = _closure(self.vertices, self.generators)
        order = len(image)
        shared = {p: p for p in image}  # subgroups keep the image's tuples, not copies
        divisors = []
        for _, runs, _ in self._cycles:
            n = math.lcm(*(length for _, _, length, _ in runs))
            divisors.append([d for d in range(1, n + 1) if n % d == 0])
        diagonals: dict[int, list[tuple[int, ...]]] = {}
        for diag in itertools.product(*divisors):
            if order % math.prod(diag) == 0:
                diagonals.setdefault(math.prod(diag), []).append(diag)
        table = [(1, image, self._orbit_map)]  # index 1: the identity basis closes to the image
        for k in sorted(diagonals)[1:]:
            found = []
            for diag in diagonals[k]:
                rows = [  # the images of every choice of row i
                    [self.perm_of((0,) * i + (d,) + tail)
                     for tail in itertools.product(*map(range, diag[i + 1:]))]
                    for i, d in enumerate(diag)
                ]
                for basis in itertools.product(*rows):
                    sub = _closure(self.vertices, basis, order // k)
                    if sub is not None:
                        found.append((tuple(map(shared.__getitem__, sub)), basis))
            found.sort(key=lambda entry: entry[0])
            table += [(k, sub, _orbits(self.vertices, basis)) for sub, basis in found]
        return tuple(table)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def has_vertex(self, v: Vertex) -> bool:
        return type(v) is int and v in self._position

    def check_vertex(self, v: Vertex) -> None:
        if not self.has_vertex(v):
            raise GraphError(f"{v!r} is not a vertex of this graph")

    def adjacent(self, v: int, w: int) -> bool:
        """Both must be vertices of this graph, checked by the caller."""
        return w in self._neighbours[v]

    def neighbours(self, v: int) -> frozenset[int]:
        """``v`` must be a vertex of this graph, checked by the caller."""
        return self._neighbours[v]

    def perm_of(self, gamma: tuple[int, ...]) -> tuple[int, ...]:
        """The automorphism through which a Z^n element acts, as the
        images of ``vertices``, in order, read off the generators' cycles
        with no image table.

        Generator i's power k moves each of its cycles k places along,
        which on ``_cycle_runs``' layout is one rotation, by slicing, of
        the run that holds its cycles of one length; the tuple so far is
        gathered into that layout and back by two ``operator.itemgetter``
        calls.  The cost is those calls and a few slices per generator
        and cycle length, with no Python step per vertex.
        """
        self.acting.check(gamma)
        image = self.vertices
        for (gather, runs, scatter), k in zip(self._cycles, gamma):
            flat, rotated = gather(image), []
            for start, end, length, count in runs:
                cut = start + k % length * count
                rotated += flat[cut:end]
                rotated += flat[start:cut]
            image = scatter(rotated)
        return image

    def action(self, gamma: tuple[int, ...]):
        """The vertex map of ``gamma``, on vertices checked by the caller."""
        return dict(zip(self.vertices, self.perm_of(gamma))).__getitem__

    def act(self, gamma: tuple[int, ...], v: int) -> int:
        self.check_vertex(v)
        return self.action(gamma)(v)

    def vertex_key(self, v: int) -> int:
        return v

    def has_loop(self, v: int) -> bool:
        return False


def _cycle_runs(step: list[int]):
    """The cycles of the permutation ``step`` of positions, as
    ``perm_of`` rotates them: (gather, runs, scatter).

    The cycles of one length L, c of them, each a position followed by
    its successive images, fill one run (start, end, L, c) of L * c
    places column by column: place start + t * c + q holds the t-th
    position of the q-th cycle.  The k-th power of ``step`` moves every
    such position to the (t + k)-th of its cycle, c * (k mod L) places
    on, cyclically within the run.  ``gather`` reads a tuple indexed by
    position into the runs' order and ``scatter`` reads that order back;
    both are the identity when there are fewer than two positions, where
    ``itemgetter`` would return a bare item or take no index.
    """
    cycles: dict[int, list[list[int]]] = {}  # length -> cycles
    seen = set()
    for start in range(len(step)):
        if start not in seen:
            cycle = [start]
            while (i := step[cycle[-1]]) != start:
                cycle.append(i)
            seen.update(cycle)
            cycles.setdefault(len(cycle), []).append(cycle)
    order, runs = [], []
    for length, same in sorted(cycles.items()):
        runs.append((len(order), len(order) + length * len(same), length, len(same)))
        order += itertools.chain.from_iterable(zip(*same))  # column by column
    if len(order) < 2:
        return tuple, tuple(runs), tuple
    back = sorted(range(len(order)), key=order.__getitem__)  # the place of each position
    return operator.itemgetter(*order), tuple(runs), operator.itemgetter(*back)


def _orbits(elements, perms) -> dict:
    """Each of the sorted ``elements`` mapped to the least member of its
    orbit under the group that ``perms`` (each the images of ``elements``,
    in order) generate: the components of the generators' steps (Holt,
    Eick and O'Brien, *Handbook of Computational Group Theory*, 4.1), by a
    stack walk from each element not yet reached, with no element of the
    group listed.  Inverses are powers of a finite group's generators."""
    steps = [dict(zip(elements, p)) for p in perms]
    out = {}
    for least in elements:
        if least not in out:
            out[least] = least
            stack = [least]
            while stack:
                e = stack.pop()
                for step in steps:
                    if (f := step[e]) not in out:
                        out[f] = least
                        stack.append(f)
    return out


def _closure(vertices, perms, limit=None) -> tuple[tuple[int, ...], ...] | None:
    """The group generated by ``perms`` (commuting permutations, as the
    images of the tuple ``vertices``) as sorted permutation tuples, or
    None once it has more than ``limit`` elements.  Each generator g adds
    the cosets g^k H of the group H generated so far, which repeat once
    g^k lies in H."""
    out = {vertices}
    for g in perms:
        step = dict(zip(vertices, g)).__getitem__
        coset = list(out)
        while True:
            coset = [tuple(map(step, h)) for h in coset]
            if coset[0] in out:
                break
            out.update(coset)
            if limit is not None and len(out) > limit:
                return None
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# quotient graphs


class QuotientGraph:
    """The orbit graph of a graph under a finite-index subgroup.

    Vertices are orbit ids; two distinct orbits are joined when any of
    their members are, and an orbit carries a loop flag when two
    distinct members of it are adjacent.  Loops are recorded and never
    dropped: whether a loop is fatal is a property of the coefficient
    group, decided downstream.  Each orbit id is its own lift: the
    residue (c, r) lifts to the vertex (c, r), and a finite-mode orbit is
    named by its least vertex.
    """

    def __init__(self, kind, vertices, edges, loops, *, modulus=None,
                 labels=None, orbit_map=None):
        self.kind = kind  # "translation" | "finite"
        self.vertices = tuple(vertices)
        self.edges = frozenset(edges)
        self.loops = frozenset(loops)
        self.modulus = modulus
        self.labels = tuple(labels) if labels is not None else None
        self._label_index = {c: i for i, c in enumerate(self.labels or ())}
        self._vertex_set = frozenset(self.vertices)
        self.orbit_map = dict(orbit_map) if orbit_map is not None else None
        # Residues act on a translation quotient; a finite-mode one
        # carries no acting group, since only cosets act on its orbits.
        self.acting = Cyclic(modulus) if kind == "translation" else None

    def project(self, v: Vertex):
        """Orbit id of an ambient vertex."""
        if self.kind == "translation":
            return (v[0], v[1] % self.modulus)
        return self.orbit_map[v]

    def has_vertex(self, v) -> bool:
        try:
            if v not in self._vertex_set:
                return False
        except TypeError:  # an unhashable id is no orbit
            return False
        # type, not isinstance: True equals 1, but no reader parses it as an id
        return type(v if self.kind == "finite" else v[1]) is int

    def check_vertex(self, v) -> None:
        if not self.has_vertex(v):
            raise GraphError(f"{v!r} is not an orbit of this quotient")

    def adjacent(self, u, w) -> bool:
        if u == w:
            return False
        return (u, w) in self.edges or (w, u) in self.edges

    def has_loop(self, u) -> bool:
        return u in self.loops

    def vertex_key(self, u):
        if self.kind == "translation":
            try:
                return (self._label_index[u[0]], u[1])
            except KeyError:
                raise GraphError(f"unknown orbit label {u[0]!r}") from None
        return u

    def action(self, gamma_residue: int):
        """Residue translation on a translation quotient."""
        if self.kind != "translation":
            raise GraphError("acting on a finite-mode quotient requires a coset")
        self.acting.check(gamma_residue)
        m = self.modulus
        return lambda u: (u[0], (u[1] + gamma_residue) % m)

    def act(self, gamma_residue: int, u):
        self.check_vertex(u)
        return self.action(gamma_residue)(u)

    def content(self) -> tuple:
        """Everything equality compares; the orbit map compares as a dict."""
        return (self.kind, self.vertices, self.edges, self.loops,
                self.modulus, self.labels, self.orbit_map)

    def __eq__(self, other):
        if not isinstance(other, QuotientGraph):
            return NotImplemented
        return self.content() == other.content()


def quotient_graph(graph, subgroup) -> QuotientGraph:
    """Quotient by mZ (translation) or by a subgroup of the finite image.

    Translation mode takes a modulus m >= 1 and computes edges through
    the residue sets of the difference families.  Finite mode takes
    gamma vectors generating the subgroup and reads the quotient off their
    permutations' orbits (``_orbit_quotient``, which ``separate`` also
    calls on a restricted graph with an ambient subgroup's orbit map).
    """
    if isinstance(graph, TranslationGraph):
        return _translation_quotient(graph, subgroup)
    if isinstance(graph, FiniteModeGraph):
        gammas = tuple(subgroup)
        if not all(map(graph.acting.contains, gammas)):
            raise GraphError(f"subgroup generators must be gammas of rank {graph.rank}: {gammas!r}")
        return _orbit_quotient(graph, _orbits(graph.vertices, map(graph.perm_of, gammas)))
    raise GraphError(f"cannot quotient {type(graph).__name__}")


def _translation_quotient(graph: TranslationGraph, m: int) -> QuotientGraph:
    if not isinstance(m, int) or m < 1:
        raise GraphError(f"modulus must be a positive integer, got {m!r}")
    rows = {c: [(c, r) for r in range(m)] for c in graph.labels}
    edges = set()
    loops = set()
    for (c1, c2), fams in graph.families.items():
        res = residues_of(fams, m)
        left, right = rows[c1], rows[c2]
        for d in res:  # (c1, r) ~ (c2, (r + d) % m), each residue d at once
            if c1 != c2:  # pair keys put the lower label index first
                edges.update(zip(left, right[d:] + right[:d]))
            elif d:  # within one label, the lower residue first: r < r + d < m
                edges.update(zip(left[:m - d], right[d:]))
        # 0 in the residue set means two distinct lifts of one orbit are
        # adjacent, which is exactly the loop condition.
        if c1 == c2 and 0 in res:
            loops.update(left)
    vertices = [v for c in graph.labels for v in rows[c]]
    return QuotientGraph("translation", vertices, edges, loops, modulus=m, labels=graph.labels)


def _orbit_quotient(graph: FiniteModeGraph, omap: dict[int, int]) -> QuotientGraph:
    """The quotient with orbit map ``omap`` read on ``graph``'s vertices:
    an ambient subgroup's orbit map serves a graph restricted to a union
    of the ambient image's orbits as well as its own would."""
    omap = {v: omap[v] for v in graph.vertices}
    vertices = sorted(set(omap.values()))
    edges = set()
    loops = set()
    for u, w in graph.edges:
        ou, ow = omap[u], omap[w]
        if ou == ow:
            loops.add(ou)
        else:
            edges.add((ou, ow) if ou < ow else (ow, ou))
    return QuotientGraph("finite", vertices, edges, loops, orbit_map=omap)


def enumerate_subgroups(graph: FiniteModeGraph) -> list[tuple[tuple[int, ...], ...]]:
    """All subgroups of the acting image, by ascending index.

    Each subgroup is listed as its sorted permutation tuples (the images
    of ``graph.vertices``); within one index the subgroups are ordered
    by these lists, so the searches downstream are deterministic.  The
    subgroups are the images of the lattices between Z^n and the kernel
    of the action, from their Hermite normal form bases; the list is
    computed once per graph, in its subgroup table.
    """
    return [perms for _, perms, _ in graph._subgroups]


# ---------------------------------------------------------------------------
# orbit counting and completeness


def orbit_counts(graph) -> tuple[int, int | None]:
    """(vertex orbit count, edge orbit count); None means infinite."""
    if isinstance(graph, TranslationGraph):
        vertex_orbits = len(graph.labels)
        if not graph.all_finite():
            return vertex_orbits, None
        edge_orbits = 0
        for (c1, c2), fams in graph.families.items():
            offsets = set()
            for f in fams:
                offsets |= f.offsets
            if c1 == c2:
                edge_orbits += len(offsets) // 2
            else:
                edge_orbits += len(offsets)
        return vertex_orbits, edge_orbits
    if isinstance(graph, FiniteModeGraph):
        edges = sorted(graph.edges)
        steps = [dict(zip(graph.vertices, g)) for g in graph.generators]
        moved = [[(min(s[u], s[w]), max(s[u], s[w])) for u, w in edges] for s in steps]
        return len(set(graph._orbit_map.values())), len(set(_orbits(edges, moved).values()))
    raise GraphError(f"cannot count orbits of {type(graph).__name__}")


def is_complete(graph) -> bool:
    """Whether every pair of distinct vertices is joined by an edge.

    A translation graph can only be complete with a single orbit label,
    because cross-label pairs at offset 0 can never be adjacent.
    """
    if isinstance(graph, TranslationGraph):
        if len(graph.labels) != 1:
            return False
        c = graph.labels[0]
        return covers_all_nonzero(graph.families_for(c, c))
    if isinstance(graph, FiniteModeGraph):
        n = len(graph.vertices)
        return len(graph.edges) == n * (n - 1) // 2
    raise GraphError(f"cannot test completeness of {type(graph).__name__}")
