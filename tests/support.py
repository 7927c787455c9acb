"""Shared instance builders, random samplers, and independent oracles.

The oracles here deliberately avoid the library's own algorithms: the
word-problem oracle is a breadth-first search over elementary rewriting
moves, the quotient oracle enumerates lifts in a window, and the
condition-3 oracle enumerates offsets and residue sets.  They are
the ground truth the fast paths are checked against.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter, deque

from gwreath import (
    ArithmeticOffsets,
    Cyclic,
    FactorialOffsets,
    FiniteModeGraph,
    FiniteOffsets,
    FiniteTable,
    FreeAbelian,
    GraphError,
    Instance,
    QuotientGraph,
    Symmetric,
    Syllable,
    TranslationGraph,
    Word,
    WordError,
    WreathElement,
    act_word,
    canonical_form,
    gp_invert,
    quotient_graph,
    residues_of,
    restrict_orbits,
)
from gwreath.checker import (
    RESIDUALLY_FINITE,
    PairEvidence,
    Verdict,
)
from gwreath.graphs import contains_offset, enumerate_subgroups


def replace(record, **changes):
    """A copy of ``record`` with the named fields changed, built through
    its ``__init__`` so that its validation runs again."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return type(record)(**values)


# ---------------------------------------------------------------------------
# instance builders


def line_graph() -> TranslationGraph:
    return TranslationGraph(("c",), {("c", "c"): (FiniteOffsets(frozenset({1})),)})


def offsets_graph(*offsets: int, labels=("c",)) -> TranslationGraph:
    return TranslationGraph(
        labels, {(labels[0], labels[0]): (FiniteOffsets(frozenset(offsets)),)}
    )


def factorial_graph(shift: int = 0) -> TranslationGraph:
    return TranslationGraph(("c",), {("c", "c"): (FactorialOffsets(shift),)})


def complete_z_graph() -> TranslationGraph:
    return TranslationGraph(("c",), {("c", "c"): (ArithmeticOffsets(1, 1),)})


def edgeless_graph() -> TranslationGraph:
    return TranslationGraph(("c",), {})


def two_orbit_graph() -> TranslationGraph:
    return TranslationGraph(
        ("a", "b"),
        {
            ("a", "a"): (FiniteOffsets(frozenset({1})),),
            ("a", "b"): (FiniteOffsets(frozenset({2})),),
        },
    )


def ladder_graph() -> TranslationGraph:
    """Orbits a and b: a ~ a at offset 1, b ~ b at 3, a ~ b at 1 and 2."""
    return TranslationGraph(("a", "b"), {
        ("a", "a"): (FiniteOffsets(frozenset({1})),),
        ("a", "b"): (FiniteOffsets(frozenset({1, 2})),),
        ("b", "b"): (FiniteOffsets(frozenset({3})),),
    })


def k5_cyclic() -> FiniteModeGraph:
    edges = frozenset((i, j) for i in range(5) for j in range(i + 1, 5))
    return FiniteModeGraph(tuple(range(5)), edges, ((1, 2, 3, 4, 0),))


def cycle_graph(n: int) -> FiniteModeGraph:
    """The n-cycle with Z rotating it (no edge for n = 1, one for n = 2)."""
    edges = frozenset(
        (min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n) if n > 1
    )
    return FiniteModeGraph(tuple(range(n)), edges, (tuple((i + 1) % n for i in range(n)),))


def path3_graph() -> FiniteModeGraph:
    """The path on three vertices with a trivial action."""
    return FiniteModeGraph((0, 1, 2), frozenset({(0, 1), (1, 2)}), ())


def torus_graph(n: int) -> FiniteModeGraph:
    """The n x n grid torus with Z^2 acting by the two rotations."""

    def at(i, j):
        return (i % n) * n + (j % n)

    edges = set()
    for i in range(n):
        for j in range(n):
            for u, w in ((at(i, j), at(i + 1, j)), (at(i, j), at(i, j + 1))):
                edges.add((min(u, w), max(u, w)))
    rows = tuple(at(i + 1, j) for i in range(n) for j in range(n))
    cols = tuple(at(i, j + 1) for i in range(n) for j in range(n))
    return FiniteModeGraph(tuple(range(n * n)), frozenset(edges), (rows, cols))


def prime_cycles_graph(lengths=(2, 3, 5, 7, 11, 13)) -> FiniteModeGraph:
    """Disjoint cycles of the given lengths, all rotated by one
    generator; by default 41 vertices and an image of order 30030."""
    verts, edges, rotation, start = [], set(), [], 0
    for n in lengths:
        cycle = list(range(start, start + n))
        verts += cycle
        rotation += cycle[1:] + cycle[:1]
        edges |= {(min(u, w), max(u, w)) for u, w in zip(cycle, cycle[1:] + cycle[:1])}
        start += n
    return FiniteModeGraph(tuple(verts), frozenset(edges), (tuple(rotation),))


def klein_table() -> FiniteTable:
    table = (
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    )
    return FiniteTable(4, table, 0)


# ---------------------------------------------------------------------------
# random sampling


def counting_spec(spec):
    """A spec that acts as ``spec`` and a Counter of its ``_invert`` and
    ``contains`` calls, keyed by (method name, argument)."""
    calls = Counter()
    base = type(spec)

    class Counting(base):
        def _invert(self, a):
            calls["_invert", a] += 1
            return base._invert(self, a)

        def contains(self, a):
            calls["contains", a] += 1
            return base.contains(self, a)

    return Counting(*spec._values(spec)), calls


def random_element(spec, rng):
    if isinstance(spec, Cyclic):
        return rng.randrange(spec.n)
    if isinstance(spec, Symmetric):
        perm = list(range(spec.degree))
        rng.shuffle(perm)
        return tuple(perm)
    if isinstance(spec, FiniteTable):
        return rng.randrange(spec.size)
    if isinstance(spec, FreeAbelian):
        return tuple(rng.randint(-5, 5) for _ in range(spec.rank))
    raise TypeError(f"no sampler for {spec!r}")


def random_nontrivial(spec, rng):
    while True:
        value = random_element(spec, rng)
        if not spec.is_identity(value):
            return value


def random_vertex(graph, rng, window: int = 6):
    if isinstance(graph, TranslationGraph):
        return (rng.choice(graph.labels), rng.randint(-window, window))
    return rng.choice(graph.vertices)


def random_word(graph, delta, rng, max_len: int = 5, window: int = 6) -> Word:
    n = rng.randint(0, max_len)
    return Word(
        tuple(
            Syllable(random_vertex(graph, rng, window), random_nontrivial(delta, rng))
            for _ in range(n)
        )
    )


def random_gamma(instance: Instance, rng, window: int = 6):
    identity = instance.graph.acting.identity()
    if isinstance(identity, int):
        return rng.randint(-window, window)
    return tuple(rng.randint(-window, window) for _ in identity)


def random_wreath(instance: Instance, rng, max_len: int = 5, window: int = 6) -> WreathElement:
    return WreathElement(
        random_word(instance.graph, instance.delta, rng, max_len, window),
        random_gamma(instance, rng, window),
    )


# ---------------------------------------------------------------------------
# the word-problem oracle


def bfs_trivial(graph, delta, syllables) -> bool:
    """Complete decision procedure for triviality by breadth-first search.

    Moves: delete an identity syllable, merge or cancel two adjacent
    same-vertex syllables, swap neighbouring syllables whose vertices
    are adjacent.  No move increases the length, so the reachable set
    is finite and emptiness is decided exactly.
    """
    start = tuple((s.vertex, s.value) for s in syllables)
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        if not current:
            return True
        nexts = []
        for i, (v, g) in enumerate(current):
            if delta.is_identity(g):
                nexts.append(current[:i] + current[i + 1 :])
        for i in range(len(current) - 1):
            (v1, g1), (v2, g2) = current[i], current[i + 1]
            if v1 == v2:
                product = delta.compose(g1, g2)
                if delta.is_identity(product):
                    nexts.append(current[:i] + current[i + 2 :])
                else:
                    nexts.append(current[:i] + ((v1, product),) + current[i + 2 :])
            elif graph.adjacent(v1, v2):
                nexts.append(
                    current[:i] + (current[i + 1], current[i]) + current[i + 2 :]
                )
        for candidate in nexts:
            if candidate not in seen:
                seen.add(candidate)
                queue.append(candidate)
    return False


def reference_canonical_form(graph, delta, w) -> Word:
    """The canonical form by the direct quadratic algorithm.

    Merge each syllable with the nearest same-vertex syllable after it
    when every syllable in between is adjacent to their vertex, going on
    from the same place after each merge, in passes until one merges
    nothing; then repeatedly emit the syllable with the smallest vertex
    among the available ones, those whose remaining predecessors all
    commute past them, kept as a set with a count of blocking
    predecessors per syllable.  Each step is read straight off the
    definition, so it is a differential oracle for ``canonical_form``.
    """
    sylls = list(w)
    for s in sylls:
        if not graph.has_vertex(s.vertex):
            raise WordError(f"syllable vertex {s.vertex!r} does not belong to the graph")
        delta.check(s.value)
    sylls = [s for s in sylls if not delta.is_identity(s.value)]

    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(sylls):
            v = sylls[i].vertex
            # the first syllable after i that is on v or does not commute with it
            j = next((j for j in range(i + 1, len(sylls))
                      if sylls[j].vertex == v or not graph.adjacent(sylls[j].vertex, v)), None)
            if j is None or sylls[j].vertex != v:
                i += 1
                continue
            merged = delta.compose(sylls[i].value, sylls[j].value)
            del sylls[j]
            if delta.is_identity(merged):
                del sylls[i]
            else:
                sylls[i] = Syllable(v, merged)
            changed = True  # and look at position i again

    n = len(sylls)
    later_blocked = [  # the later syllables each one does not commute with
        [j for j in range(i + 1, n) if not graph.adjacent(sylls[i].vertex, sylls[j].vertex)]
        for i in range(n)
    ]
    blockers = [0] * n
    for blocked in later_blocked:
        for j in blocked:
            blockers[j] += 1
    keys = [graph.vertex_key(s.vertex) for s in sylls]
    available = {j for j in range(n) if not blockers[j]}
    out: list[Syllable] = []
    while available:
        best = min(available, key=keys.__getitem__)
        available.remove(best)
        out.append(sylls[best])
        for j in later_blocked[best]:
            blockers[j] -= 1
            if not blockers[j]:
                available.add(j)
    return Word(tuple(out))


def is_reduced(graph, delta, w) -> bool:
    """Whether ``w`` has no identity syllable and no two same-vertex
    syllables with only syllables adjacent to that vertex between them."""
    sylls = list(w)
    for j, s in enumerate(sylls):
        if delta.is_identity(s.value):
            return False
        for i in range(j - 1, -1, -1):
            if sylls[i].vertex == s.vertex:
                return False
            if not graph.adjacent(sylls[i].vertex, s.vertex):
                break
    return True


def is_lex_normal(graph, w) -> bool:
    """Whether ``w`` is in lexicographic normal form by ``vertex_key``.

    Checks the Anisimov-Knuth characterisation by brute force: no factor
    ``b u a`` has key(a) < key(b) with a's vertex adjacent to b's and to
    that of every syllable of u.
    """
    vertices = [s.vertex for s in w]
    for j, a in enumerate(vertices):
        for i in range(j):
            if graph.vertex_key(a) < graph.vertex_key(vertices[i]) and all(
                graph.adjacent(vertices[k], a) for k in range(i, j)
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# the quotient oracle


def max_finite_offset(graph: TranslationGraph) -> int:
    """The largest |d| over the graph's finite families, 0 if none."""
    return max((f.datum() for fams in graph.families.values() for f in fams if f.is_finite()),
               default=0)


def brute_quotient(graph: TranslationGraph, m: int, window: int | None = None):
    """Quotient edges and loops by scanning lifts in a window."""
    dmax = max(max_finite_offset(graph), 1)
    width = window if window is not None else 3 * m * dmax
    ids = [(c, r) for c in graph.labels for r in range(m)]
    edges, loops = set(), set()
    for i, u in enumerate(ids):
        for w in ids[i:]:
            hit_edge = hit_loop = False
            for pu in range(u[1] - width, u[1] + width + 1, m):
                for pw in range(w[1] - width, w[1] + width + 1, m):
                    vu, vw = (u[0], pu), (w[0], pw)
                    if vu == vw:
                        continue
                    if graph.adjacent(vu, vw):
                        if u == w:
                            hit_loop = True
                        else:
                            hit_edge = True
            if hit_edge:
                edges.add((u, w))
            if hit_loop:
                loops.add(u)
    return edges, loops


def reference_translation_quotient(graph: TranslationGraph, m: int) -> QuotientGraph:
    """The translation quotient as first written: every residue pair of
    every label pair is tested against the pair's residue set, O(m^2)."""
    vertices = [(c, r) for c in graph.labels for r in range(m)]
    edges = set()
    loops = set()
    for (c1, c2), fams in graph.families.items():
        res = residues_of(fams, m)
        for r1 in range(m):
            for r2 in range(m):
                u, w = (c1, r1), (c2, r2)
                if (r2 - r1) % m in res and u != w:
                    # pair keys put the lower label index first
                    edges.add((u, w) if c1 != c2 or r1 <= r2 else (w, u))
        # 0 in the residue set means two distinct lifts of one orbit are
        # adjacent, which is exactly the loop condition.
        if c1 == c2 and 0 in res:
            loops.update((c1, r) for r in range(m))
    return QuotientGraph(
        "translation", vertices, edges, loops, modulus=m, labels=graph.labels
    )


# ---------------------------------------------------------------------------
# the covering oracle


def reference_covers_all_nonzero(families) -> bool:
    """``graphs.covers_all_nonzero`` as first written: the residue classes
    of every arithmetic family must cover Z/B for B the lcm of all their
    steps, and a window of max start + B offsets is checked one by one."""
    arith = [f for f in families if isinstance(f, ArithmeticOffsets)]
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
# the condition-3 oracle


def brute_offsets(families, limit: int) -> frozenset[int]:
    """Every offset of ``families`` with |d| <= ``limit``, listed out:
    finite offsets, ±(start + k*step) and ±(shift + n!)."""
    out = set()
    for f in families:
        if isinstance(f, FiniteOffsets):
            out |= {d for d in f.offsets if abs(d) <= limit}
        elif isinstance(f, ArithmeticOffsets):
            out |= {s * d for d in range(f.start, limit + 1, f.step) for s in (1, -1)}
        else:
            n, factorial = 1, 1
            while f.shift + factorial <= limit:
                out |= {f.shift + factorial, -(f.shift + factorial)}
                n += 1
                factorial *= n
    return frozenset(out)


def brute_residues(families, m: int, memo: dict | None = None) -> frozenset[int]:
    """The residues modulo m of every offset of ``families``, enumerated:
    ``brute_factorial_residues`` and {±(start + k*step) mod m : k < m}.

    ``memo`` keeps each family's set by (family, m) for as long as the
    caller keeps it; by default it lasts one call.
    """
    memo = {} if memo is None else memo
    out = set()
    for f in families:
        if (f, m) not in memo:
            if isinstance(f, FiniteOffsets):
                memo[f, m] = {d % m for d in f.offsets}
            elif isinstance(f, ArithmeticOffsets):
                memo[f, m] = {s * (f.start + k * f.step) % m for k in range(m) for s in (1, -1)}
            else:
                memo[f, m] = brute_factorial_residues(f.shift, m)
        out |= memo[f, m]
    return frozenset(out)


def rule_modulus(rule: str, t: int) -> int:
    """m(t) as a condition-3 holds-rule text states it, computed anew."""
    finite = re.fullmatch(r"m\(t\) = \|t\| \+ (\d+) \+ 1", rule)
    if finite:
        return abs(t) + int(finite[1]) + 1
    lcm, datum = map(int, re.fullmatch(
        r"m\(t\) = lcm\((\d+), M!\) for the least M >= 2 with "
        r"\(M - 1\)\*\(M - 1\)! > \|t\| \+ (\d+)", rule).groups())
    return lcm_rule_modulus(lcm, datum, t)


def lcm_rule_modulus(steps: int, datum: int, t: int) -> int:
    """m(t) = lcm(L, M!), M the least >= 2 with (M - 1)*(M - 1)! > |t| + D."""
    M = 2
    while (M - 1) * math.factorial(M - 1) <= abs(t) + datum:
        M += 1
    return math.lcm(steps, math.factorial(M))


def brute_nonadjacent(graph: TranslationGraph, c1: str, c2: str, limit: int = 60) -> list[int]:
    """The non-adjacent offsets t of a label pair with |t| <= ``limit``,
    in report order (by size, positive first)."""
    adjacent = brute_offsets(graph.families_for(c1, c2), limit) | ({0} if c1 == c2 else set())
    return [t for t in sorted(range(-limit, limit + 1), key=lambda t: (abs(t), t < 0))
            if t not in adjacent]


def reference_cond3_pair(graph: TranslationGraph, c1: str, c2: str,
                         limit: int = 60, moduli: int = 200, memo: dict | None = None) -> int | None:
    """Condition 3 for one label pair by brute force: the first offset of
    ``brute_nonadjacent`` hit modulo every m <= ``moduli`` (t mod m in
    the enumerated residue set, or 0 mod m within one label), or None.
    Uses neither the families' own residue or membership tests nor the
    lemmas.  ``memo`` is handed to ``brute_residues``."""
    families = graph.families_for(c1, c2)
    zero = {0} if c1 == c2 else set()
    residues = {}  # by modulus, 0 included within one label

    def hit(t, m):
        if m not in residues:
            residues[m] = brute_residues(families, m, memo) | zero
        return t % m in residues[m]

    return next((t for t in brute_nonadjacent(graph, c1, c2, limit)
                 if all(hit(t, m) for m in range(1, moduli + 1))), None)


def reference_pair_evidence_finite(graph: FiniteModeGraph):
    """Finite-mode condition 3 by the per-pair scan first written: every
    non-adjacent pair scans the subgroup list for its least index.  A
    differential oracle for the per-orbit spread in ``check_cond3``."""
    # Per subgroup, the orbit ids of each vertex's neighbours: the orbit
    # of w avoids v and N(v) exactly when its id is neither v's nor one
    # of those.  The orbit of v then avoids w and N(w) too, since
    # hw ~ v if and only if w ~ h^-1 v.
    neighbours = {v: graph.neighbours(v) for v in graph.vertices}
    perm_lists = enumerate_subgroups(graph)
    subgroups = []
    for perms in perm_lists:
        index = len(perm_lists[0]) // len(perms)
        # each vertex named by the least vertex its subgroup moves it to
        orbits = {v: min(p[k] for p in perms) for k, v in enumerate(graph.vertices)}
        subgroups.append(
            (index, orbits, {v: {orbits[u] for u in ns} for v, ns in neighbours.items()})
        )
    for v, w in itertools.combinations(graph.vertices, 2):
        if w in neighbours[v]:
            continue
        # the trivial subgroup comes last and always succeeds: v and w are not adjacent
        for index, orbits, near in subgroups:
            ov, ow = orbits[v], orbits[w]
            if ov != ow and ow not in near[v]:
                yield PairEvidence(pair=(v, w), status="holds", subgroup_index=index)
                break


def hits_mismatches(family, moduli, offsets) -> list[tuple[int, int]]:
    """Residue oracle: every (t, m) where the closed-form ``family.hits(t, m)``
    disagrees with membership of ``t % m`` in the materialised residue set."""
    out = []
    for m in moduli:
        res = residues_of([family], m)
        out += [(t, m) for t in offsets if family.hits(t, m) != (t % m in res)]
    return out


def obstruction_spot_check(families, obstruction, up_to: int = 100) -> bool:
    """Lemma oracle: the obstruction's offset (0 for a loop obstruction)
    lies in the residue set of ``families`` for every modulus up to a
    bound."""
    target = 0 if obstruction.offset is None else obstruction.offset
    return all(target % m in residues_of(families, m) for m in range(1, up_to + 1))


def brute_factorial_residues(shift: int, m: int, extra: int = 5) -> frozenset[int]:
    out = set()
    f = 1
    for n in range(1, m + extra + 1):
        f = f * n % m  # n! mod m
        out.add((shift + f) % m)
        out.add((-(shift + f)) % m)
    return frozenset(out)


def all_short_words(vertices, values, max_len: int):
    """Every syllable sequence of length <= max_len, identity values included."""
    alphabet = [Syllable(v, g) for v in vertices for g in values]
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield combo


# ---------------------------------------------------------------------------
# the subgroup search oracles


def _perm_compose(p: dict, q: dict) -> dict:
    return {v: p[q[v]] for v in q}


def _perm_tuple(p: dict, vertices) -> tuple[int, ...]:
    return tuple(p[v] for v in sorted(vertices))


def close_permutations(maps, vertices) -> list[dict]:
    """Closure of a set of permutations under composition, sorted."""
    ident = {v: v for v in vertices}
    seen = {_perm_tuple(ident, vertices): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in maps:
                q = _perm_compose(g, p)
                key = _perm_tuple(q, vertices)
                if key not in seen:
                    seen[key] = q
                    nxt.append(q)
        frontier = nxt
    return [seen[k] for k in sorted(seen)]


def _perm_order(g: dict) -> int:
    out = 1
    current = g
    ident = {v: v for v in g}
    while current != ident:
        current = _perm_compose(g, current)
        out += 1
    return out


def reference_perm_of(graph: FiniteModeGraph, gamma: tuple[int, ...]) -> dict:
    """The automorphism through which ``gamma`` acts, as a vertex dict
    composed generator by generator, each power reduced modulo the
    generator's order: the direct algorithm, kept as a differential
    oracle for ``FiniteModeGraph.perm_of``."""
    verts = graph.vertices
    gen_maps = [{verts[i]: g[i] for i in range(len(verts))} for g in graph.generators]
    gen_orders = [_perm_order(g) for g in gen_maps]
    if len(gamma) != graph.rank:
        raise GraphError(f"gamma must have {graph.rank} coordinates, got {gamma!r}")
    out = {v: v for v in graph.vertices}
    for g, order, power in zip(gen_maps, gen_orders, gamma):
        for _ in range(power % order):
            out = _perm_compose(g, out)
    return out


def reference_enumerate_subgroups(graph: FiniteModeGraph) -> list[list[dict]]:
    """All subgroups of the acting image, by ascending index, as lists of
    permutation dicts: joins of cyclic subgroups closed as dicts, then
    deduplicated and ordered by the sorted permutation tuples.  The
    direct algorithm, kept as a differential oracle for
    ``enumerate_subgroups``."""
    verts = graph.vertices
    gen_maps = [{verts[i]: g[i] for i in range(len(verts))} for g in graph.generators]
    image = close_permutations(gen_maps, verts)

    def key_of(perms):
        return tuple(sorted(_perm_tuple(p, verts) for p in perms))

    cyclics = {}
    for p in image:
        sub = close_permutations([p], verts)
        cyclics[key_of(sub)] = sub
    subgroups = {key_of(close_permutations([], verts)): close_permutations([], verts)}
    frontier = dict(subgroups)
    while frontier:
        nxt = {}
        for sub in frontier.values():
            for cyc in cyclics.values():
                joined = close_permutations(list(sub) + list(cyc), verts)
                k = key_of(joined)
                if k not in subgroups:
                    subgroups[k] = joined
                    nxt[k] = joined
        frontier = nxt
    total = len(image)
    return sorted(subgroups.values(), key=lambda s: (total // len(s), key_of(s)))


def reference_first_candidate(instance: Instance, x: WreathElement, candidates):
    """Index of the first candidate whose whole quotient graph passes the
    separation checks, or None.

    Candidates are moduli (translation) or subgroups as permutation
    tuples (finite mode).  Each check is read off the quotient built
    for the candidate: gamma survives, the support keeps distinct
    images and exactly its adjacency, and, for non-abelian
    coefficients, no quotient vertex carries a loop.
    """
    graph = instance.graph
    x = instance.normalize(x)
    sub, x = restrict_orbits(instance, x)
    support = sorted(x.word.vertices(), key=sub.graph.vertex_key)
    for index, candidate in enumerate(candidates):
        if isinstance(graph, TranslationGraph):
            if x.gamma != 0 and x.gamma % candidate == 0:
                continue
            quotient = quotient_graph(sub.graph, candidate)
        else:
            if any(x.gamma) and tuple(graph.act(x.gamma, v) for v in graph.vertices) in candidate:
                continue
            quotient = _candidate_quotient(graph, sub.graph, candidate)
        images = [quotient.project(v) for v in support]
        if len(set(images)) != len(images):
            continue
        if any(
            sub.graph.adjacent(v, w) != quotient.adjacent(quotient.project(v), quotient.project(w))
            for v, w in itertools.combinations(support, 2)
        ):
            continue
        if not instance.delta.is_abelian() and quotient.loops:
            continue
        return index
    return None


def brute_separating_modulus(instance: Instance, x: WreathElement, bound: int,
                             memo: dict | None = None) -> int | None:
    """The least m <= ``bound`` whose quotient by mZ separates ``x`` on a
    translation instance, or None, scanned from 1 by the definitions:
    gamma survives, the support keeps distinct images, a support pair is
    adjacent modulo m exactly when it is adjacent (its offset listed by
    ``brute_offsets``, modulo m in ``brute_residues``), and with
    non-abelian coefficients no support label has 0 among its own
    residues.  Uses neither the families' residue tests nor the lemmas.
    ``memo`` is handed to ``brute_residues``."""
    graph = instance.graph
    x = instance.normalize(x)
    support = sorted(x.word.vertices(), key=graph.vertex_key)
    labels = {c for c, _ in support}
    pairs = []
    for (c1, p), (c2, q) in itertools.combinations(support, 2):
        families = graph.families_for(c1, c2)
        pairs.append((families, q - p, q - p in brute_offsets(families, abs(q - p))))
    for m in range(1, bound + 1):
        if x.gamma % m == 0 and x.gamma != 0:
            continue
        if len({(c, p % m) for c, p in support}) != len(support):
            continue
        if not instance.delta.is_abelian() and any(
            0 in brute_residues(graph.families_for(c, c), m, memo) for c in labels
        ):
            continue
        if all((t % m in brute_residues(families, m, memo)) == adjacent
               for families, t, adjacent in pairs):
            return m
    return None


def _candidate_quotient(graph: FiniteModeGraph, sub: FiniteModeGraph, perms) -> QuotientGraph:
    """The quotient of ``sub``, a union of orbits of ``graph``, by the
    subgroup listed as ``perms``: each vertex goes to its least image
    over the listed permutations, and each edge to its orbits' pair."""
    position = {v: k for k, v in enumerate(graph.vertices)}
    orbit = {v: min(p[position[v]] for p in perms) for v in sub.vertices}
    edges, loops = set(), set()
    for u, w in sub.edges:
        ou, ow = sorted((orbit[u], orbit[w]))
        if ou == ow:
            loops.add(ou)
        else:
            edges.add((ou, ow))
    return QuotientGraph("finite", sorted(set(orbit.values())), edges, loops, orbit_map=orbit)


# ---------------------------------------------------------------------------
# two-pass group operations


def reference_gw_compose(instance: Instance, x: WreathElement, y: WreathElement) -> WreathElement:
    """The product as first written: the right word is moved and
    canonicalised, then canonicalised again behind the left word."""
    graph, delta = instance.graph, instance.delta
    gamma = graph.acting.compose(x.gamma, y.gamma)  # checks both before acting
    twisted = act_word(graph, delta, x.gamma, y.word)
    return WreathElement(canonical_form(graph, delta, tuple(x.word) + tuple(twisted)), gamma)


def reference_gw_invert(instance: Instance, x: WreathElement) -> WreathElement:
    """The inverse as first written: the word is inverted and
    canonicalised, then moved and canonicalised again."""
    graph, delta = instance.graph, instance.delta
    ginv = graph.acting.invert(x.gamma)
    return WreathElement(
        act_word(graph, delta, ginv, gp_invert(graph, delta, x.word)), ginv
    )


# ---------------------------------------------------------------------------
# rule-derived search bounds


def separation_bound(instance: Instance, verdict: Verdict, x: WreathElement) -> int:
    """A modulus within which ``separate`` must succeed, read off the
    rules of the checker's proofs, restated here: of the verdict only
    its status is read.

    Only meaningful for residually finite translation instances.  The
    bound is the lcm of the per-constraint moduli, each of which persists
    under multiples; an orbit's is m(0), which misses 0 when condition 2
    holds, and an infinite family's is m(t) (``lcm_rule_modulus``).
    """

    def rule(families, t):
        steps = math.lcm(1, *(f.step for f in families if isinstance(f, ArithmeticOffsets)))
        return lcm_rule_modulus(steps, max((f.datum() for f in families), default=0), t)

    graph = instance.graph
    if not isinstance(graph, TranslationGraph):
        raise GraphError("rule bounds are only derived for translation instances")
    if verdict.status != RESIDUALLY_FINITE:
        raise GraphError("rule bounds require a residually finite verdict")
    x = instance.normalize(x)
    constraints = [1]
    if x.gamma != 0:
        constraints.append(abs(x.gamma) + 1)
    vertices = sorted(x.word.vertices(), key=graph.vertex_key)
    if not instance.delta.is_abelian():
        constraints.extend(rule(graph.families_for(c, c), 0) for c in {v[0] for v in vertices})
    for v, w in itertools.combinations(vertices, 2):
        (c1, p), (c2, q) = v, w
        t = q - p
        families = graph.families_for(c1, c2)
        if graph.adjacent(v, w):
            if c1 == c2:
                constraints.append(abs(t) + 1)
            continue
        if all(f.is_finite() for f in families):
            constraints.append(abs(t) + max((f.datum() for f in families), default=0) + 1)
        else:
            constraints.append(rule(families, t))
    return math.lcm(*constraints)



# ---------------------------------------------------------------------------
# the classical cases as oracles


def complete_graph_rf(instance: Instance) -> bool:
    """Residual finiteness over a complete graph, where the product is the
    permutational wreath product of the coefficients A by the acting group
    B.  By Gruenberg (*Residual properties of infinite soluble groups*,
    Proc. LMS 1957) A wr B is residually finite iff A and B are and A is
    abelian or B is finite.  Every coefficient group here is finite or
    free abelian.  A translation graph's B is the integers, acting freely;
    a finite-mode B acts through a finite image, and the kernel of that
    action leaves a residually finite direct product of finite index."""
    graph = instance.graph
    if isinstance(graph, FiniteModeGraph):
        n = len(graph.vertices)
        if len(graph.edges) != n * (n - 1) // 2:
            raise ValueError("the complete-graph oracle needs a complete graph")
        return True
    (c,) = graph.labels
    if brute_offsets(graph.families_for(c, c), 40) != frozenset(range(-40, 41)) - {0}:
        raise ValueError("the complete-graph oracle needs a complete graph")
    return instance.delta.is_abelian()


def edgeless_graph_rf(instance: Instance) -> bool:
    """Residual finiteness over an edgeless graph, where the product is a
    free product of copies of the coefficients extended by the action.
    Free products of residually finite groups are residually finite
    (Gruenberg, 1957), and with no edges no neighbourhood or vertex pair
    can fail the paper's conditions: every such instance is."""
    graph = instance.graph
    if graph.edges if isinstance(graph, FiniteModeGraph) else any(graph.families.values()):
        raise ValueError("the edgeless-graph oracle needs an edgeless graph")
    return True


def random_complete_translation_graph(rng) -> TranslationGraph:
    """One label whose families hold every nonzero offset: one arithmetic
    family start + B*k per class of Z/B, the offsets below the starts
    that no class reaches yet as a finite family, and finite and
    factorial extras, which add no offset."""
    step = rng.randint(1, 5)
    starts = [r + step * rng.randint(0 if r else 1, 3) for r in range(step)]
    families = [ArithmeticOffsets(start, step) for start in starts]
    below = {d for d in range(1, max(starts))
             if not any(d >= start and (d - start) % step == 0 for start in starts)}
    extras = below | {rng.randint(1, 12) for _ in range(rng.randint(0, 2))}
    if extras:
        families.append(FiniteOffsets(frozenset(extras)))
    families += [FactorialOffsets(rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(families)
    return TranslationGraph(("c",), {("c", "c"): tuple(families)})


def random_permutation_graph(rng, complete: bool) -> FiniteModeGraph:
    """1-6 vertices, complete or edgeless, with up to three generators,
    each a power of one random permutation: they commute, and every
    permutation is an automorphism of both graphs."""
    n = rng.randint(1, 6)
    sigma = list(range(n))
    rng.shuffle(sigma)
    generators = []
    for _ in range(rng.randint(0, 3)):
        power = list(range(n))
        for _ in range(rng.randint(0, 5)):
            power = [sigma[v] for v in power]
        generators.append(tuple(power))
    edges = frozenset(itertools.combinations(range(n), 2)) if complete else frozenset()
    return FiniteModeGraph(tuple(range(n)), edges, tuple(generators))


# ---------------------------------------------------------------------------
# finite partial models


def random_translation_graph(rng) -> TranslationGraph:
    """1-3 labels; each label pair gets no family, or one finite,
    factorial or arithmetic family."""
    labels = ("a", "b", "c")[: rng.randint(1, 3)]
    families = {}
    for i, c1 in enumerate(labels):
        for c2 in labels[i:]:
            kind = rng.choice(("none", "finite", "factorial", "arithmetic"))
            if kind == "finite":
                offsets = {rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(3)}
                families[c1, c2] = (FiniteOffsets(frozenset(offsets)),)
            elif kind == "factorial":
                families[c1, c2] = (FactorialOffsets(rng.randint(0, 3)),)
            elif kind == "arithmetic":
                families[c1, c2] = (ArithmeticOffsets(rng.randint(1, 4), rng.randint(1, 5)),)
    return TranslationGraph(labels, families)


def lef_satisfies(cert, graph, gammas, vertices) -> bool:
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
