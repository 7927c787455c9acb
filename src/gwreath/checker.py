"""Classification of instances.

An instance is separable exactly when (1) the coefficient and acting
groups are separable, which holds by construction for the supported
classes, (2) either the coefficients are abelian and neighbouring
vertices are torn apart by some finite-index subgroup, or every orbit
can be pushed off its own neighbourhood, and (3) every non-adjacent
vertex pair can be pushed apart from the neighbourhood as well.  Both
conditions are decided: in finite mode by the finite subgroup table, in
translation mode from residue classes (``_rule_modulus`` and
``_offset_window`` hold the proofs).  A failure is certified through a
residue lemma and packaged as an explicit witness element.
"""

from __future__ import annotations

import heapq
import itertools
import math

from .errors import GraphError
from .groups import Record, _set
from .graphs import (
    ArithmeticOffsets,
    FactorialOffsets,
    FiniteModeGraph,
    TranslationGraph,
    contains_offset,
    covers_all_nonzero,
    is_complete,
    orbit_counts,
)
from .wreath import (
    Instance,
    NonRFWitness,
    Obstruction,
    certify_offset_always,
    certify_zero_always,
    witness,
)

RESIDUALLY_FINITE = "residually-finite"
NOT_RESIDUALLY_FINITE = "not-residually-finite"

COND1_NOTE = (
    "coefficient and acting groups are separable by construction of the "
    "supported classes"
)


# ---------------------------------------------------------------------------
# condition 2: orbits versus their own neighbourhoods


class OrbitEvidence(Record):
    """Per-orbit outcome of the search for K with Kv disjoint from N(v)."""

    orbit: str | int
    status: str  # "holds" | "fails"
    modulus: int | None = None
    subgroup_index: int | None = None
    obstruction: Obstruction | None = None


class Cond2Result(Record):
    abelian: bool
    abelian_rule: str | None
    per_orbit: tuple[OrbitEvidence, ...]
    holds: bool
    failing: OrbitEvidence | None = None


def check_cond2(instance: Instance) -> Cond2Result:
    """Check the orbit/neighbourhood condition.

    The abelian branch (separating neighbouring vertices inside one
    orbit) always holds over the supported acting groups: translation
    separates any two positions by a large enough modulus, and the
    trivial image subgroup separates finite-mode points.  The per-orbit
    decision is made regardless, because its moduli are reusable
    evidence downstream.  A translation orbit fails exactly when 0 is a
    lemma offset (``_rule_modulus``, claim 2); otherwise its modulus is
    the least that misses 0, found among the moduli at which every
    arithmetic family misses it (``_candidate_moduli``), up to m(0),
    which misses it.  A candidate costs one ``hits`` per family: a
    factorial walk stops once gcd(n!, m) rules a hit out, but at a prime
    candidate p it takes up to p steps.
    """
    graph, delta = instance.graph, instance.delta
    abelian = delta.is_abelian()
    if isinstance(graph, TranslationGraph):
        abelian_rule = "m(t) = |t| + 1 separates neighbours at offset t"
        evidence = tuple(_orbit_evidence_translation(graph, c) for c in graph.labels)
    elif isinstance(graph, FiniteModeGraph):
        abelian_rule = "the trivial image subgroup separates any two vertices"
        evidence = tuple(_orbit_evidence_finite(graph))
    else:
        raise GraphError(f"cannot classify over {type(graph).__name__}")

    failing = None if abelian else next((e for e in evidence if e.status == "fails"), None)
    return Cond2Result(
        abelian=abelian,
        abelian_rule=abelian_rule if abelian else None,
        per_orbit=evidence,
        holds=failing is None,
        failing=failing,
    )


def _orbit_evidence_translation(graph: TranslationGraph, c: str) -> OrbitEvidence:
    families = graph.families_for(c, c)
    obstruction = certify_zero_always(families, (c, c))
    if obstruction is not None:
        return OrbitEvidence(orbit=c, status="fails", obstruction=obstruction)
    # no lemma fired, so m(0) misses 0 (claim 2) and ends the search
    limit = _rule_modulus(0, *_datum_and_steps(families))
    m = next(m for m in _candidate_moduli(families, limit)
             if not any(f.hits(0, m) for f in families))
    return OrbitEvidence(orbit=c, status="holds", modulus=m)


def _candidate_moduli(families, limit: int):
    """The moduli 1..``limit``, in increasing order, at which every
    arithmetic family misses 0.

    start + step*k hits 0 modulo m iff gcd(step, m) divides start, so it
    misses 0 iff q^(v_q(start) + 1) divides m for some prime q with
    v_q(step) > v_q(start): a prime of step / gcd(start, step).  The
    candidates are the multiples of the lcms of one such prime power per
    family, merged from a heap: the search costs the factoring of the
    steps, not a walk through every modulus below its answer.
    """
    bases = {1}
    for f in families:
        if isinstance(f, ArithmeticOffsets):
            powers = []
            for q in _prime_factors(f.step // math.gcd(f.start, f.step)):
                power, start = q, f.start
                while start % q == 0:
                    power, start = power * q, start // q
                powers.append(power)
            bases = {math.lcm(b, power) for b in bases for power in powers}
    heap, last = [(b, b) for b in bases], 0
    heapq.heapify(heap)
    while heap and heap[0][0] <= limit:
        m, base = heap[0]
        if m != last:  # a modulus that is a multiple of two bases comes twice
            yield m
            last = m
        heapq.heapreplace(heap, (m + base, base))


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


def _orbit_evidence_finite(graph: FiniteModeGraph):
    subgroups = graph._subgroups
    for v in sorted(set(graph._orbit_map.values())):
        neighbours = graph.neighbours(v)
        # the trivial subgroup comes last and always succeeds: there are no loops
        index = next(i for i, _, orbits in subgroups
                     if not any(orbits[u] == orbits[v] for u in neighbours))
        yield OrbitEvidence(orbit=v, status="holds", subgroup_index=index)


# ---------------------------------------------------------------------------
# condition 3: non-adjacent pairs versus neighbourhoods


class PairEvidence(Record):
    """Outcome for one orbit pair (translation) or vertex pair (finite).

    A failing translation pair keeps the obstruction of its least
    lemma-certified non-adjacent offset (by size, positive first), so
    the offset it reports is ``obstruction.offset``.
    """

    pair: tuple
    status: str  # "holds-vacuous" | "holds-rule" | "holds" | "fails"
    rule: str | None = None
    obstruction: Obstruction | None = None
    subgroup_index: int | None = None

    @classmethod
    def _holds(cls, pair: tuple, subgroup_index: int) -> PairEvidence:
        """A finite-mode pair that holds at ``subgroup_index``, built field
        by field: the generic argument binding takes twice as long, and a
        record given its fields as one dict takes 1.6 times the memory."""
        record = object.__new__(cls)
        _set(record, "pair", pair)
        _set(record, "status", "holds")
        _set(record, "rule", None)
        _set(record, "obstruction", None)
        _set(record, "subgroup_index", subgroup_index)
        return record


class Cond3Result(Record):
    per_pair: tuple[PairEvidence, ...]
    holds: bool
    t_max: int | None
    failing: PairEvidence | None = None


def default_t_max(graph: TranslationGraph) -> int:
    datum = 1
    for fams in graph.families.values():
        for f in fams:
            datum = max(datum, f.datum())
    return 3 * datum


def check_cond3(instance: Instance, t_max: int | None = None) -> Cond3Result:
    """Check the pair separation condition.

    A translation label pair with only finite families holds by one
    rule.  Otherwise it fails iff some non-adjacent offset (t != 0 within
    one label) is a lemma offset: ±shift of a factorial family, or
    t = ±start mod step of an arithmetic one.  It reports the first by
    size, positive first, walking only the lemma offsets 0 <= t <= W
    (``_offset_window``); a holding pair costs O(#shifts + sum W/step)
    lookups and states the rule m(t) of ``_rule_modulus``.  ``t_max``
    is only recorded (``default_t_max`` when None).
    """
    graph = instance.graph
    if isinstance(graph, FiniteModeGraph):
        return Cond3Result(per_pair=tuple(_pair_evidence_finite(graph)), holds=True, t_max=None)
    if not isinstance(graph, TranslationGraph):
        raise GraphError(f"cannot classify over {type(graph).__name__}")

    evidence = tuple(
        _pair_evidence_translation(graph, c1, c2)
        for i, c1 in enumerate(graph.labels)
        for c2 in graph.labels[i:]
    )
    failing = next((e for e in evidence if e.status == "fails"), None)
    return Cond3Result(per_pair=evidence, holds=failing is None,
                       t_max=default_t_max(graph) if t_max is None else t_max, failing=failing)


def _pair_evidence_translation(graph: TranslationGraph, c1: str, c2: str) -> PairEvidence:
    families, pair = graph.families_for(c1, c2), (c1, c2)
    if c1 == c2 and covers_all_nonzero(families):
        return PairEvidence(pair, "holds-vacuous",
                            "every nonzero offset is an edge, so no pair needs separating")
    if all(f.is_finite() for f in families):
        dmax = max((f.datum() for f in families), default=0)
        return PairEvidence(pair, "holds-rule", f"m(t) = |t| + {dmax} + 1")
    # the lemma offsets 0 <= t <= W in increasing order, merged lazily from a heap of each
    # run's next offset and step: the classes ±start mod step, and ±shift stepping past W
    shifts, runs = [], []
    for f in families:
        if isinstance(f, FactorialOffsets):
            shifts.append(f.shift)
        elif isinstance(f, ArithmeticOffsets):
            runs += [(r, f.step) for r in {f.start % f.step, -f.start % f.step}]
    datum, steps = _datum_and_steps(families)
    window = _offset_window(shifts, datum, steps)
    runs += [(s, window + 1) for s in shifts]
    heapq.heapify(runs)
    while runs and runs[0][0] <= window:
        t, step = runs[0]
        if not ((c1 == c2 and t == 0) or contains_offset(families, t)):
            return PairEvidence(pair, "fails", obstruction=certify_offset_always(families, pair, t))
        heapq.heapreplace(runs, (t + step, step))
    return PairEvidence(pair, "holds-rule", f"m(t) = lcm({steps}, M!) for the least M >= 2 "
                                            f"with (M - 1)*(M - 1)! > |t| + {datum}")


def _datum_and_steps(families) -> tuple[int, int]:
    """D, the largest datum, and L, the lcm of the arithmetic steps."""
    datum, steps = 0, 1
    for f in families:
        datum = max(datum, f.datum())
        if isinstance(f, ArithmeticOffsets):
            steps = math.lcm(steps, f.step)
    return datum, steps


def _rule_modulus(t: int, datum: int, steps: int) -> int:
    """m(t) = lcm(L, M!), M the least >= 2 with (M - 1)*(M - 1)! > |t| + D.

    Claim 1: modulo m(t) the families miss every non-adjacent t that is
    no lemma offset, and within one label t misses 0 as well.  Proof:
    M! > (M - 1)*(M - 1)! > |t| + D, and M! and L divide m(t).  Let d be
    an offset with d = t mod m(t).  Finite: |d| <= D, so |t - d| < M!
    and d = t, adjacent.  Arithmetic: the step divides L, so t = ±start
    mod step, a lemma offset.  Factorial, d = ±(s + n!) with s <= D:
    for n >= M, M! divides n!, so t = ±s mod M!, and |t -+ s| < M!
    gives t = ±s, a lemma offset; for n < M, |t| + s + n! <
    (M - 1)*(M - 1)! + (M - 1)! = M!, so d = t, adjacent.  Within one
    label 0 < |t| < m(t).  Conversely each lemma hits its offsets
    modulo every m, so the pair decision is exact.

    Claim 2: condition 2 is the case t = 0: no family holds 0, and 0 is
    a lemma offset exactly when ``certify_zero_always`` names a lemma.
    """
    m, factorial = 2, 1  # M and (M - 1)!
    while (m - 1) * factorial <= abs(t) + datum:
        factorial *= m
        m += 1
    return math.lcm(steps, factorial * m)


def _offset_window(shifts: list[int], datum: int, steps: int) -> int:
    """W = D + (F + 1)*L, F the least fixed point from 0 of the count of
    factorial offsets shift + n! <= W.  Families, lemmas and adjacency
    are closed under negation, so the first non-adjacent lemma offset in
    report order is never negative, and a pair walks 0 <= t <= W.

    Claim 3: if some non-adjacent offset t is a lemma offset, one is
    within W.  Proof: let |t| > W.  Past D no finite offset lies, t' is
    a lemma offset iff t' = ±start mod step for an arithmetic family
    (each ±shift is within D), and an arithmetic family holds t' iff
    |t'| = start mod step; each step divides L.  So the F + 1 offsets
    t' = t mod L of t's sign with D < |t'| <= W are lemma offsets that
    no finite or arithmetic family holds, and at most F of them are
    factorial offsets.
    """
    count = 0
    while True:  # F never decreases, and grows like log W while W grows linearly in F
        window, found = datum + (count + 1) * steps, 0
        for s in shifts:
            n = factorial = 1
            while s + factorial <= window:
                found, n = found + 1, n + 1
                factorial *= n
        if found == count:
            return window
        count = found


def _pair_evidence_finite(graph: FiniteModeGraph):
    """Each non-adjacent vertex pair (v, w), in ``itertools.combinations``
    order, with the least index of a subgroup H whose orbit Hw avoids v
    and N(v).  The orbit Hv then avoids w and N(w) too, since hw ~ v if
    and only if w ~ h^-1 v, so the index is one of the unordered pair.

    The index is found by a scan of the subgroups for the first pair of
    each orbit of pairs under the acting image, and recorded for every
    pair of that orbit, walked from it along the generators' steps as
    ``graphs._orbits`` walks vertices.  It is the same there: the image
    is abelian, so g maps the H-orbit Hw onto H(gw), and g is an
    automorphism, so it maps {v} and N(v) onto {gv} and N(gv); Hw avoids
    the one exactly when H(gw) avoids the other.  No element of the
    image is listed.
    """
    neighbours, subgroups = graph._neighbours, graph._subgroups
    steps = [dict(zip(graph.vertices, g)) for g in graph.generators]
    # each unordered pair keyed once, lower id first
    found: dict[tuple[int, int], int] = {}
    for v, w in itertools.combinations(graph.vertices, 2):
        if w in neighbours[v]:
            continue
        index = found.get((v, w))
        if index is None:
            # the trivial subgroup comes last and always succeeds: v and w are not adjacent
            index = found[v, w] = next(i for i, _, orbits in subgroups
                                       if orbits[v] != (ow := orbits[w])
                                       and not any(orbits[u] == ow for u in neighbours[v]))
            stack = [(v, w)]
            while stack:
                a, b = stack.pop()
                for step in steps:
                    c, d = step[a], step[b]
                    pair = (c, d) if c < d else (d, c)
                    if pair not in found:
                        found[pair] = index
                        stack.append(pair)
        yield PairEvidence._holds((v, w), index)


# ---------------------------------------------------------------------------
# verdicts


class Verdict(Record):
    status: str
    cond1_note: str = COND1_NOTE
    cond2: Cond2Result | None = None
    cond3: Cond3Result | None = None
    witness: NonRFWitness | None = None
    bound: int | None = None
    failing_condition: str | None = None
    note: str | None = None


def classify(instance: Instance, bound: int = 64, t_max: int | None = None) -> Verdict:
    """Decide whether an instance is residually finite.

    A negative from either condition wins immediately and is packaged
    as an explicit witness element; a positive needs both.  ``bound``
    and ``t_max`` are only recorded: neither changes any answer.
    """
    cond2 = check_cond2(instance)
    if not cond2.holds:
        return Verdict(
            status=NOT_RESIDUALLY_FINITE,
            cond2=cond2,
            witness=_cond2_witness(instance, cond2),
            bound=bound,
            failing_condition="condition-2",
        )
    cond3 = check_cond3(instance, t_max)
    if not cond3.holds:
        return Verdict(
            status=NOT_RESIDUALLY_FINITE,
            cond2=cond2,
            cond3=cond3,
            witness=_cond3_witness(instance, cond3),
            bound=bound,
            failing_condition="condition-3",
        )
    return Verdict(status=RESIDUALLY_FINITE, cond2=cond2, cond3=cond3, bound=bound)


def _cond2_witness(instance: Instance, cond2: Cond2Result) -> NonRFWitness:
    c = cond2.failing.orbit
    return witness(instance, "T3.1", [(c, 0)])


def _cond3_witness(instance: Instance, cond3: Cond3Result) -> NonRFWitness:
    c1, c2 = cond3.failing.pair
    return witness(instance, "T3.2", [(c1, 0), (c2, cond3.failing.obstruction.offset)])


def classify_wreath(instance: Instance) -> Verdict:
    """Specialized classification for complete graphs.

    Vertex stabilisers decide everything here: they have finite index
    exactly when the action factors through a finite image, so a
    finite-mode complete graph is always separable, while a translation
    one (free action on an infinite orbit) is separable precisely for
    abelian coefficients.  Agrees with ``classify`` on every complete
    instance.
    """
    graph, delta = instance.graph, instance.delta
    if not is_complete(graph):
        raise GraphError("the specialized classifier requires a complete graph")
    if isinstance(graph, FiniteModeGraph):
        return Verdict(
            status=RESIDUALLY_FINITE,
            note=(
                "complete graph with all vertex stabilisers of finite index "
                "(the action factors through a finite group)"
            ),
        )
    if delta.is_abelian():
        return Verdict(
            status=RESIDUALLY_FINITE,
            note=(
                "complete graph with abelian coefficients: any two positions "
                "separate modulo a large enough modulus, and no non-adjacent "
                "pairs exist"
            ),
        )
    c = graph.labels[0]
    wit = witness(instance, "T3.1", [(c, 0)])
    return Verdict(
        status=NOT_RESIDUALLY_FINITE,
        witness=wit,
        failing_condition="condition-2",
        note=(
            "complete graph, non-abelian coefficients, infinite orbit with "
            "trivial stabilisers"
        ),
    )


# ---------------------------------------------------------------------------
# finite presentation


class FPCondition(Record):
    name: str
    ok: bool
    reason: str


class FPReport(Record):
    finitely_presented: bool
    conditions: tuple[FPCondition, ...]
    vertex_orbits: int
    edge_orbits: int | None


def check_finitely_presented(instance: Instance) -> FPReport:
    """Finite presentation reduces to finiteness of the edge orbit count.

    The supported coefficient classes are all finitely presented, the
    acting groups are free abelian, and vertex stabilisers are trivial
    (translation) or of finite index (finite mode), hence finitely
    generated; only the orbit counts can fail.
    """
    vertex_orbits, edge_orbits = orbit_counts(instance.graph)
    conditions = (
        FPCondition(
            "coefficient-group-finitely-presented",
            True,
            "every supported coefficient class is finitely presented",
        ),
        FPCondition(
            "acting-group-finitely-presented",
            True,
            "free abelian acting groups are finitely presented",
        ),
        FPCondition(
            "finitely-many-orbits",
            edge_orbits is not None,
            f"{vertex_orbits} vertex orbit(s), "
            + (f"{edge_orbits} edge orbit(s)" if edge_orbits is not None else "infinitely many edge orbits"),
        ),
        FPCondition(
            "stabilisers-finitely-generated",
            True,
            "translation acts freely; finite-mode stabilisers have finite index",
        ),
    )
    return FPReport(
        finitely_presented=all(c.ok for c in conditions),
        conditions=conditions,
        vertex_orbits=vertex_orbits,
        edge_orbits=edge_orbits,
    )
