"""Three-valued classification of instances.

An instance is certified separable when (1) the coefficient and acting
groups are separable, which holds by construction for the supported
classes, (2) either the coefficients are abelian and neighbouring
vertices are torn apart by some finite-index subgroup, or every orbit
can be pushed off its own neighbourhood, and (3) every non-adjacent
vertex pair can be pushed apart from the neighbourhood as well.  The
negative direction is certified through the residue lemmas; whenever
neither direction can be certified (condition 3 quantifies over
infinitely many offsets for infinite families) the verdict is Unknown
rather than a guess.
"""

from __future__ import annotations

import itertools
import math

from .errors import GraphError
from .groups import Record
from .graphs import (
    FiniteModeGraph,
    TranslationGraph,
    contains_offset,
    covers_all_nonzero,
    is_complete,
    orbit_counts,
    residues_of,
)
from .wreath import (
    Instance,
    NonRFWitness,
    Obstruction,
    WreathElement,
    certify_offset_always,
    certify_zero_always,
    witness,
)

RESIDUALLY_FINITE = "residually-finite"
NOT_RESIDUALLY_FINITE = "not-residually-finite"
UNKNOWN = "unknown"

COND1_NOTE = (
    "coefficient and acting groups are separable by construction of the "
    "supported classes"
)


# ---------------------------------------------------------------------------
# condition 2: orbits versus their own neighbourhoods


class OrbitEvidence(Record):
    """Per-orbit outcome of the search for K with Kv disjoint from N(v)."""

    orbit: str | int
    status: str  # "holds" | "fails" | "unknown"
    modulus: int | None = None
    subgroup_index: int | None = None
    obstruction: Obstruction | None = None


class Cond2Result(Record):
    abelian: bool
    abelian_rule: str | None
    per_orbit: tuple[OrbitEvidence, ...]
    holds: bool | None
    failing: OrbitEvidence | None = None


def check_cond2(instance: Instance, bound: int = 64) -> Cond2Result:
    """Check the orbit/neighbourhood condition.

    The abelian branch (separating neighbouring vertices inside one
    orbit) always holds over the supported acting groups: translation
    separates any two positions by a large enough modulus, and the
    trivial image subgroup separates finite-mode points.  The per-orbit
    search for a subgroup clearing the whole neighbourhood is run
    regardless, because its moduli are reusable evidence downstream.
    """
    graph, delta = instance.graph, instance.delta
    abelian = delta.is_abelian()
    if isinstance(graph, TranslationGraph):
        abelian_rule = "m(t) = |t| + 1 separates neighbours at offset t"
        evidence = tuple(_orbit_evidence_translation(graph, c, bound) for c in graph.labels)
    elif isinstance(graph, FiniteModeGraph):
        abelian_rule = "the trivial image subgroup separates any two vertices"
        evidence = tuple(_orbit_evidence_finite(graph))
    else:
        raise GraphError(f"cannot classify over {type(graph).__name__}")

    failing = next((e for e in evidence if e.status == "fails"), None)
    if abelian:
        holds = True
        failing = None
    elif failing is not None:
        holds = False
    elif all(e.status == "holds" for e in evidence):
        holds = True
    else:
        holds = None
    return Cond2Result(
        abelian=abelian,
        abelian_rule=abelian_rule if abelian else None,
        per_orbit=evidence,
        holds=holds,
        failing=failing,
    )


def _orbit_evidence_translation(graph: TranslationGraph, c: str, bound: int) -> OrbitEvidence:
    families = graph.families_for(c, c)
    obstruction = certify_zero_always(families, (c, c))
    if obstruction is not None:
        return OrbitEvidence(orbit=c, status="fails", obstruction=obstruction)
    for m in range(1, bound + 1):
        if not any(f.hits(0, m) for f in families):
            return OrbitEvidence(orbit=c, status="holds", modulus=m)
    return OrbitEvidence(orbit=c, status="unknown")


def _orbit_evidence_finite(graph: FiniteModeGraph):
    subgroups = graph._subgroup_orbits
    for v in sorted(set(subgroups[0][1].values())):
        neighbours = graph.neighbours(v)
        # the trivial subgroup comes last and always succeeds: there are no loops
        index = next(i for i, orbits in subgroups
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
    status: str  # "holds-vacuous" | "holds-rule" | "holds" | "fails" | "unknown"
    rule: str | None = None
    obstruction: Obstruction | None = None
    subgroup_index: int | None = None


class Cond3Result(Record):
    per_pair: tuple[PairEvidence, ...]
    holds: bool | None
    t_max: int | None
    failing: PairEvidence | None = None


def default_t_max(graph: TranslationGraph) -> int:
    datum = 1
    for fams in graph.families.values():
        for f in fams:
            datum = max(datum, f.datum())
    return 3 * datum


def check_cond3(instance: Instance, bound: int = 64, t_max: int | None = None) -> Cond3Result:
    """Check the pair separation condition.

    With only finite families a single explicit rule covers every
    offset.  Infinite families are walked through the non-adjacent
    offsets of the window ``|t| <= t_max`` in report order (0 for two
    labels, then 1, -1, 2, -2, ...), and a pair fails at the first
    offset a lemma certifies, which is the one it reports.  A universal
    positive over the remaining infinitely many offsets is never
    claimed, so the pair outcome is otherwise Unknown unless it has no
    non-adjacent offsets at all.
    """
    graph = instance.graph
    if isinstance(graph, FiniteModeGraph):
        return Cond3Result(per_pair=tuple(_pair_evidence_finite(graph)), holds=True, t_max=None)
    if not isinstance(graph, TranslationGraph):
        raise GraphError(f"cannot classify over {type(graph).__name__}")

    if t_max is None:
        t_max = default_t_max(graph)
    pairs = [
        (c1, c2)
        for i, c1 in enumerate(graph.labels)
        for c2 in graph.labels[i:]
    ]
    evidence = tuple(
        _pair_evidence_translation(graph, c1, c2, bound, t_max) for c1, c2 in pairs
    )
    failing = next((e for e in evidence if e.status == "fails"), None)
    if failing is not None:
        holds = False
    elif all(e.status in ("holds-vacuous", "holds-rule") for e in evidence):
        holds = True
    else:
        holds = None
    return Cond3Result(per_pair=evidence, holds=holds, t_max=t_max, failing=failing)


def _pair_evidence_translation(
    graph: TranslationGraph, c1: str, c2: str, bound: int, t_max: int
) -> PairEvidence:
    families = graph.families_for(c1, c2)
    same = c1 == c2
    if same and covers_all_nonzero(families):
        return PairEvidence(
            pair=(c1, c2),
            status="holds-vacuous",
            rule="every nonzero offset is an edge, so no pair needs separating",
        )
    if all(f.is_finite() for f in families):
        dmax = max((f.max_offset() for f in families), default=0)
        return PairEvidence(
            pair=(c1, c2),
            status="holds-rule",
            rule=f"m(t) = |t| + {dmax} + 1",
        )

    window = []  # the non-adjacent offsets no lemma certifies
    # 0, 1, -1, 2, -2, ...: by size, positive first, the order offsets are reported in
    for t in itertools.chain.from_iterable((k, -k) if k else (0,) for k in range(t_max + 1)):
        if (same and t == 0) or contains_offset(families, t):
            continue  # adjacent offsets need no separating
        obstruction = certify_offset_always(families, (c1, c2), t)
        if obstruction is not None:
            return PairEvidence(pair=(c1, c2), status="fails", obstruction=obstruction)
        window.append(t)
    residues: dict[int, frozenset[int]] = {}
    separated = all(
        _separating_modulus(families, t, same, bound, residues) is not None for t in window
    )
    return PairEvidence(
        pair=(c1, c2),
        status="unknown",
        rule=(
            f"offsets up to {t_max} all separate within the bound, but the "
            f"family is infinite and no lemma settles the remaining offsets"
        )
        if separated
        else None,
    )


def _separating_modulus(families, t: int, include_zero: bool, bound: int,
                        residues: dict[int, frozenset[int]]) -> int | None:
    """The least modulus whose residue set misses ``t``; ``residues``
    keeps the sets by modulus across the offsets of one pair."""
    for m in range(1, bound + 1):
        if m not in residues:
            residues[m] = residues_of(families, m) | ({0} if include_zero else frozenset())
        if t % m not in residues[m]:
            return m
    return None


def _pair_evidence_finite(graph: FiniteModeGraph):
    # Per subgroup, the orbit ids of each vertex's neighbours: the orbit
    # of w avoids v and N(v) exactly when its id is neither v's nor one
    # of those.  The orbit of v then avoids w and N(w) too, since
    # hw ~ v if and only if w ~ h^-1 v.
    neighbours = {v: graph.neighbours(v) for v in graph.vertices}
    subgroups = [
        (index, orbits, {v: {orbits[u] for u in ns} for v, ns in neighbours.items()})
        for index, orbits in graph._subgroup_orbits
    ]
    for v, w in itertools.combinations(graph.vertices, 2):
        if w in neighbours[v]:
            continue
        # the trivial subgroup comes last and always succeeds: v and w are not adjacent
        for index, orbits, near in subgroups:
            ov, ow = orbits[v], orbits[w]
            if ov != ow and ow not in near[v]:
                yield PairEvidence(pair=(v, w), status="holds", subgroup_index=index)
                break


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

    @property
    def certified(self) -> bool:
        return self.status in (RESIDUALLY_FINITE, NOT_RESIDUALLY_FINITE)


def classify(instance: Instance, bound: int = 64, t_max: int | None = None) -> Verdict:
    """Classify an instance, never overclaiming.

    A certified negative from either condition wins immediately and is
    packaged as an explicit witness element; a certified positive needs
    both conditions; anything else is Unknown together with the bound
    that was exhausted.
    """
    cond2 = check_cond2(instance, bound)
    if cond2.holds is False:
        wit = _cond2_witness(instance, cond2)
        return Verdict(
            status=NOT_RESIDUALLY_FINITE,
            cond2=cond2,
            witness=wit,
            bound=bound,
            failing_condition="condition-2",
        )
    cond3 = check_cond3(instance, bound, t_max)
    if cond3.holds is False:
        wit = _cond3_witness(instance, cond3)
        return Verdict(
            status=NOT_RESIDUALLY_FINITE,
            cond2=cond2,
            cond3=cond3,
            witness=wit,
            bound=bound,
            failing_condition="condition-3",
        )
    if cond2.holds and cond3.holds:
        return Verdict(status=RESIDUALLY_FINITE, cond2=cond2, cond3=cond3, bound=bound)
    failing = "condition-2" if cond2.holds is None else "condition-3"
    return Verdict(
        status=UNKNOWN,
        cond2=cond2,
        cond3=cond3,
        bound=bound,
        failing_condition=failing,
    )


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


# ---------------------------------------------------------------------------
# rule-derived search bounds


def separation_bound(instance: Instance, verdict: Verdict, x: WreathElement) -> int:
    """A modulus within which ``separate`` must succeed, read off the
    verdict's rules.

    Only meaningful for certified-separable translation instances whose
    families are all finite.  The bound is the lcm of the per-constraint
    moduli, each of which persists under multiples.
    """
    graph = instance.graph
    if not isinstance(graph, TranslationGraph):
        raise GraphError("rule bounds are only derived for translation instances")
    if verdict.status != RESIDUALLY_FINITE:
        raise GraphError("rule bounds require a certified separable verdict")
    x = instance.normalize(x)
    constraints = [1]
    if x.gamma != 0:
        constraints.append(abs(x.gamma) + 1)
    vertices = sorted(x.word.vertices(), key=graph.vertex_key)
    if not instance.delta.is_abelian() and verdict.cond2 is not None:
        moduli = {e.orbit: e.modulus for e in verdict.cond2.per_orbit}
        for c in {v[0] for v in vertices}:
            if moduli.get(c) is None:
                raise GraphError(f"no recorded modulus for orbit {c!r}")
            constraints.append(moduli[c])
    for v, w in itertools.combinations(vertices, 2):
        (c1, p), (c2, q) = v, w
        t = q - p
        families = graph.families_for(c1, c2)
        if graph.adjacent(v, w):
            if c1 == c2:
                constraints.append(abs(t) + 1)
            continue
        if not all(f.is_finite() for f in families):
            raise GraphError(
                f"no finite-offset rule covers the pair {(c1, c2)!r} at offset {t}"
            )
        dmax = max((f.max_offset() for f in families), default=0)
        constraints.append(abs(t) + dmax + 1)
    return math.lcm(*constraints)
