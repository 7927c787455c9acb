"""Arithmetic in the extension of a graph-indexed product by the acting
group, plus the two certificate constructions built on it.

A wreath element is a pair (word, gamma).  Multiplication twists the
right word by the left gamma, which is exactly the semidirect-product
law for the vertex-permuting action.  On top of that this module builds
non-separability witnesses (explicit nontrivial elements that die in
every admissible finite quotient, certified through the residue lemmas
below) and separation certificates (a finite-index subgroup whose
quotient provably keeps a given element alive).
"""

from __future__ import annotations

import itertools

from .errors import GraphError, IdentityElement, SearchExhausted, WitnessError
from .groups import (
    Element,
    GroupSpec,
    Record,
    _set,
    commutator,
    first_nontrivial,
    noncommuting_pair,
)
from .graphs import (
    ArithmeticOffsets,
    DifferenceFamily,
    FactorialOffsets,
    FiniteModeGraph,
    Gamma,
    QuotientGraph,
    TranslationGraph,
    Vertex,
    _orbit_quotient,
    admits,
    least_modulus,
    quotient_graph,
)
from .words import (
    EMPTY_WORD,
    Syllable,
    Word,
    _canonical,
    _inverses,
    _push_normal,
    _validate,
    canonical_form,
)


class WreathElement(Record):
    # Slotted, with an explicit constructor writing through the slot descriptors, as words.Syllable.
    __slots__ = _fields = ("word", "gamma")

    def __init__(self, word: Word, gamma: Gamma):
        _set_word(self, word)
        _set_gamma(self, gamma)


_set_word, _set_gamma = WreathElement.word.__set__, WreathElement.gamma.__set__


class Instance(Record):
    """A coefficient group together with the graph its acting group moves.

    The acting group is the ``GroupSpec`` the graph supplies as
    ``graph.acting``: the integers, Z^n, or the residues of a
    translation quotient.
    """

    _fields = ("delta", "graph")

    def __init__(self, delta: GroupSpec, graph: TranslationGraph | FiniteModeGraph | QuotientGraph):
        _set(self, "delta", delta)
        _set(self, "graph", graph)
        if graph.acting is None:
            raise GraphError("a finite-mode quotient has no acting group; only cosets act on it")

    def gamma_is_identity(self, a: Gamma) -> bool:
        return a == self.graph.acting.identity()

    # -- element helpers

    def identity_element(self) -> WreathElement:
        return WreathElement(EMPTY_WORD, self.graph.acting.identity())

    def normalize(self, x: WreathElement) -> WreathElement:
        self.graph.acting.check(x.gamma)
        return WreathElement(canonical_form(self.graph, self.delta, x.word), x.gamma)

    def is_identity_element(self, x: WreathElement) -> bool:
        x = self.normalize(x)
        return x.word.is_empty and self.gamma_is_identity(x.gamma)


def act_word(graph, delta: GroupSpec, gamma: Gamma, w: Word) -> Word:
    """Move every syllable along the action (one vertex map per call) and
    recanonicalize, checking each syllable once."""
    move = graph.action(gamma)  # checks gamma, so moved vertices stay vertices
    moved = [Syllable(move(s.vertex), s.value) for s in _validate(graph, delta, w)]
    return _canonical(graph, delta, moved)


def gw_compose(instance: Instance, x: WreathElement, y: WreathElement) -> WreathElement:
    """(w1, g1)(w2, g2) = (w1 g1(w2), g1 g2), in one canonical pass."""
    graph, delta = instance.graph, instance.delta
    move = graph.action(x.gamma)  # checks x's gamma; then y's, each once and before the words
    graph.acting.check(y.gamma)
    gamma = graph.acting._compose(x.gamma, y.gamma)
    left, right = _validate(graph, delta, x.word), _validate(graph, delta, y.word)
    moved = [Syllable(move(s.vertex), s.value) for s in right]  # vertices stay vertices
    return WreathElement(_canonical(graph, delta, left + moved), gamma)


def gw_invert(instance: Instance, x: WreathElement) -> WreathElement:
    """(w, g)^-1 = (g^-1(w^-1), g^-1), in one canonical pass."""
    graph, delta = instance.graph, instance.delta
    ginv = graph.acting.invert(x.gamma)  # checks x's gamma; ``action`` checks its inverse
    sylls = _validate(graph, delta, x.word)  # before ``_invert`` can wrap a bad value
    move, inverse = graph.action(ginv), _inverses(delta, sylls)
    inverses = [Syllable(move(s.vertex), inverse[s.value]) for s in reversed(sylls)]
    return WreathElement(_canonical(graph, delta, inverses), ginv)


# ---------------------------------------------------------------------------
# residue lemmas and non-separability witnesses


class Obstruction(Record):
    """A proof record that some offset is hit modulo every subgroup.

    Only the lemmas below are accepted as justification, so every
    negative verdict downstream is backed by an actual argument rather
    than an exhausted search.
    """

    lemma: str
    pair: tuple[str, str]
    family: DifferenceFamily
    offset: int | None  # None means offset 0 (a loop obstruction)
    statement: str


def certify_zero_always(
    families, pair: tuple[str, str]
) -> Obstruction | None:
    """Justification that 0 lies in the residue set for every modulus."""
    for f in families:
        if isinstance(f, FactorialOffsets) and f.shift == 0:
            return Obstruction(
                lemma="factorial-zero",
                pair=pair,
                family=f,
                offset=None,
                statement=(
                    "every m >= 1 divides n! for n >= m, so the factorial "
                    "offsets hit 0 modulo every m"
                ),
            )
        if isinstance(f, ArithmeticOffsets) and f.start % f.step == 0:
            return Obstruction(
                lemma="arithmetic-zero",
                pair=pair,
                family=f,
                offset=None,
                statement=(
                    f"step {f.step} divides start {f.start}, so "
                    f"start + step*k hits 0 modulo every m"
                ),
            )
    return None


def certify_offset_always(
    families, pair: tuple[str, str], t: int
) -> Obstruction | None:
    """Justification that offset ``t`` lies in the residue set for every
    modulus."""
    for f in families:
        if isinstance(f, FactorialOffsets) and t in (f.shift, -f.shift):
            return Obstruction(
                lemma="factorial-shift",
                pair=pair,
                family=f,
                offset=t,
                statement=(
                    f"shift + n! is congruent to shift {f.shift} modulo m "
                    f"once n >= m, so offset {t} is hit modulo every m"
                ),
            )
        if isinstance(f, ArithmeticOffsets) and (
            (t - f.start) % f.step == 0 or (t + f.start) % f.step == 0
        ):
            return Obstruction(
                lemma="arithmetic-step",
                pair=pair,
                family=f,
                offset=t,
                statement=(
                    f"offset {t} is congruent to +-start modulo step "
                    f"{f.step}, so start + step*k reaches it modulo every m"
                ),
            )
    return None


class NonRFWitness(Record):
    """An explicit element killed by every admissible finite quotient."""

    theorem: str  # witness kind tag: T3.1 | T3.2 | T3.3
    vertices: tuple[Vertex, ...]
    delta_elements: tuple[Element, ...]
    element: WreathElement
    obstruction: Obstruction


WITNESS_KINDS = ("T3.1", "T3.2", "T3.3")


def witness(instance: Instance, kind: str, vertices, elements=None) -> NonRFWitness:
    """Build a witness of the requested kind, or fail honestly.

    T3.1 needs a vertex whose orbit meets its own neighbourhood under
    every finite-index subgroup and a non-commuting coefficient pair;
    T3.2 needs a non-adjacent vertex pair glued to the neighbourhood by
    every subgroup; T3.3 needs two vertices in a common orbit under
    every subgroup.  Hypotheses are accepted only when one of the
    built-in residue lemmas certifies them.
    """
    if kind not in WITNESS_KINDS:
        raise WitnessError(f"unknown witness kind {kind!r}")
    graph, delta = instance.graph, instance.delta
    vertices = tuple(vertices)
    for v in vertices:
        graph.check_vertex(v)

    if kind == "T3.3":
        raise WitnessError(
            "distinct vertices are always separated in the supported acting "
            "classes (distinct integers leave distinct residues modulo large "
            "m, and the trivial image subgroup separates finite-mode points), "
            "so this witness kind has no certifiable inputs here"
        )

    if not isinstance(graph, TranslationGraph):
        raise WitnessError(
            "finite-mode instances admit no such witness: the trivial "
            "subgroup of the acting image already separates every orbit "
            "from every neighbourhood"
        )

    if kind == "T3.1":
        if len(vertices) != 1:
            raise WitnessError("this witness kind takes exactly one vertex")
        (v,) = vertices
        if elements is None:
            pair = noncommuting_pair(delta)
            if pair is None:
                raise WitnessError("coefficient group is abelian: no non-commuting pair")
            g, h = pair
        else:
            if len(tuple(elements)) != 2:
                raise WitnessError("this witness kind takes two coefficient elements")
            g, h = elements
            delta.check(g)
            delta.check(h)
            if delta.compose(g, h) == delta.compose(h, g):
                raise WitnessError(f"{g!r} and {h!r} commute")
        c = v[0]
        obstruction = certify_zero_always(graph.families_for(c, c), (c, c))
        if obstruction is None:
            raise WitnessError(
                f"no built-in lemma shows the orbit of {v!r} meets its own "
                f"neighbourhood under every modulus"
            )
        value = commutator(delta, g, h)
        element = WreathElement(
            canonical_form(graph, delta, [Syllable(v, value)]), graph.acting.identity()
        )
        result = NonRFWitness(kind, (v,), (g, h), element, obstruction)
    else:  # T3.2
        if len(vertices) != 2:
            raise WitnessError("this witness kind takes exactly two vertices")
        v, w = vertices
        if v == w:
            raise WitnessError("the two vertices must be distinct")
        if graph.adjacent(v, w):
            raise WitnessError("the two vertices must not be adjacent")
        if elements is None:
            g = first_nontrivial(delta)
            if g is None:
                raise WitnessError("coefficient group is trivial")
        else:
            if len(tuple(elements)) != 1:
                raise WitnessError("this witness kind takes one coefficient element")
            (g,) = tuple(elements)
            delta.check(g)
            if delta.is_identity(g):
                raise WitnessError("the coefficient element must be nontrivial")
        (c1, x), (c2, y) = v, w
        obstruction = certify_offset_always(graph.families_for(c1, c2), (c1, c2), y - x)
        if obstruction is None:
            raise WitnessError(
                f"no built-in lemma shows offset {y - x} between {v!r} and "
                f"{w!r} is hit modulo every m"
            )
        ginv = delta.invert(g)
        element = WreathElement(
            canonical_form(
                graph,
                delta,
                [Syllable(v, g), Syllable(w, g), Syllable(v, ginv), Syllable(w, ginv)],
            ),
            graph.acting.identity(),
        )
        result = NonRFWitness(kind, (v, w), (g,), element, obstruction)

    assert not result.element.word.is_empty, "witness element must be nontrivial"
    return result


def verify_witness(instance: Instance, wit: NonRFWitness) -> bool:
    """Re-derive a witness from its data and compare the whole record.

    The rebuilt witness carries the lemma that proves its hypothesis, so
    its obstruction must equal the supplied one field for field, as must
    the element once normalised.
    """
    try:
        rebuilt = witness(instance, wit.theorem, wit.vertices, wit.delta_elements)
    except WitnessError:
        return False
    element = instance.normalize(wit.element)
    return rebuilt == NonRFWitness(
        wit.theorem, wit.vertices, wit.delta_elements, element, wit.obstruction
    )


# ---------------------------------------------------------------------------
# orbit restriction


def restrict_orbits(instance: Instance, x: WreathElement) -> tuple[Instance, WreathElement]:
    """Project onto the orbits meeting the support of ``x``.

    Orbits carrying no syllable are killed outright; the support is
    untouched, so nontriviality of ``x`` survives the projection.
    """
    return _restrict(instance, instance.normalize(x))


def _restrict(instance: Instance, x: WreathElement) -> tuple[Instance, WreathElement]:
    """``restrict_orbits`` of ``x`` in normal form, which it stays: the kept
    orbits span an induced subgraph ordering its vertices as the graph does."""
    graph, delta = instance.graph, instance.delta
    used = x.word.vertices()
    if isinstance(graph, TranslationGraph):
        labels_used = tuple(c for c in graph.labels if c in {v[0] for v in used})
        if labels_used == graph.labels:
            return instance, x
        keep = set(labels_used)
        fams = {
            pair: f for pair, f in graph.families.items()
            if pair[0] in keep and pair[1] in keep
        }
        return Instance(delta, TranslationGraph(labels_used, fams)), x
    if isinstance(graph, FiniteModeGraph):
        orbits = graph._orbit_map
        reps = {orbits[v] for v in used}
        keep = {v for v in graph.vertices if orbits[v] in reps}
        if len(keep) == len(graph.vertices):
            return instance, x
        verts = tuple(sorted(keep))
        edges = frozenset(e for e in graph.edges if e[0] in keep and e[1] in keep)
        pos = graph._position
        gens = tuple(tuple(g[pos[v]] for v in verts) for g in graph.generators)
        return Instance(delta, FiniteModeGraph(verts, edges, gens)), x
    raise GraphError(f"cannot restrict an instance over {type(graph).__name__}")


# ---------------------------------------------------------------------------
# the separation engine


class CheckRecord(Record):
    gamma_injective: bool
    induced_isomorphism: bool
    loops_clear: bool | None  # None: skipped because coefficients are abelian
    image_nontrivial: bool

    def all_pass(self) -> bool:
        return (
            self.gamma_injective
            and self.induced_isomorphism
            and self.loops_clear in (True, None)
            and self.image_nontrivial
        )


class RFCertificate(Record):
    """Everything needed to re-verify one separation from scratch.

    The final composition with a map onto a finite group is not
    materialized; instead the image is certified nontrivial directly
    through the canonical form over the quotient graph, which is an
    equally rigorous and fully checkable stopping point.
    """

    element: WreathElement
    kind: str  # "modulus" | "image-subgroup"
    modulus: int | None
    subgroup_perms: tuple[tuple[int, ...], ...] | None
    restricted: tuple  # orbit labels (translation) or vertex ids (finite)
    quotient: QuotientGraph
    gamma_image: Gamma
    word_image: Word
    checks: CheckRecord


def separate(instance: Instance, x: WreathElement, bound: int = 64) -> RFCertificate:
    """Find the smallest admissible subgroup separating ``x``.

    A candidate is accepted when the quotient is injective on
    {identity, gamma}, restricts to an isomorphism on the induced
    subgraph spanned by the support, and (for non-abelian coefficients)
    leaves no loops on the surviving orbits.  These checks read only the
    support's images, so the quotient graph is built once, for the
    accepted candidate.  Finite-mode instances try the subgroups of the
    acting image by ascending index.  Translation instances ask
    ``graphs.least_modulus`` for the least modulus up to ``bound``, with
    the checks as its data (``_translation_constraints``): it tries only
    moduli at least the size of each set kept apart, and beside an
    arithmetic family only the multiples of a prime power of its step.
    The quotient then has |labels| * m vertices, so a large ``bound``
    can reach a modulus whose quotient does not fit in memory.
    """
    sub_instance, x, support = _restricted_support(instance, x)

    if isinstance(instance.graph, TranslationGraph):
        m = least_modulus(*_translation_constraints(instance, sub_instance, x, support), bound)
        if m is None:
            raise SearchExhausted(bound)
        return _modulus_certificate(instance, sub_instance, x, m)

    if isinstance(instance.graph, FiniteModeGraph):
        table = instance.graph._subgroups
        gamma_key = instance.graph.perm_of(x.gamma)
        for entry in table:
            cert = _try_finite(instance, sub_instance, x, support, entry, gamma_key)
            if cert is not None:
                return cert
        raise SearchExhausted(len(table))

    raise GraphError(f"cannot separate over {type(instance.graph).__name__}")


def _restricted_support(instance: Instance, x: WreathElement):
    """``x`` normalised once and restricted, its support in vertex order and
    each support pair with its adjacency: no candidate subgroup changes them."""
    x = instance.normalize(x)
    if x.word.is_empty and instance.gamma_is_identity(x.gamma):
        raise IdentityElement("cannot separate the identity element")
    sub_instance, x = _restrict(instance, x)
    graph = sub_instance.graph
    vertices = sorted(x.word.vertices(), key=graph.vertex_key)
    pairs = [(v, w, graph.adjacent(v, w)) for v, w in itertools.combinations(vertices, 2)]
    return sub_instance, x, (vertices, pairs)


def _certificate(instance, sub_instance, x, quotient, gamma_image, *, kind, modulus,
                 subgroup_perms):
    """The certificate of a candidate that passed every check."""
    delta = instance.delta
    # x is in normal form, so one pass over the quotient gives its image.
    word_image = _push_normal(x.word, delta, quotient.project, quotient)
    # a trivial gamma image is residue 0 of a modulus, or None for an image subgroup
    nontrivial = not word_image.is_empty or gamma_image not in (0, None)
    assert nontrivial, "a passing candidate must keep the element alive"
    restricted = (
        sub_instance.graph.labels
        if isinstance(sub_instance.graph, TranslationGraph)
        else sub_instance.graph.vertices
    )
    checks = CheckRecord(
        gamma_injective=True,
        induced_isomorphism=True,
        loops_clear=None if delta.is_abelian() else True,
        image_nontrivial=nontrivial,
    )
    return RFCertificate(
        element=x,
        kind=kind,
        modulus=modulus,
        subgroup_perms=subgroup_perms,
        restricted=restricted,
        quotient=quotient,
        gamma_image=gamma_image,
        word_image=word_image,
        checks=checks,
    )


def _translation_constraints(instance, sub_instance, x, support):
    """The checks of a modulus m, as ``least_modulus``'s (apart, misses).

    {0, gamma} injects, so gamma survives; so does each label's set of
    support positions, so the support keeps distinct images.  An
    adjacent support pair stays adjacent, its offset being in a family;
    a non-adjacent one stays apart iff its label pair's families miss
    its offset.  With non-abelian coefficients each orbit's own families
    miss 0, or two lifts of one quotient vertex are adjacent: a loop.
    Loops stay single-offset entries, which need no residue set, while a
    label pair's offsets share one.
    """
    graph = sub_instance.graph
    vertices, pairs = support
    offsets = {}
    for (c1, p), (c2, q), adjacent in pairs:
        if not adjacent:
            offsets.setdefault((c1, c2), set()).add(q - p)
    loops = [] if instance.delta.is_abelian() else [((c, c), {0}) for c in graph.labels]
    apart = [{0, x.gamma}, *({p for c, p in vertices if c == label} for label in graph.labels)]
    return apart, [(graph.families_for(*pair), ts) for pair, ts in loops + [*offsets.items()]]


def _modulus_certificate(instance, sub_instance, x, m):
    """The certificate for a modulus ``m`` that ``admits`` the checks."""
    quotient = quotient_graph(sub_instance.graph, m)
    return _certificate(
        instance, sub_instance, x, quotient, x.gamma % m,
        kind="modulus", modulus=m, subgroup_perms=None,
    )


def _try_finite(instance, sub_instance, x, support, entry, gamma_key):
    """The certificate for the image subgroup of the ambient table's
    ``entry``, or None when a check fails.

    Every check reads the entry's orbit map on the restricted vertices;
    once all of them pass, the quotient graph is read off that same map,
    so the restricted graph needs no image or subgroups of its own.
    """
    graph, sub = instance.graph, sub_instance.graph
    _, perms, orbits = entry
    gamma_in_subgroup = gamma_key in perms
    if gamma_in_subgroup and any(x.gamma):
        return None
    if not instance.delta.is_abelian() and any(orbits[u] == orbits[w] for u, w in sub.edges):
        return None
    # no merged support vertices, no created or destroyed adjacencies
    vertices, pairs = support
    if len({orbits[v] for v in vertices}) != len(vertices) or any(
            a != any(orbits[u] == orbits[w] for u in sub.neighbours(v)) for v, w, a in pairs):
        return None
    quotient = _orbit_quotient(sub, orbits)
    gpos = [graph._position[v] for v in gamma_key]
    gamma_image = (
        None if gamma_in_subgroup else min(tuple(map(p.__getitem__, gpos)) for p in perms)
    )
    return _certificate(
        instance, sub_instance, x, quotient, gamma_image,
        kind="image-subgroup", modulus=None, subgroup_perms=perms,
    )


def verify_certificate(instance: Instance, cert: RFCertificate) -> bool:
    """Re-run every check from scratch against the recorded subgroup and
    compare the certificate so rebuilt with the given one as a whole."""
    graph = instance.graph
    try:
        sub_instance, x, support = _restricted_support(instance, cert.element)
        if cert.kind == "modulus" and isinstance(graph, TranslationGraph):
            m, labels = cert.modulus, len(sub_instance.graph.labels)
            # a rebuilt quotient has an orbit per label and residue: build none larger
            if not (isinstance(m, int) and m >= 1 and len(cert.quotient.vertices) == labels * m
                    and admits(m, *_translation_constraints(instance, sub_instance, x, support))):
                return False
            rebuilt = _modulus_certificate(instance, sub_instance, x, m)
        elif cert.kind == "image-subgroup" and isinstance(graph, FiniteModeGraph):
            # Only a listed subgroup, in its listed form, can rebuild equal.
            entry = next((e for e in graph._subgroups if e[1] == cert.subgroup_perms), None)
            if entry is None:
                return False
            rebuilt = _try_finite(instance, sub_instance, x, support, entry, graph.perm_of(x.gamma))
        else:
            return False
    except (ValueError, TypeError, KeyError, AttributeError):  # IdentityElement is a ValueError
        return False
    return rebuilt == cert


def certificate_map(instance: Instance, cert: RFCertificate):
    """The homomorphism realized by a translation certificate.

    Accepts any wreath element over the restricted instance and lands
    in the quotient instance; the support of the certified element is
    mapped isomorphically, which is what keeps the image nontrivial.
    """
    if cert.kind != "modulus":
        raise GraphError("certificate maps are only built for translation certificates")
    sub, _ = restrict_orbits(instance, cert.element)
    delta = instance.delta
    quotient = cert.quotient

    def apply(y: WreathElement) -> WreathElement:
        y = sub.normalize(y)
        image = _push_normal(y.word, delta, quotient.project, quotient)
        return WreathElement(image, y.gamma % cert.modulus)

    return apply
