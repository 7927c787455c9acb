"""Exact computation with graph-indexed products of groups extended by a
vertex-permuting action: canonical word forms, separability
classification with machine-checkable certificates, and finite partial
models of the action."""

from .errors import (
    GraphError,
    GroupError,
    IdentityElement,
    LoopObstruction,
    ParseError,
    SearchExhausted,
    WitnessError,
    WordError,
)
from .groups import (
    Cyclic,
    CyclicPower,
    FiniteTable,
    FreeAbelian,
    GroupSpec,
    Integers,
    Homomorphism,
    Symmetric,
    commutator,
    first_nontrivial,
    identity_hom,
    noncommuting_pair,
    separating_quotient,
)
from .graphs import (
    ArithmeticOffsets,
    FactorialOffsets,
    FiniteModeGraph,
    FiniteOffsets,
    QuotientGraph,
    TranslationGraph,
    is_complete,
    orbit_counts,
    quotient_graph,
    residues_of,
)
from .words import (
    EMPTY_WORD,
    Syllable,
    Word,
    canonical_form,
    gp_compose,
    gp_invert,
    push_forward,
    retract,
    support,
    word,
)
from .wreath import (
    Instance,
    NonRFWitness,
    Obstruction,
    RFCertificate,
    WreathElement,
    act_word,
    certificate_map,
    gw_compose,
    gw_invert,
    quotient_instance,
    restrict_orbits,
    separate,
    verify_certificate,
    verify_witness,
    witness,
)
from .checker import (
    Verdict,
    check_cond2,
    check_cond3,
    check_finitely_presented,
    classify,
    classify_wreath,
    separation_bound,
)
from .lef import LEFCertificate, lef_certificate, truncate_graph, verify_lef

__version__ = "0.1.0"
