"""Exact computation with graph-indexed products of groups extended by a
vertex-permuting action: canonical word forms, separability
classification with machine-checkable certificates, and finite partial
models of the action.

The public names below load on first use (PEP 562): ``import gwreath``
compiles no submodule, and ``gwreath.X`` imports only the module that
defines ``X``.  The name is looked up there on every access and never
copied into this package, so each function has one binding to patch.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "GraphError GroupError IdentityElement LoopObstruction ParseError "
    "SearchExhausted WitnessError WordError",
    "groups": "Cyclic FiniteTable FreeAbelian GroupSpec Integers Symmetric commutator "
    "first_nontrivial noncommuting_pair",
    "graphs": "ArithmeticOffsets FactorialOffsets FiniteModeGraph FiniteOffsets QuotientGraph "
    "TranslationGraph is_complete orbit_counts quotient_graph residues_of",
    "words": "EMPTY_WORD Syllable Word canonical_form gp_invert push_forward retract word",
    "wreath": "Instance NonRFWitness Obstruction RFCertificate WreathElement act_word "
    "certificate_map gw_compose gw_invert restrict_orbits separate verify_certificate "
    "verify_witness witness",
    "checker": "Verdict check_cond2 check_cond3 check_finitely_presented classify "
    "classify_wreath",
    "lef": "LEFCertificate lef_certificate truncate_graph verify_lef",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
