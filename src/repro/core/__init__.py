"""The paper's contribution: DO-LP, Thrifty, and their shared engine."""

from .dolp import DOLP_OPTIONS, dolp_cc
from .kla import KLAOptions, kla_cc
from .engine import LPOptions, label_propagation_cc
from .labels import identity_labels, zero_planted_labels
from .result import CCResult, RESERVED_EXTRAS, validate_extras
from .thrifty import THRIFTY_OPTIONS, thrifty_cc
from .unified import UNIFIED_OPTIONS, unified_dolp_cc

__all__ = [
    "CCResult",
    "RESERVED_EXTRAS",
    "validate_extras",
    "LPOptions",
    "label_propagation_cc",
    "DOLP_OPTIONS",
    "KLAOptions",
    "kla_cc",
    "dolp_cc",
    "UNIFIED_OPTIONS",
    "unified_dolp_cc",
    "THRIFTY_OPTIONS",
    "thrifty_cc",
    "identity_labels",
    "zero_planted_labels",
]
