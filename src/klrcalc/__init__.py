"""
klrcalc: exact computer algebra for quiver Hecke algebras over simply-laced
quivers, their two-copy sign involution, and the alternating fixed-point
subalgebras.
"""

from .algebra import (TAG_MAIN, TAG_OPP, BadGeneratorError, Element, KLR,
                      Mono, NotHomogeneousError, ShapeError)
from .perms import canonical_word
from .quiver import (InvalidQuiverError, Quiver, ReversalMap,
                     ReversalMismatchError, ReversalNotInvolutiveError, Root,
                     TauClassTable, TauClosureError, UnsupportedParameterError,
                     all_roots, all_seqs, build_quiver, cycle, default_reversal,
                     make_quiver, make_root, path, root_of_seq,
                     root_tau_classes, sequences, tau_classes,
                     validate_reversal)
from .scalars import DomainError, PrimeField, Rationals, domain_from_flag
from .signop import (CliffordChoice, centrality_check, clifford_axioms_check,
                     e_pair, eps_pair, make_epsilon, sgn, translate_to_single)
from .suites import make_context

__all__ = [name for name in dir() if not name.startswith("_")]
