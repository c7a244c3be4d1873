"""High-precision verification of CM period identities.

Chowla-Selberg products, Kronecker limit jets of Epstein zeta
functions, elliptic period products and Faltings heights for the
curves with CM by Q(sqrt(-p)), Fermat-quotient period certificates,
and the square-normalized Hecke character, all over exact binary
quadratic form arithmetic.
"""

from .csperiods import (IdentityReport, cs_verify, faltings_height_L,
                        faltings_height_periods, m_invariant)
from .epstein import epstein_jet
from .errors import ConsistencyError, DomainError, PrecisionError
from .fermat import (CMTypeRecord, RatioCertificate, beta_period, cm_type,
                     epsilon_rst, tate_twist_certificate)
from .heckechar import psi_M
from .lseries import SZeroJet, dirichlet_jet
from .numkernel import Lattice, PrecisionContext
from .quadforms import (ClassGroup, Discriminant, QuadForm, QuadInteger,
                        class_number, class_number_dirichlet, compose,
                        is_fundamental, kronecker, principal_form, reduce_form,
                        reduced_forms)
from .relint import recognize_rational, recognize_sqrtp

__version__ = "0.1.0"

# every export is read by a module of the package (tests/test_exports.py);
# the oracles that the tests and perfbench still name, log_gamma,
# delta_lattice, period_integral and psi_multiplicativity_check, are
# imported from their own modules
__all__ = [
    "CMTypeRecord", "ClassGroup", "ConsistencyError", "Discriminant",
    "DomainError", "IdentityReport", "Lattice", "PrecisionContext",
    "PrecisionError", "QuadForm", "QuadInteger", "RatioCertificate", "SZeroJet",
    "beta_period", "class_number", "class_number_dirichlet", "cm_type", "compose",
    "cs_verify", "dirichlet_jet", "epsilon_rst", "epstein_jet",
    "faltings_height_L", "faltings_height_periods", "is_fundamental", "kronecker",
    "m_invariant", "principal_form", "psi_M", "recognize_rational",
    "recognize_sqrtp", "reduce_form", "reduced_forms", "tate_twist_certificate",
]
