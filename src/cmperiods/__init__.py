"""High-precision verification of CM period identities.

Chowla-Selberg products, Kronecker limit jets of Epstein zeta
functions, elliptic period products and Faltings heights for the
curves with CM by Q(sqrt(-p)), Fermat-quotient period certificates,
and the square-normalized Hecke character, all over exact binary
quadratic form arithmetic.
"""

from .csperiods import (IdentityReport, cs_verify, faltings_height_L,
                        faltings_height_periods, m_invariant, period_integral)
from .epstein import epstein_jet
from .errors import ConsistencyError, DomainError, PoleError, PrecisionError
from .fermat import (CMTypeRecord, RatioCertificate, beta_period, cm_type,
                     epsilon_rst, tate_twist_certificate)
from .heckechar import psi_M, psi_multiplicativity_check
from .lseries import SZeroJet, dirichlet_jet
from .numkernel import Lattice, PrecisionContext, delta_lattice, hurwitz_zeta, log_gamma
from .quadforms import (ClassGroup, Discriminant, QuadForm, QuadInteger,
                        class_number, class_number_dirichlet, compose,
                        form_to_lattice, inverse_ideal_lattice, is_fundamental,
                        kronecker, principal_form, reduce_form, reduced_forms)
from .relint import recognize_rational, recognize_sqrtp

__version__ = "0.1.0"

__all__ = [
    "CMTypeRecord", "ClassGroup", "ConsistencyError", "Discriminant",
    "DomainError", "IdentityReport", "Lattice", "PoleError", "PrecisionContext",
    "PrecisionError", "QuadForm", "QuadInteger", "RatioCertificate", "SZeroJet",
    "beta_period", "class_number", "class_number_dirichlet", "cm_type", "compose",
    "cs_verify", "delta_lattice", "dirichlet_jet", "epsilon_rst", "epstein_jet",
    "faltings_height_L", "faltings_height_periods", "form_to_lattice",
    "hurwitz_zeta", "inverse_ideal_lattice", "is_fundamental", "kronecker",
    "log_gamma", "m_invariant", "period_integral", "principal_form", "psi_M",
    "psi_multiplicativity_check", "recognize_rational", "recognize_sqrtp",
    "reduce_form", "reduced_forms", "tate_twist_certificate",
]
