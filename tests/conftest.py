import random

import pytest
from mpmath import mp

from cmperiods.numkernel import PrecisionContext
from cmperiods.quadforms import Discriminant


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(120)


@pytest.fixture
def rng():
    return random.Random(1729)


def _mp_zeta_l_jet(d):
    """(zeta L)(0) and (zeta L)'(0) for L = L(eps, s) of -d, by mpmath at ambient precision.

    zeta L is zeta_k, the Dedekind zeta function of Q(sqrt(-d)).  With
    L(eps, s) = d^(-s) sum_a eps(a) zeta(s, a/d), L(eps, 0) =
    sum eps(a) zeta(0, a/d) and L'(eps, 0) = sum eps(a) zeta'(0, a/d)
    - log(d) L(eps, 0); zeta'(0, x) is mpmath's zeta(0, x, 1).
    """
    disc = Discriminant(d)
    terms = [(disc.epsilon(a), mp.mpf(a) / d) for a in range(1, d)]
    lval = mp.fsum(e * mp.zeta(0, x) for e, x in terms if e)
    lder = mp.fsum(e * mp.zeta(0, x, 1) for e, x in terms if e) - mp.log(d) * lval
    zval, zder = mp.zeta(0), mp.zeta(0, 1, 1)
    return zval * lval, zder * lval + zval * lder


@pytest.fixture(scope="session")
def mp_zeta_l_jet():
    """The mpmath oracle for the jet of zeta_k at s = 0, as a function of d."""
    return _mp_zeta_l_jet
