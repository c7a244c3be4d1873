"""Oracles that only the tests use: the lattices of an ideal and its inverse.

The checks take Delta(a) Delta(a^-1) in closed form
(``numkernel.delta_norm``); the tests compare it with the two values of
``numkernel.delta_lattice`` on the lattices built here.  Each tau is
rounded at working precision, as the closed form rounds its own, so the
last-bit comparisons of the tests hold.
"""

from mpmath import mp

from cmperiods.numkernel import Lattice, PrecisionContext
from cmperiods.quadforms import QuadForm


def form_to_lattice(f: QuadForm, ctx: PrecisionContext) -> Lattice:
    """The ideal lattice a*(Z + Z*tau), tau = (-b + i*sqrt(d)) / (2a)."""
    d = -f.disc
    with ctx.workprec():
        tau = (-f.b + mp.mpc(0, 1) * mp.sqrt(d)) / (2 * f.a)
        return Lattice(tau=tau, scale=mp.mpf(f.a))


def inverse_ideal_lattice(f: QuadForm, ctx: PrecisionContext) -> Lattice:
    """The lattice of the inverse ideal, Z + Z*(b + i*sqrt(d))/(2a)."""
    d = -f.disc
    with ctx.workprec():
        tau = (f.b + mp.mpc(0, 1) * mp.sqrt(d)) / (2 * f.a)
        return Lattice(tau=tau, scale=mp.mpf(1))
