"""The Ermakov equation as forward solver and inverse-engineering map.

In dimensionless form the scaling function obeys

    b'' + W^2(tau) b = 1 / b^3,      W = omega/omega0, tau = omega0 t,

so a designed b yields the control W^2 = 1/b^4 - b''/b, and a given W^2
can be integrated forward.  Each direction hands on every derivative the
other reads: a curve carries b, bdot, bddot and bdddot, a profile W^2
and d(W^2)/dtau.  A Dirac impulse of strength D in omega^2 kicks the
slope: integrating b'' across the delta gives
bdot(tau+) = bdot(tau-) - D b(tau) with b continuous.

Forward, the equation is solved through its linear reduction (Pinney):
b = |z| for the complex solution z of z'' + W^2 z = 0 whose Wronskian is
1, so each RK4 step is a 2x2 matrix and the steps compose as array work.
"""
from __future__ import annotations

from math import inf, sqrt

import numpy as np

from .core import (
    FrequencyProfile,
    GridMismatch,
    ScalingCurve,
    TrajectoryBlowUp,
)

# z = u + i w turns at W, so b = |z| oscillates at 2W, and RK4 is stable on
# the imaginary axis up to |h lambda| = 2 sqrt(2): forward_solve refuses a
# step with h sqrt(max |W^2|) above sqrt(2), on a real or an imaginary band
_RK4_STABLE_HW = sqrt(2.0)


def _omega2(b, bddot, out=None):
    """The control W^2 = 1/b^4 - bddot/b read off the Ermakov equation,
    into ``out`` when given (it must not be an input); a float for a float b."""
    return np.subtract(np.divide(1.0, np.power(b, 4.0, out=out), out=out), np.divide(bddot, b), out=out)


def _domega2(b, bdot, bddot, bdddot):
    """Its time derivative d(W^2)/dtau = -4 bdot/b^5 - bdddot/b + bddot bdot/b^2
    on node arrays."""
    out = np.multiply(bdot, -4.0)
    term = np.power(b, 5.0)
    np.divide(out, term, out=out)
    np.subtract(out, np.divide(bdddot, b, out=term), out=out)
    np.multiply(bddot, bdot, out=term)
    return np.add(out, np.divide(term, np.square(b), out=term), out=out)


def ermakov_residual(curve: ScalingCurve, profile: FrequencyProfile) -> float:
    """max over interior nodes of |b'' + W^2 b - 1/b^3| (impulses excluded)."""
    if curve.grid != profile.grid:
        raise GridMismatch("curve and profile live on different grids")
    r = curve.bddot + profile.omega2 * curve.b - 1.0 / curve.b**3
    return float(np.max(np.abs(r[1:-1])))


def inverse_engineer(curve: ScalingCurve) -> FrequencyProfile:
    """Read the control W^2 = 1/b^4 - b''/b off a designed curve.

    W^2 and its slope d(W^2)/dtau come from the curve's stored bddot and
    bdddot (analytic for closed-form protocols).  No impulses are added;
    the imaginary-band flag comes from the sign of min W^2.
    """
    b, bdot, bddot = curve.b, curve.bdot, curve.bddot
    omega2_fns = None
    if curve.fns is not None:
        omega2_fns = tuple((lambda t, fn=fn: _omega2(*fn(t)[::2])) for fn in curve.fns)
    return FrequencyProfile(curve.grid, _omega2(b, bddot), _domega2(b, bdot, bddot, curve.bdddot),
                            omega2_fns=omega2_fns)


def _rk4_maps(h, a, m, c):
    """Each step's classical RK4 map of x'' + W^2 x = 0 on (x, x'), as the
    four entry arrays of 2x2 matrices, from the step h and W^2 = a, m, c at
    t, t + h/2 and t + h.  Each matrix is divided by the square root of its
    determinant, so the maps keep the Wronskian at 1 as the exact flow does."""
    h2 = h * h
    am, cm = a * m, c * m
    m11 = 1.0 - h2 * (a + 2.0 * m) / 6.0 + am * h2 * h2 / 24.0
    m12 = h - m * h2 * h / 6.0
    m21 = -h * (a + 4.0 * m + c) / 6.0 + (am + cm) * h2 * h / 12.0
    m22 = 1.0 - h2 * (2.0 * m + c) / 6.0 + cm * h2 * h2 / 24.0
    s = np.sqrt(m11 * m22 - m12 * m21)
    return m11 / s, m12 / s, m21 / s, m22 / s


def _running_products(p, q, r, s):
    """Overwrite the 2x2 matrices [[p, q], [r, s]] (entry arrays) with their
    running products X_i ... X_1 X_0 by recursive doubling: after the round
    with offset d each holds the product of its last 2d factors."""
    d = 1
    while d < len(p):
        a, b, c, e = p[:-d], q[:-d], r[:-d], s[:-d]
        # the tuple reads every old entry before the slices are assigned
        p[d:], q[d:], r[d:], s[d:] = (p[d:] * a + q[d:] * c, p[d:] * b + q[d:] * e,
                                      r[d:] * a + s[d:] * c, r[d:] * b + s[d:] * e)
        d *= 2


def forward_solve(
    profile: FrequencyProfile, b0: float = 1.0, bdot0: float = 0.0
) -> ScalingCurve:
    """Integrate b'' = 1/b^3 - W^2(tau) b through the profile.

    The Ermakov solution is the modulus b = |z| of the complex solution
    z = u + i w of the linear equation z'' + W^2 z = 0 with z(0) = b0 and
    z'(0) = v0 + i/b0 (v0 the slope after the t = 0 kicks), whose Wronskian
    u w' - w u' = 1; its slope is bdot = (u u' + w w')/b.  z takes classical
    fixed-step RK4 on the grid nodes: W^2 at each step's ends t and t + h is
    the stored sample ``profile.omega2`` (the piece's own one-sided value at
    a joint, whose zero step maps to the identity), and at its midpoints
    t + h/2 it comes from one call of ``profile.piece_callable`` per piece
    (the closed form, else the O(h^4) cubic Hermite interpolant of the W^2
    samples and slopes).  Each step is a 2x2 matrix divided by the root of
    its determinant, and the matrices are chained by recursive doubling, so
    no per-step Python loop runs.

    A step with h sqrt(max |W^2|) above RK4's stability limit sqrt(2) is
    refused before any work, with h, that product, the limit and the step's
    start time; a non-finite state (a NaN control, or overflow in a deep
    imaginary band) raises with the time of the first non-finite node.
    Both are ``TrajectoryBlowUp``; a b0 that is not positive and finite is
    a ValueError.

    A kick D at t = 0 applies the slope jump bdot -> bdot - D b before the
    first step, so bdot[0] is the slope after it; one at t_f is left to the
    caller, and bdot[-1] is the slope before it.  The curve stores bddot =
    1/b^3 - W^2 b and bdddot = -3 bdot/b^4 - d(W^2)/dtau b - W^2 bdot from
    the equation itself.
    """
    b0 = float(b0)
    if not 0.0 < b0 < inf:
        raise ValueError(f"b0 must be positive and finite (got {b0!r})")
    v0 = float(bdot0)
    for t, kick in profile.impulses:
        if t == 0.0:
            v0 -= kick * b0

    grid = profile.grid
    nodes, w2 = grid.nodes, profile.omega2
    h = nodes[1:] - nodes[:-1]   # 0 across a joint's two rows
    mid = np.zeros(len(h))
    for k, (lo, hi) in enumerate(grid.pieces):
        mid[lo:hi] = profile.piece_callable(k)(nodes[lo:hi] + 0.5 * h[lo:hi])
    a, c = w2[:-1], w2[1:]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hw = h * np.sqrt(np.maximum(np.maximum(np.abs(a), np.abs(mid)), np.abs(c)))
        coarse = np.flatnonzero(hw > _RK4_STABLE_HW)   # a NaN is left to the finite check
        if coarse.size:
            i = coarse[0]
            raise TrajectoryBlowUp(
                f"the step h = {h[i]:.6g} gives h*max|W| = {hw[i]:.6g}, above RK4's stability "
                f"limit sqrt(2) = {_RK4_STABLE_HW:.6g}; refine the grid", float(nodes[i]))
        # row 0 holds the start (z, z') as columns (u, w); row i > 0 step i
        p, q, r, s = np.empty((4, len(grid)))
        p[0], q[0], r[0], s[0] = b0, 0.0, v0, 1.0 / b0
        p[1:], q[1:], r[1:], s[1:] = _rk4_maps(h, a, mid, c)
        _running_products(p, q, r, s)
        b = np.hypot(p, q)
        bdot = p / b * r + q / b * s   # u u' + w w' would overflow at b ~ 1e154
        finite = np.isfinite(b) & np.isfinite(bdot)
        if not finite.all():
            raise TrajectoryBlowUp("ODE state became non-finite", float(nodes[np.argmin(finite)]))
        b3 = b * b * b
        bddot = 1.0 / b3 - w2 * b
        bdddot = -3.0 * bdot / (b3 * b) - profile.domega2 * b - w2 * bdot
    return ScalingCurve(grid, b, bdot, bddot, bdddot)
