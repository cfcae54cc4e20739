"""The Ermakov equation as forward solver and inverse-engineering map.

In dimensionless form the scaling function obeys

    b'' + W^2(tau) b = 1 / b^3,      W = omega/omega0, tau = omega0 t,

so a designed b yields the control W^2 = 1/b^4 - b''/b, and a given W^2
can be integrated forward.  Each direction hands on every derivative the
other reads: a curve carries b, bdot, bddot and bdddot, a profile W^2
and d(W^2)/dtau.  A Dirac impulse of strength D in omega^2 kicks the
slope: integrating b'' across the delta gives
bdot(tau+) = bdot(tau-) - D b(tau) with b continuous.
"""
from __future__ import annotations

from math import isfinite, sqrt

import numpy as np

from .core import (
    FrequencyProfile,
    GridMismatch,
    ScalingCurve,
    TrajectoryBlowUp,
)

_B_COLLAPSE = 1e-9
_COLLAPSE_MSG = "scaling function collapsed toward b = 0"
# b oscillates at 2W about b = W^(-1/2), and RK4 is stable on the imaginary
# axis up to |h lambda| = 2 sqrt(2): h max W = sqrt(2) is its step limit
_RK4_STABLE_HW = sqrt(2.0)


def _omega2(b, bddot, out=None):
    """The control W^2 = 1/b^4 - bddot/b read off the Ermakov equation,
    into ``out`` when given (it must not be an input); a float for a float b."""
    return np.subtract(np.divide(1.0, np.power(b, 4.0, out=out), out=out), np.divide(bddot, b), out=out)


def _domega2(b, bdot, bddot, bdddot, out=None):
    """Its time derivative d(W^2)/dtau = -4 bdot/b^5 - bdddot/b + bddot bdot/b^2
    on node arrays, into ``out`` when given (it must not be an input)."""
    out = np.multiply(bdot, -4.0, out=out)
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


def _rk4_piece(b, v, ts, hs, w0, wm, w1):
    """Classical RK4 for b'' = 1/b^3 - W^2 b over one piece as a scalar float loop.

    The stages take the Nystrom form of the same method, which needs only
    the four slopes a_i: b2 = b + (h/2) v, b3 = b2 + (h/2)^2 a1 and
    b4 = b + h v + (h^2/2) a2, then b <- b + h v + (h^2/6)(a1 + a2 + a3)
    and v <- v + (h/6)(a1 + 2 a2 + 2 a3 + a4).  ``ts`` are the piece's node
    times, ``hs`` its steps and ``w0``/``wm``/``w1`` the W^2 values of each
    step at t, t + h/2 and t + h, all as lists.  Returns the per-node b and
    bdot lists.
    """
    bs = [b]
    vs = [v]
    for t, t1, h, wa, wb, wc in zip(ts, ts[1:], hs, w0, wm, w1):
        hh = 0.5 * h
        if b < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t)
        a1 = 1.0 / (b * b * b) - wa * b
        b2 = b + hh * v
        if b2 < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t + hh)
        a2 = 1.0 / (b2 * b2 * b2) - wb * b2
        b3 = b2 + hh * hh * a1
        if b3 < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t + hh)
        a3 = 1.0 / (b3 * b3 * b3) - wb * b3
        bh = b + h * v
        b4 = bh + h * hh * a2
        if b4 < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t + h)
        a4 = 1.0 / (b4 * b4 * b4) - wc * b4
        h6 = h / 6.0
        b = bh + h * h6 * (a1 + a2 + a3)
        v = v + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        if not (isfinite(b) and isfinite(v)):
            raise TrajectoryBlowUp("ODE state became non-finite", t1)
        bs.append(b)
        vs.append(v)
    return bs, vs


def forward_solve(
    profile: FrequencyProfile, b0: float = 1.0, bdot0: float = 0.0
) -> ScalingCurve:
    """Integrate b'' = 1/b^3 - W^2(tau) b through the profile with RK4.

    Classical fixed-step RK4 on the grid nodes, piece by piece: W^2 at
    each step's ends t and t + h is the stored sample ``profile.omega2``
    (the piece's own one-sided value at a joint), and at its midpoints
    t + h/2 it comes from one call of ``profile.piece_callable`` per piece
    (the closed form, else the O(h^4) cubic Hermite interpolant of the W^2
    samples and slopes); the steps then run as a scalar float loop.  A
    stage with b below 1e-9 aborts with that stage's time, a non-finite
    state with the next node's time; when the piece's step h has h max W
    above RK4's stability limit sqrt(2), the message names h, that product
    and the limit.

    A kick D at t = 0 applies the slope jump bdot -> bdot - D b before the
    first step; one at t_f is left to the caller, as the returned curve
    ends at t_f-.  The curve stores bddot = 1/b^3 - W^2 b and
    bdddot = -3 bdot/b^4 - d(W^2)/dtau b - W^2 bdot from the equation
    itself, the slope just after the t = 0 kicks in ``b0_plus_dot`` and
    the final one in ``bf_minus_dot``.
    """
    grid = profile.grid
    b = np.empty(len(grid))
    bdot = np.empty(len(grid))

    state_b, state_v = float(b0), float(bdot0)
    for t, s in profile.impulses:
        if t == 0.0:
            state_v -= s * state_b
    b0_plus = state_v

    w2 = profile.omega2
    for k, (lo, hi) in enumerate(grid.pieces):
        nodes = grid.nodes[lo : hi + 1]
        hs = nodes[1:] - nodes[:-1]
        ts = nodes.tolist()
        ends = w2[lo : hi + 1].tolist()
        mid = nodes[:-1] + 0.5 * hs
        w = (ends[:-1], np.broadcast_to(profile.piece_callable(k)(mid), mid.shape).tolist(), ends[1:])
        try:
            bs, vs = _rk4_piece(state_b, state_v, ts, hs.tolist(), *w)
        except TrajectoryBlowUp as exc:
            hw = float(hs.max()) * sqrt(max(0.0, *(max(x) for x in w)))
            if hw > _RK4_STABLE_HW:
                exc.args = (f"{exc}: the step h = {hs.max():.6g} gives h*max W = {hw:.6g}, above "
                            f"RK4's stability limit sqrt(2) = {_RK4_STABLE_HW:.6g}; refine the grid",)
            raise
        b[lo : hi + 1] = bs
        bdot[lo : hi + 1] = vs
        state_b, state_v = float(b[hi]), float(bdot[hi])

    b3 = b * b * b
    bddot = 1.0 / b3 - w2 * b
    bdddot = -3.0 * bdot / (b3 * b) - profile.domega2 * b - w2 * bdot
    return ScalingCurve(grid, b, bdot, bddot, bdddot, b0_plus_dot=b0_plus, bf_minus_dot=float(bdot[-1]))
