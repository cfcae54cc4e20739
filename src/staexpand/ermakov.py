"""The Ermakov equation as forward solver and inverse-engineering map.

In dimensionless form the scaling function obeys

    b'' + W^2(tau) b = 1 / b^3,      W = omega/omega0, tau = omega0 t,

so a designed b yields the control W^2 = 1/b^4 - b''/b, and a given W^2
can be integrated forward.  A Dirac impulse of strength D in omega^2
kicks the slope: integrating b'' across the delta gives
bdot(tau+) = bdot(tau-) - D b(tau) with b continuous.
"""
from __future__ import annotations

from math import isfinite

import numpy as np

from . import numerics
from .core import (
    FrequencyProfile,
    GridMismatch,
    ScalingCurve,
    TrajectoryBlowUp,
)

_B_COLLAPSE = 1e-9
_COLLAPSE_MSG = "scaling function collapsed toward b = 0"


def _bddot_samples(curve: ScalingCurve) -> np.ndarray:
    if curve.bddot is not None:
        return curve.bddot
    return numerics.second_derivative(curve.b, curve.grid)


def _omega2(b, bddot):
    """The control W^2 = 1/b^4 - bddot/b read off the Ermakov equation."""
    return 1.0 / b**4 - bddot / b


def _domega2(b, bdot, bddot, bdddot):
    """Its time derivative d(W^2)/dtau = -4 bdot/b^5 - bdddot/b + bddot bdot/b^2."""
    return -4.0 * bdot / b**5 - bdddot / b + bddot * bdot / b**2


def ermakov_residual(curve: ScalingCurve, profile: FrequencyProfile) -> float:
    """max over interior nodes of |b'' + W^2 b - 1/b^3| (impulses excluded)."""
    if curve.grid != profile.grid:
        raise GridMismatch("curve and profile live on different grids")
    bddot = _bddot_samples(curve)
    r = bddot + profile.omega2 * curve.b - 1.0 / curve.b**3
    return float(np.max(np.abs(r[1:-1])))


def inverse_engineer(curve: ScalingCurve) -> FrequencyProfile:
    """Read the control W^2 = 1/b^4 - b''/b off a designed curve.

    Uses the curve's stored bddot (analytic for closed-form protocols);
    falls back to O(h^2) central differences for bare samples.  No
    impulses are added; the imaginary-band flag comes from the sign of
    min W^2.
    """
    b = curve.b
    bddot = _bddot_samples(curve)
    omega2 = _omega2(b, bddot)

    omega2_fns = None
    if curve.fns is not None:
        omega2_fns = tuple((lambda t, fn=fn: _omega2(fn.b(t), fn.bddot(t))) for fn in curve.fns)
    domega2 = None
    if curve.bdddot is not None:
        domega2 = _domega2(b, curve.bdot, bddot, curve.bdddot)
    return FrequencyProfile(curve.grid, omega2, (), omega2_fns, domega2)


def _rk4_piece(b, v, ts, w0, wm, w1):
    """Classical RK4 for (b, bdot) over one piece as a scalar float loop.

    ``ts`` are the piece's node times and ``w0``/``wm``/``w1`` the W^2
    values of each step at t, t + h/2 and t + h, all as lists.  Returns the
    per-node b and bdot lists.
    """
    bs = [b]
    vs = [v]
    for i, (wa, wb, wc) in enumerate(zip(w0, wm, w1)):
        t = ts[i]
        h = ts[i + 1] - t
        hh = 0.5 * h
        if b < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t)
        a1 = 1.0 / b**3 - wa * b
        b2 = b + hh * v
        v2 = v + hh * a1
        if b2 < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t + 0.5 * h)
        a2 = 1.0 / b2**3 - wb * b2
        b3 = b + hh * v2
        v3 = v + hh * a2
        if b3 < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t + 0.5 * h)
        a3 = 1.0 / b3**3 - wb * b3
        b4 = b + h * v3
        v4 = v + h * a3
        if b4 < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t + h)
        a4 = 1.0 / b4**3 - wc * b4
        h6 = h / 6.0
        b = b + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        if not (isfinite(b) and isfinite(v)):
            raise TrajectoryBlowUp("ODE state became non-finite", ts[i + 1])
        bs.append(b)
        vs.append(v)
    return bs, vs


def forward_solve(
    profile: FrequencyProfile, b0: float = 1.0, bdot0: float = 0.0
) -> ScalingCurve:
    """Integrate b'' = 1/b^3 - W^2(tau) b through the profile with RK4.

    Classical fixed-step RK4 on the grid nodes, piece by piece: the W^2
    values at every stage time of a piece are tabulated once from
    ``profile.piece_callable`` (the closed form, else the cubic Hermite
    interpolant of the samples: O(h^4) with stored d(W^2)/dtau, O(h^3)
    with slopes from ``np.gradient``), then the steps run as a scalar
    float loop.  A stage with b below 1e-9 aborts with that stage's
    time, a non-finite state with the next node's time.

    Impulses must sit on piece boundaries (or the endpoints); each one
    applies the slope jump bdot -> bdot - D b.  The returned curve stores
    bddot evaluated from the equation itself, the one-sided slope just
    after the t=0 impulses in ``b0_plus_dot`` and just before the final
    ones in ``bf_minus_dot``.
    """
    grid = profile.grid
    t_f = grid.t_f
    time_tol = 1e-9 * (1.0 + t_f)

    def impulses_at(t: float):
        return [s for (ti, s) in profile.impulses if abs(ti - t) <= time_tol]

    for ti, _ in profile.impulses:
        if not any(abs(ti - tb) <= time_tol for tb in grid.edges):
            raise ValueError(f"impulse at t={ti:.6g} is not on a piece boundary")

    b = np.empty(len(grid))
    bdot = np.empty(len(grid))
    bddot = np.empty(len(grid))

    state_b, state_v = float(b0), float(bdot0)
    for s in impulses_at(0.0):
        state_v -= s * state_b
    b0_plus = state_v

    for k, (lo, hi) in enumerate(grid.pieces):
        om = profile.piece_callable(k)
        nodes = grid.nodes[lo : hi + 1]
        t0 = nodes[:-1]
        hs = nodes[1:] - t0
        ts = nodes.tolist()
        w = [np.broadcast_to(om(t), t.shape).tolist() for t in (t0, t0 + 0.5 * hs, t0 + hs)]
        try:
            bs, vs = _rk4_piece(state_b, state_v, ts, *w)
        except OverflowError:
            # b**3 past ~5.6e102 raises on Python floats; numpy float64
            # overflows to inf instead, which the non-finite check reports
            bs, vs = _rk4_piece(np.float64(state_b), np.float64(state_v), ts, *w)
        b[lo : hi + 1] = bs
        bdot[lo : hi + 1] = vs
        bp = b[lo : hi + 1]
        bddot[lo : hi + 1] = 1.0 / bp**3 - profile.omega2[lo : hi + 1] * bp
        state_b, state_v = float(b[hi]), float(bdot[hi])
        if k + 1 < grid.n_pieces:
            for s in impulses_at(float(nodes[-1])):
                state_v -= s * state_b

    bf_minus = float(bdot[-1])
    return ScalingCurve(
        grid,
        b,
        bdot,
        bddot,
        b0_plus_dot=b0_plus,
        bf_minus_dot=bf_minus,
    )
