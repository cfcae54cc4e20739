"""The two protocol searches: cap durations and power-peak shaping.

Both are deterministic.  The cap search gates and bounds itself with the
best of nine seed caps on the grid objective (lexicographic tie-breaking),
then refines off the grid: the objective separates into one excess per
cap, each minimized by a bounded 1-D search on the interval where that cap
has a real frequency, and a third along the joint limit where the two
minima break it.  The septic search refines (0, 0) with Nelder-Mead; a
septic b that is not positive is penalized with +inf, so the simplex walks
back into the feasible region on its own.

The grid objectives compute only the number they return, writing into
preallocated node rows.  The cap objective calls the per-node kernels the
public path calls (``protocols._Poly``, ``ermakov._omega2``,
``energies._ena``, ``core._real_omega``), equals it bit for bit (tests
compare with ``==``) and stops at the first imaginary piece, the stopping
cap first.  The septic one builds its rows with ``_Poly`` and takes the
power in its own fused form, not with ``ermakov._domega2`` and
``energies._power_samples``; it is within ~1e-13 of the public path and
stops where b is not positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import energies, ermakov, numerics, protocols
from .core import (
    DEFAULT_GRID_N,
    Infeasible,
    TimeGrid,
    TrapSpec,
    _check_duration,
    _is_imaginary,
    _real_omega,
)

_CAP_SEED_FRACTIONS = (0.01, 0.05, 0.2)
_CAP_NODES = 32                          # Gauss-Legendre nodes per cap
_P_PEAK = (2.0 - math.sqrt(1.6)) / 3.0   # where P(s) = 8s - 20s^2 + 10s^3 peaks


@dataclass
class OptimizationResult:
    params: tuple[float, ...]
    objective: float
    iterations: int
    converged: bool
    baseline: float | None = None   # objective at the unoptimized reference


def _hybrid_avg_ena(spec: TrapSpec, t_f: float, tau_l: float, tau_s: float, n_grid: int) -> float:
    """Averaged non-adiabatic energy of a cap protocol; +inf when the caps
    do not fit or the frequency goes imaginary.

    Equal, bit for bit, to ``nonadiabatic_energy`` of the hybrid bundle
    that ``build`` makes (tests hold it to that path): it calls the same
    per-node kernels on the grid and polynomials of ``_hybrid_pieces``,
    into four node rows (x, b, bdot, W^2), and computes only what it
    returns.  First b, bddot and W^2 on the stopping cap (where a short
    protocol goes imaginary), then on the launching cap and the line,
    stopping with +inf where W^2 is imaginary; then bdot and the Ena samples
    over the whole grid, and one Simpson sum per piece, added in grid order
    as ``numerics.average`` adds them.
    """
    if not (tau_l > 0.0 and tau_s > 0.0 and tau_l + tau_s < 0.999 * t_f):
        return math.inf
    grid, (p_l, p_m, p_s) = protocols._hybrid_pieces(spec, t_f, tau_l, tau_s, n_grid)
    t = grid.nodes
    (_, l1), (m0, _), (s0, _) = grid.pieces
    rows = np.empty((4, len(t)))
    x, b, bdot, w2 = rows[0], rows[1], rows[2], rows[3]
    xs, bs, bdots, w2s = x[s0:], b[s0:], bdot[s0:], w2[s0:]    # the stopping cap
    ds = p_s.deriv(1)
    np.divide(np.subtract(t_f, t[s0:], out=xs), t_f, out=xs)   # u = 1 - t/t_f
    np.divide(ds.deriv(1)(xs, out=bdots), t_f**2, out=bdots)
    if _is_imaginary(ermakov._omega2(p_s(xs, out=bs), bdots, out=w2s)):
        return math.inf
    xl, bl, bdotl = x[: l1 + 1], b[: l1 + 1], bdot[: l1 + 1]  # the launching cap
    dl = p_l.deriv(1)
    np.divide(t[:s0], t_f, out=x[:s0])
    p_l(xl, out=bl)
    p_m(x[m0:s0], out=b[m0:s0])
    np.divide(dl.deriv(1)(xl, out=bdotl), t_f**2, out=bdotl)
    # the line's derivatives are the constants 0.0 and d that its kernels give
    # at every finite x: one fill each, where a kernel costs two calls
    bdot[m0:s0] = 0.0
    if _is_imaginary(ermakov._omega2(b[:s0], bdot[:s0], out=w2[:s0])):
        return math.inf
    energies._check_ground_state(spec)     # where the full path refuses an excited mode
    dl(xl, out=bdotl)
    bdot[m0:s0] = p_m.c[1]
    ds(xs, out=bdots)                      # db/du: the sign it lacks is squared away
    np.divide(bdot, t_f, out=bdot)
    ena = energies._ena(b, bdot, w2, _real_omega(w2, out=x), out=bdot)
    sums = [numerics.simpson_uniform(ena[lo : hi + 1], t[lo + 1] - t[lo]) for lo, hi in grid.pieces]
    return (0.0 + sums[0] + sums[1] + sums[2]) / grid.t_f


def best_cap_seed(
    spec: TrapSpec, t_f: float, n_grid: int = DEFAULT_GRID_N
) -> tuple[float, tuple[float, float]]:
    """Best of the 3x3 logarithmic grid of cap fractions, as
    (objective, (tau_l, tau_s)), ties broken by the smaller caps.

    Raises Infeasible when no seed admits a real-frequency protocol
    (short protocols cannot avoid an imaginary band), and ValueError for a
    t_f that is not positive and finite.
    """
    _check_duration(t_f)
    if spec.n != 0:
        raise ValueError("cap optimization targets the ground-state energy excess")
    evaluated = sorted(
        (_hybrid_avg_ena(spec, t_f, fl * t_f, fs * t_f, n_grid), (fl * t_f, fs * t_f))
        for fl in _CAP_SEED_FRACTIONS
        for fs in _CAP_SEED_FRACTIONS
    )
    best_f, best_p = evaluated[0]
    if not math.isfinite(best_f):
        raise Infeasible(
            f"no real-frequency cap protocol found at t_f = {t_f:.6g} "
            f"(seed fractions {_CAP_SEED_FRACTIONS})"
        )
    return best_f, best_p


class _Cap:
    """One cap of the cap protocol as a function of its duration tau, off
    the grid: its excess X(tau), the integral of Ena - Ena_L over the cap,
    and its margin h(tau), >= 0 exactly where W^2 >= 0 on the whole cap.

    In the cap's own variable s in [0, 1] (t/tau on the launching cap,
    (t_f - t)/tau on the stopping cap), with d = gamma - 1, D = d tau/t_f and
    r = 4 - 6s: b = 1 + D(2s^2 - s^3), or gamma - D(2s^2 - s^3) on the
    stopping cap; bdot = d(4s - 3s^2)/t_f and bddot b^3 = +-d r b^3/(t_f tau).
    With y = W b^2 = sqrt(1 - bddot b^3), the Ena kernel
    (bdot^2 + W^2 b^2 + 1/b^2)/4 - W/2 is bdot^2/4 + (bddot b^2/(1 + y))^2/4,
    free of cancellation, and the bdot^2/4 part exceeds the line's
    d^2/(4 t_f^2) by 2/15 of it on average.  So, on Gauss-Legendre nodes s_i
    and weights w_i on [0, 1],

        X(tau) = (d/t_f)^2 [tau/30 + sum_i w_i (r_i b_i^2/(1 + y_i))^2/(4 tau)].

    W^2 >= 0 iff t_f tau >= d max(+-r b^3) over the half of the cap where
    +-r > 0, [0, 2/3] or [2/3, 1].  The maximum is at an end, or on the
    falling branch of P = 8s - 20s^2 + 10s^3 where D P(s) = 1 (launching)
    or -gamma (stopping): D P(s) -+ b(0) has the sign of d(+-r b^3)/ds.
    h(tau) = t_f tau - d max(...) is concave, so the real caps form one
    interval.
    """

    def __init__(self, gamma: float, t_f: float, launching: bool, nodes: np.ndarray, weights: np.ndarray):
        self.d, self.t_f = gamma - 1.0, t_f
        if launching:
            self.b0, self.sign, self.half = 1.0, 1.0, (0.0, 2.0 / 3.0)
        else:
            self.b0, self.sign, self.half = gamma, -1.0, (2.0 / 3.0, 1.0)
        self.c = nodes * nodes * (2.0 - nodes)
        self.r = 4.0 - 6.0 * nodes
        self.wr2 = weights * self.r * self.r

    def excess(self, tau: float) -> float:
        d, t_f, sign = self.d, self.t_f, self.sign
        b = self.b0 + (sign * d * tau / t_f) * self.c
        b2 = b * b
        y = 1.0 - (sign * d / (t_f * tau)) * self.r * b2 * b
        np.sqrt(np.maximum(y, 0.0, out=y), out=y)      # round-off at an edge of the interval
        q = np.divide(b2, 1.0 + y, out=y)
        # a ufunc reduction, not np.dot: BLAS would add its buffers to the process
        total = float(np.add.reduce(self.wr2 * q * q))
        return (d / t_f) ** 2 * (tau / 30.0 + total / (4.0 * tau))

    def margin(self, tau: float) -> float:
        big_d, b0, sign = self.d * tau / self.t_f, self.b0, self.sign

        def peak(s: float) -> float:
            return sign * (4.0 - 6.0 * s) * (b0 + sign * big_d * s * s * (2.0 - s)) ** 3

        def slope(s: float) -> float:
            return big_d * s * (8.0 + s * (10.0 * s - 20.0)) - sign * b0

        lo, hi = self.half
        top = max(peak(lo), peak(hi))
        start = max(lo, _P_PEAK)
        if slope(start) > 0.0 > slope(hi):
            top = max(top, peak(numerics._brent_root(slope, start, hi, 1e-12)))
        return self.t_f * tau - self.d * top

    def interval(self, inside: float, limit: float) -> tuple[float, float]:
        """The caps up to ``limit`` with a real frequency, around ``inside``,
        whose margin must be positive: both edges by ``_brent_root``.  The
        margin is negative at 2d/t_f, where b >= 1 makes max(+-r b^3) > 2."""
        xtol = 1e-15 * self.t_f
        lo = numerics._brent_root(self.margin, 2.0 * self.d / self.t_f, inside, xtol)
        if self.margin(limit) >= 0.0:
            return lo, limit
        return lo, numerics._brent_root(self.margin, inside, limit, xtol)


def optimize_caps(spec: TrapSpec, t_f: float, n_grid: int = DEFAULT_GRID_N) -> OptimizationResult:
    """Minimize the averaged non-adiabatic energy over the cap durations
    (tau_l, tau_s), constrained to real frequencies.

    Infeasible is raised by the seed stage (``best_cap_seed``) only, so
    ``optimize_caps`` succeeds exactly where it does, and its best seed is
    the ``baseline``.  The objective separates: Ena = Ena_L on the line, so
    avg Ena = Ena_L + (X_l(tau_l) + X_s(tau_s))/t_f.  Each cap's excess X
    and real-frequency interval come off the grid (``_Cap``), and X is
    minimized on that interval with ``_minimize_bounded``.  Where the two
    minima break the joint limit tau_l + tau_s < 0.999 t_f, one more bounded
    search runs along a line just inside it.  The result reports
    ``_hybrid_avg_ena`` at the found caps, the grid value that the seeds
    report; where it is not below the best seed (a tie at gamma = 1), the
    seed is the result.  So is a best seed with a real frequency on the
    grid only, within its round-off tolerance: then no search runs, and the
    result is not converged.  ``iterations`` sums the bounded searches'
    evaluations, and ``converged`` holds when all of them converged.
    """
    best_f, best_p = best_cap_seed(spec, t_f, n_grid)
    nodes, weights = numerics._gauss_legendre(_CAP_NODES)
    cap_l, cap_s = caps = [_Cap(spec.gamma, t_f, launching, nodes, weights) for launching in (True, False)]
    if not all(cap.margin(seed) > 0.0 for cap, seed in zip(caps, best_p)):
        return OptimizationResult(best_p, best_f, 0, False, best_f)
    # a few ulp inside _hybrid_avg_ena's strict limit, so that on the line
    # tau_l + (limit - tau_l) rounds below 0.999 t_f
    limit = 0.999 * t_f * (1.0 - 1e-15)
    (lo_l, hi_l), (lo_s, hi_s) = bounds = [cap.interval(seed, limit) for cap, seed in zip(caps, best_p)]
    xatol = 1e-10 * t_f   # finer than the reported grid value resolves the caps
    runs = [numerics._minimize_bounded(cap.excess, lo, hi, xatol) for cap, (lo, hi) in zip(caps, bounds)]
    (tau_l,), (tau_s,) = runs[0].x, runs[1].x
    if not tau_l + tau_s < limit:
        runs.append(numerics._minimize_bounded(
            lambda tau: cap_l.excess(tau) + cap_s.excess(limit - tau),
            max(lo_l, limit - hi_s), min(hi_l, limit - lo_s), xatol))
        (tau_l,) = runs[-1].x
        tau_s = limit - tau_l
    params, fx = (tau_l, tau_s), _hybrid_avg_ena(spec, t_f, tau_l, tau_s, n_grid)
    if not fx < best_f:   # at gamma = 1 every excess is 0: the tie keeps the seed
        params, fx = best_p, best_f
    return OptimizationResult(
        params=tuple(params),
        objective=fx,
        iterations=sum(run.iterations for run in runs),
        converged=all(run.converged for run in runs),
        baseline=best_f,
    )


def _septic_peak(spec: TrapSpec, t_f: float, n_grid: int) -> Callable[[float, float], float]:
    """The peak relative power of the septic family as a function of
    (c3, c4), and +inf where b <= 0 somewhere (a shape the search
    penalizes, where ``septic`` refuses the curve); no checks run here.

    b is affine in (c3, c4): its node rows (b and three time derivatives)
    are R0 + c3 R3 + c4 R4, three (4, n) blocks built once with ``_Poly``
    from the terms of ``_septic_coef`` and the full path's 1/t_f^j.  A call
    combines them in four ufunc calls, then takes the power in the search's
    own fused form, d(W^2)/dtau b^2 = bddot bdot - b bdddot - 4 bdot/b^3
    (no pow, no division by b^5): within ~1e-13 relative of
    ``power(...).peak_rel``, (0, 0) included.  The public path keeps
    ``ermakov._domega2`` and ``energies._power_samples``: where W^2 is
    constant (the two-step pieces) they give exactly 0, where this form
    gives round-off.
    """
    x = TimeGrid.uniform(t_f, n_grid).nodes / t_f
    scale = energies._energy_change(spec) / t_f
    r0, r3, r4, rows, work = blocks = np.empty((5, 4, len(x)))
    basis = protocols._septic_coef(spec.gamma, 0.0, 0.0), [0, 0, 0, 1, 0, -6, 8, -3], [0, 0, 0, 0, 1, -3, 3, -1]
    for coef, block in zip(basis, blocks):
        for j, row in enumerate(block):
            np.divide(protocols._Poly(coef).deriv(j)(x, out=row), t_f**j, out=row)
    b, bdot, bddot, bdddot = rows
    p, term = work[0], work[1]

    def peak(c3: float, c4: float) -> float:
        np.add(r0, np.multiply(r3, c3, out=rows), out=rows)
        np.add(rows, np.multiply(r4, c4, out=work), out=rows)
        if not np.minimum.reduce(b) > 0.0:
            return math.inf
        np.subtract(np.multiply(bddot, bdot, out=p), np.multiply(b, bdddot, out=term), out=p)
        np.multiply(np.multiply(b, b, out=term), b, out=term)
        np.subtract(p, np.multiply(np.divide(bdot, term, out=term), 4.0, out=term), out=p)
        return float(np.maximum.reduce(np.abs(p, out=p))) * ((2 * spec.n + 1) / 4.0) / abs(scale)

    return peak


def optimize_septic_power(
    spec: TrapSpec, t_f: float, n_grid: int = 4001
) -> OptimizationResult:
    """Minimize the peak relative power of the septic family over
    (c3, c4), starting from (0, 0).

    The peak is taken over a dense grid (minimax objectives need it), and
    the result is clamped to never exceed the starting point.  1 is the
    mean-value floor for the peak of any complete expansion.  ``baseline``
    and ``objective`` are ``power(...).peak_rel`` of ``build`` at (0, 0),
    first, so it raises the full path's errors, and at the result.  The
    search runs on ``_septic_peak``, within ~1e-13 of them; its +inf at a
    non-positive b makes the search step back.
    """
    def full(c3: float, c4: float) -> float:
        bundle = protocols.build(spec, protocols.ProtocolParams("septic", t_f, c3, c4, grid_n=n_grid))
        return energies.power(bundle.curve, bundle.profile, spec).peak_rel

    base = full(0.0, 0.0)
    peak = _septic_peak(spec, t_f, n_grid)
    res = numerics.nelder_mead_2d(peak, (0.0, 0.0), base, rel_tol=1e-6, max_iter=2000)
    params, fx = res.x, full(*res.x)
    if fx > base:
        params, fx = (0.0, 0.0), base
    return OptimizationResult(tuple(params), fx, res.iterations, res.converged, base)
