"""The two protocol searches: cap durations and power-peak shaping.

Both are deterministic.  The cap search gates and bounds itself with the
best of nine seed caps on the grid objective (lexicographic tie-breaking),
then refines off the grid: the objective separates into one excess per
cap, each minimized by a bounded 1-D search on the interval where that cap
has a real frequency, and a third along the joint limit where the two
minima break it.  The septic search is a trust-region minimax from
(0, 0) over the local maxima of the power, each polished off the grid; a
step onto a shape whose b is not positive is rejected like a poor one.

The cap grid objective computes only the number it returns, writing into
preallocated node rows: it calls the per-node kernels the public path
calls (``protocols._Poly``, ``ermakov._omega2``, ``energies._ena``,
``core._real_omega``), equals it bit for bit (tests compare with ``==``)
and stops at the first imaginary piece, the stopping cap first.  The
septic search samples the power on preallocated rows built with ``_Poly``
in its own fused form, not with ``ermakov._domega2`` and
``energies._power_samples``, within ~1e-13 of the public path, to find
the maxima that it then polishes on the closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
_POWER_GRID_N = 4001                     # the power search's default grid: its peaks need a dense one


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


_SEPTIC_SHAPES = tuple(   # db/dc3, db/dc4: b is linear in (c3, c4)
    [c - c0 for c, c0 in zip(protocols._septic_coef(1.0, *unit), protocols._septic_coef(1.0, 0.0, 0.0))]
    for unit in ((1.0, 0.0), (0.0, 1.0)))


class _SepticPeaks:
    """The local maxima of |P_rel(s; c3, c4)| over s = t/t_f in [0, 1] of
    the septic family, polished off the grid, as rows for the minimax
    search; ``None`` where b <= 0 on a node (a shape the search rejects,
    where ``septic`` refuses the curve).  No checks run here.

    b is affine in (c3, c4): its node rows (b and three time derivatives)
    are R0 + c3 R3 + c4 R4, three (4, n) blocks built once with ``_Poly``
    from the terms of ``_septic_coef`` and the full path's 1/t_f^j.
    ``power`` combines them in four ufunc calls, then takes P_rel in a
    fused form, d(W^2)/dtau b^2 = bddot bdot - b bdddot - 4 bdot/b^3 (no
    pow, no division by b^5): within ~1e-13 relative of the public path.

    Every sampled local maximum of |P_rel|, an end included, is polished by
    Newton's method in s, inside the node intervals next to it, on the
    power series of ``_septic_coef``, which ``build`` samples: with
    b^(j) = d^j b/ds^j, |P_rel| = k |u| for u = b'' b' - b b''' - kappa b'/b^3,
    kappa = 4 t_f^2 and k = (2n+1)/(4 |E| t_f^2), E the energy change.
    b^(j) and the shapes' d^j(db/dc)/ds^j are ``_Poly`` sums of Python
    floats.
    A maximum gives the row (phi, g_3, g_4, H_33, H_34, H_44): its value
    phi = sigma k u (sigma the sign of u), its gradient sigma k u_c by the
    envelope theorem, and its Hessian sigma k (u_cc - u_cs u_cs^T/u_ss).
    At an end whose slope points out of [0, 1] the maximum stays at the
    end, and its Hessian is sigma k u_cc.
    """

    def __init__(self, spec: TrapSpec, t_f: float, n_grid: int):
        self.s = TimeGrid.uniform(t_f, n_grid).nodes / t_f
        energy = energies._energy_change(spec)
        self.scale = ((2 * spec.n + 1) / 4.0) / (energy / t_f)
        self.k, self.kappa = abs(self.scale) / t_f**3, 4.0 * t_f * t_f
        self.blocks = np.empty((5, 4, len(self.s)))
        basis = (protocols._septic_coef(spec.gamma, 0.0, 0.0), *_SEPTIC_SHAPES)
        for coef, block in zip(basis, self.blocks):
            for j, row in enumerate(block):
                np.divide(protocols._Poly(coef).deriv(j)(self.s, out=row), t_f**j, out=row)
        self.widths = [float(np.max(np.abs(block[0]))) for block in self.blocks[1:3]]   # max |db/dc_i|
        self.gamma = spec.gamma
        self.shapes = [[protocols._Poly(coef).deriv(j) for j in range(5)] for coef in _SEPTIC_SHAPES]

    def power(self, c3: float, c4: float) -> np.ndarray | None:
        """P_rel on the nodes (a view of a work row), or None where b <= 0 on one."""
        r0, r3, r4, rows, work = self.blocks
        np.add(r0, np.multiply(r3, c3, out=rows), out=rows)
        np.add(rows, np.multiply(r4, c4, out=work), out=rows)
        b, bdot, bddot, bdddot = rows
        if not np.minimum.reduce(b) > 0.0:
            return None
        p, term = work[0], work[1]
        np.subtract(np.multiply(bddot, bdot, out=p), np.multiply(b, bdddot, out=term), out=p)
        np.multiply(np.multiply(b, b, out=term), b, out=term)
        np.subtract(p, np.multiply(np.divide(bdot, term, out=term), 4.0, out=term), out=p)
        return np.multiply(p, self.scale, out=p)

    def __call__(self, c3: float, c4: float) -> list | None:
        p = self.power(c3, c4)
        if p is None:
            return None
        a = np.abs(p)
        up = a[1:] >= a[:-1]   # a local maximum: no fall into it and a fall out of it, or an end
        tops = np.flatnonzero(np.concatenate(([True], up)) & np.concatenate((~up, [True]))).tolist()
        beta = [protocols._Poly(protocols._septic_coef(self.gamma, c3, c4))]
        for _ in range(5):
            beta.append(beta[-1].deriv(1))
        s, last = self.s, len(self.s) - 1
        rows = [self._polish(beta, float(s[i]), float(s[max(i - 1, 0)]), float(s[min(i + 1, last)]),
                             1.0 if (p[i] > 0.0) == (self.scale > 0.0) else -1.0)
                for i in tops]
        return None if None in rows else rows

    def _polish(self, beta: list, s: float, lo: float, hi: float, sigma: float) -> tuple | None:
        kappa, nxt = self.kappa, s
        for _ in range(20):
            s = nxt
            b0, b1, b2, b3, b4, b5 = (poly(s) for poly in beta)
            if not b0 > 0.0:   # b dips to zero between the nodes
                return None
            q = 1.0 / b0
            q3 = q * q * q
            u1 = b2 * b2 - b0 * b4 - kappa * q3 * (b2 - 3.0 * b1 * b1 * q)
            u2 = 2.0 * b2 * b3 - b1 * b4 - b0 * b5 - kappa * q3 * (b3 - q * b1 * (9.0 * b2 - 12.0 * b1 * b1 * q))
            if not sigma * u2 < 0.0:
                break
            nxt = min(max(s - u1 / u2, lo), hi)
            if abs(nxt - s) <= 1e-10:
                break
        q4 = q3 * q
        u = b2 * b1 - b0 * b3 - kappa * q3 * b1
        d3, d4 = ([poly(s) for poly in shape] for shape in self.shapes)
        uc = [e2 * b1 + b2 * e1 - e0 * b3 - b0 * e3 - kappa * q3 * (e1 - 3.0 * b1 * e0 * q)
              for e0, e1, e2, e3, _ in (d3, d4)]
        ucc = [e[2] * f[1] + f[2] * e[1] - e[0] * f[3] - f[0] * e[3]
               + kappa * q4 * (3.0 * (e[1] * f[0] + f[1] * e[0]) - 12.0 * b1 * e[0] * f[0] * q)
               for e, f in ((d3, d3), (d3, d4), (d4, d4))]
        at_end = sigma * u1 <= 0.0 if s == 0.0 else s == 1.0 and sigma * u1 >= 0.0
        if sigma * u2 < 0.0 and not at_end:   # the maximum moves with the shape
            ucs = [2.0 * b2 * e2 - e0 * b4 - b0 * e4
                   - kappa * q3 * (e2 - q * (3.0 * b2 * e0 + 6.0 * b1 * e1) + 12.0 * b1 * b1 * e0 * q * q)
                   for e0, e1, e2, _, e4 in (d3, d4)]
            ucc = [ucc[0] - ucs[0] * ucs[0] / u2, ucc[1] - ucs[0] * ucs[1] / u2, ucc[2] - ucs[1] * ucs[1] / u2]
        k = sigma * self.k
        return (k * u, k * uc[0], k * uc[1], k * ucc[0], k * ucc[1], k * ucc[2])


def optimize_septic_power(
    spec: TrapSpec, t_f: float, n_grid: int = _POWER_GRID_N
) -> OptimizationResult:
    """Minimize the peak relative power of the septic family over
    (c3, c4), starting from (0, 0).

    A trust-region minimax over the polished local maxima of |P_rel|
    (``_SepticPeaks``), after Hald & Madsen, Math. Programming 20 (1981)
    49-62.  Each step minimizes max_a(phi_a + g_a . d) + d.B.d/2 in the box
    |d_i| <= r/m_i (``numerics._minimax_step``), m_i the largest |db/dc_i|
    on the nodes; B sums the rows' Hessians with the multipliers of the
    last step (the largest row's alone at first).  A step is taken where
    the peak falls by at least 1/100 of what the model promised; a shape
    with b <= 0 on a node counts as no fall.  r starts at (gamma - 1)/10,
    doubles after a step the model predicted to within 1/4 that reached
    the box's edge, and falls to a quarter after a poor one.  The search
    converges when the model promises less than 1e-13 of the peak or r
    falls below 1e-13 (gamma - 1 + |m . c|); 500 steps end it unconverged.

    The search minimizes the continuous peak; ``baseline`` and
    ``objective`` report ``power(...).peak_rel``, the sampled one, of
    ``build`` at (0, 0), first, so it raises the full path's errors, and at
    the result, clamped to never exceed the starting point.  1 is the
    mean-value floor for the peak of any complete expansion: a grid too
    coarse to see the maxima reports less, which is refused (ValueError).
    """
    def full(c3: float, c4: float) -> float:
        bundle = protocols.build(spec, protocols.ProtocolParams("septic", t_f, c3, c4, grid_n=n_grid))
        return energies.power(bundle.curve, bundle.profile, spec).peak_rel

    base = full(0.0, 0.0)
    peaks = _SepticPeaks(spec, t_f, n_grid)
    m3, m4 = peaks.widths
    c3 = c4 = 0.0
    rows = peaks(c3, c4)
    value = max(row[0] for row in rows)
    hess = next(row[3:] for row in rows if row[0] == value)
    radius, converged, iterations = 0.1 * (spec.gamma - 1.0), False, 0
    while iterations < 500:
        iterations += 1
        d3, d4, model, weights = numerics._minimax_step([row[:3] for row in rows], hess, (radius / m3, radius / m4))
        promised = value - model
        if not promised > 1e-13 * value:
            converged = True
            break
        trial = peaks(c3 + d3, c4 + d4)
        ratio = (value - max(row[0] for row in trial)) / promised if trial else -math.inf
        hess = [sum(lam * rows[a][j] for a, lam in weights) for j in (3, 4, 5)]
        if ratio >= 0.01:
            c3, c4, rows, value = c3 + d3, c4 + d4, trial, max(row[0] for row in trial)
        if ratio >= 0.75 and max(abs(d3) * m3, abs(d4) * m4) >= 0.99 * radius:
            radius *= 2.0
        elif not ratio >= 0.25:
            radius *= 0.25
            if radius < 1e-13 * (spec.gamma - 1.0 + abs(c3) * m3 + abs(c4) * m4):
                converged = True
                break
    params, fx = (c3, c4), full(c3, c4)
    if fx > base:
        params, fx = (0.0, 0.0), base
    if fx < 1.0:
        raise ValueError(f"n_grid = {n_grid} is too coarse: the septic peak {fx:.6g} lies below its floor of 1")
    return OptimizationResult(params, fx, iterations, converged, base)
