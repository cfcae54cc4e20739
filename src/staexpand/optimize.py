"""The two protocol searches: cap durations and power-peak shaping.

Both are deterministic: fixed multistart seeds, Nelder-Mead refinement,
lexicographic tie-breaking.  Infeasible points (imaginary frequency,
caps that do not fit, a septic b that is not positive) are penalized with
+inf, so the simplex walks back into the feasible region on its own.

The objectives compute only the number they return, from the constructors
and per-node expressions of the public path, so they equal it bit for bit
(tests compare them with ``==``).  One cap evaluation builds the hybrid
grid and cap polynomials and fills four preallocated node rows in place:
b and W^2 cap by cap, the stopping cap first, then bdot and Ena over the
whole grid, and one Simpson sum per piece.  One septic evaluation fills
six node rows, set up once per search with the grid, in place: b (+inf
where it is not positive), its three derivatives, d(W^2)/dtau and the
power.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import energies, numerics, protocols
from .core import (
    DEFAULT_GRID_N,
    Infeasible,
    TimeGrid,
    TrapSpec,
    _is_imaginary,
)

_CAP_SEED_FRACTIONS = (0.01, 0.05, 0.2)


@dataclass
class OptimizationResult:
    params: tuple[float, ...]
    objective: float
    feasible: bool
    iterations: int
    converged: bool
    baseline: float | None = None   # objective at the unoptimized reference


def _horner(c, x, out):
    """The series c[0] + c[1] x + ... (two or more coefficients) at x, into
    ``out``, with the operations of ``protocols._Poly.__call__``, except
    that adding a 0.0 coefficient is left out: that add changes at most
    the sign of a zero, which neither objective carries into its value (a
    cap's b is never zero and its bdot only squared; the septic peak is an
    absolute value, and a zero b is penalized)."""
    np.multiply(x, c[-1], out=out)
    np.add(out, c[-2], out=out)
    for ck in c[-3::-1]:
        np.multiply(out, x, out=out)
        if ck != 0.0:
            np.add(out, ck, out=out)
    return out


def _cap_is_real(dc, t_f, x, b, bddot, w2) -> bool:
    """Finish W^2 = 1/b^4 - bddot/b of a cap whose b' has coefficients dc
    on its node rows, where ``w2`` holds 1/b^4 already, as
    ``protocols._poly_cols`` and ``ermakov._omega2`` form it (bddot/b
    passes through ``bddot``, a scratch row); whether W^2 is real."""
    np.divide(_horner(protocols._dcoef(dc), x, bddot), t_f**2, out=bddot)
    np.subtract(w2, np.divide(bddot, b, out=bddot), out=w2)
    return not _is_imaginary(w2)


def _hybrid_avg_ena(spec: TrapSpec, t_f: float, tau_l: float, tau_s: float, n_grid: int) -> float:
    """Averaged non-adiabatic energy of a cap protocol; +inf when the caps
    do not fit or the frequency goes imaginary.

    Equal, bit for bit, to ``nonadiabatic_energy`` of ``hybrid_caps`` (tests
    hold it to that path), but computes only what it returns, in place in
    four preallocated node rows (x, b, bdot, W^2) on the grid and
    polynomials of ``_hybrid_pieces``.  First b and W^2 = 1/b^4 - bddot/b:
    on the stopping cap (where a short protocol goes imaginary; it stops
    there with +inf), then on the launching cap and the line, each cap by
    Horner passes on its ``_Poly`` coefficients; a cap with an imaginary
    W^2 stops the evaluation with +inf.  On the line bddot is exactly 0.0,
    so W^2 = 1/b^4, real.  Then bdot (the line's is d/t_f) and the Ena
    samples over the whole grid in one pass, and one Simpson sum per piece,
    added in grid order as ``numerics.average`` adds them.
    """
    if not (tau_l > 0.0 and tau_s > 0.0 and tau_l + tau_s < 0.999 * t_f):
        return math.inf
    grid, (p_l, p_m, p_s) = protocols._hybrid_pieces(spec, t_f, tau_l, tau_s, n_grid)
    dc_l, dc_s = protocols._dcoef(p_l.c), protocols._dcoef(p_s.c)
    t = grid.nodes
    (_, l1), (m0, _), (s0, _) = grid.pieces
    buf = np.empty((4, len(t)))
    x, b, bdot, w2 = buf[0], buf[1], buf[2], buf[3]
    xs, bs, bdots, w2s = x[s0:], b[s0:], bdot[s0:], w2[s0:]     # the stopping cap
    np.divide(np.subtract(t_f, t[s0:], out=xs), t_f, out=xs)   # u = 1 - t/t_f
    np.divide(1.0, np.power(_horner(p_s.c, xs, bs), 4.0, out=w2s), out=w2s)
    if not _cap_is_real(dc_s, t_f, xs, bs, bdots, w2s):
        return math.inf
    xa, ba, w2a = x[:s0], b[:s0], w2[:s0]                     # the launching cap and the line
    xl, bl, bdotl = x[: l1 + 1], b[: l1 + 1], bdot[: l1 + 1]  # the launching cap
    np.divide(t[:s0], t_f, out=xa)
    _horner(p_l.c, xl, bl)
    _horner(p_m.c, x[m0:s0], b[m0:s0])
    np.divide(1.0, np.power(ba, 4.0, out=w2a), out=w2a)
    if not _cap_is_real(dc_l, t_f, xl, bl, bdotl, w2[: l1 + 1]):
        return math.inf
    energies._check_ground_state(spec)     # where the full path refuses an excited mode
    _horner(dc_l, xl, bdotl)
    bdot[m0:s0] = p_m.c[1]                 # the line: d, so bdot = d/t_f after the division below
    _horner(dc_s, xs, bdots)               # db/du: the sign it lacks is squared away
    np.divide(bdot, t_f, out=bdot)
    # Ena = (bdot^2 + W^2 b^2 + 1/b^2)/4 - W/2, as energies._ena forms it
    np.square(b, out=b)
    np.square(bdot, out=bdot)
    np.add(bdot, np.multiply(w2, b, out=x), out=bdot)
    np.add(bdot, np.divide(1.0, b, out=b), out=bdot)
    np.multiply(bdot, 0.25, out=bdot)
    np.sqrt(np.maximum(w2, 0.0, out=w2), out=w2)
    ena = np.subtract(bdot, np.multiply(w2, 0.5, out=w2), out=bdot)
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
    protocols._check_duration(t_f)
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


def optimize_caps(spec: TrapSpec, t_f: float, n_grid: int = DEFAULT_GRID_N) -> OptimizationResult:
    """Minimize the averaged non-adiabatic energy over the cap durations
    (tau_l, tau_s), constrained to real frequencies.

    Refines the best feasible seed of ``best_cap_seed`` with Nelder-Mead.
    Infeasible is raised by the seed stage only, so ``optimize_caps``
    succeeds exactly where ``best_cap_seed`` does.  Each evaluation
    (``_hybrid_avg_ena``) looks at the stopping cap first and returns +inf
    at the first piece with an imaginary frequency.
    """
    protocols._check_duration(t_f)

    def objective(tau_l: float, tau_s: float) -> float:
        return _hybrid_avg_ena(spec, t_f, tau_l, tau_s, n_grid)

    best_f, best_p = best_cap_seed(spec, t_f, n_grid)
    res = numerics.nelder_mead_2d(objective, best_p, rel_tol=1e-8)
    params, fx = res.x, res.fx
    if not math.isfinite(fx) or fx > best_f:
        params, fx = best_p, best_f
    return OptimizationResult(
        params=tuple(params),
        objective=fx,
        feasible=math.isfinite(fx),
        iterations=res.iterations,
        converged=res.converged,
        baseline=best_f,
    )


def _septic_peak(spec: TrapSpec, t_f: float, n_grid: int) -> Callable[[float, float], float]:
    """The peak relative power of the septic family as a function of
    (c3, c4), equal bit for bit to ``power(...).peak_rel`` of ``septic``
    where b > 0, and +inf where b <= 0 somewhere (a shape the search
    penalizes, where ``septic`` refuses the curve).

    The checks, the uniform grid, x = t/t_f and the gamma = 1 refusal
    (PowerUndefined) run once, here, in the order of the full path.  Each
    call then fills six preallocated node rows in place: b, bdot, bddot
    and bdddot by Horner passes on the ``protocols._septic_coef``
    coefficients and their derivatives', then d(W^2)/dtau in
    ``ermakov._domega2``'s operation order and the power in
    ``energies._power_samples``', b^2 formed once for both, without the
    W^2 samples, power integral or step terms the search never reads.
    """
    protocols._check_duration(t_f)
    t = TimeGrid.uniform(t_f, n_grid).nodes
    protocols._check_time_scale(t_f, 3)
    scale = energies._energy_change(spec) / t_f
    c_p = (2 * spec.n + 1) / 4.0
    tf2, tf3 = t_f**2, t_f**3
    buf = np.empty((6, len(t)))
    x, b, b1, b2, b3, b_sq = buf
    np.divide(t, t_f, out=x)

    def peak(c3: float, c4: float) -> float:
        c = protocols._septic_coef(spec.gamma, float(c3), float(c4))
        if (_horner(c, x, b) <= 0.0).any():
            return math.inf
        d1 = protocols._dcoef(c)
        d2 = protocols._dcoef(d1)
        np.divide(_horner(d1, x, b1), t_f, out=b1)
        np.divide(_horner(d2, x, b2), tf2, out=b2)
        np.divide(_horner(protocols._dcoef(d2), x, b3), tf3, out=b3)
        # d(W^2)/dtau = -4 bdot/b^5 - bdddot/b + bddot bdot/b^2, as ermakov._domega2 forms it
        np.square(b, out=b_sq)
        np.divide(np.multiply(b2, b1, out=b2), b_sq, out=b2)
        np.divide(b3, b, out=b3)
        np.divide(np.multiply(b1, -4.0, out=b1), np.power(b, 5, out=b), out=b1)
        dom = np.add(np.subtract(b1, b3, out=b1), b2, out=b1)
        # P = ((2n+1)/4) d(W^2)/dtau b^2, relative to the uniform power
        np.multiply(np.multiply(dom, c_p, out=dom), b_sq, out=dom)
        return float(np.maximum.reduce(np.abs(np.divide(dom, scale, out=dom), out=dom)))

    return peak


def optimize_septic_power(
    spec: TrapSpec, t_f: float, n_grid: int = 4001
) -> OptimizationResult:
    """Minimize the peak relative power of the septic family over
    (c3, c4), starting from (0, 0).

    The peak is taken over a dense grid (minimax objectives need it), and
    the result is clamped to never exceed the starting point.  1 is the
    mean-value floor for the peak of any complete expansion.  The
    objective (``_septic_peak``) is set up once per search: the checks,
    one grid and its node rows, and the PowerUndefined refusal at
    gamma = 1, before the first evaluation.  Shapes whose b is not
    positive somewhere read +inf, so the search steps back from them.
    """

    objective = _septic_peak(spec, t_f, n_grid)
    base = objective(0.0, 0.0)
    res = numerics.nelder_mead_2d(objective, (0.0, 0.0), rel_tol=1e-6, max_iter=2000)
    params, fx = res.x, res.fx
    if fx > base:
        params, fx = (0.0, 0.0), base
    return OptimizationResult(
        params=tuple(params),
        objective=fx,
        feasible=True,
        iterations=res.iterations,
        converged=res.converged,
        baseline=base,
    )
