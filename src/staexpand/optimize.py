"""The two protocol searches: cap durations and power-peak shaping.

Both are deterministic: fixed multistart seeds, Nelder-Mead refinement,
lexicographic tie-breaking.  Infeasible points (imaginary frequency,
caps that do not fit, a septic b that is not positive) are penalized with
+inf, so the simplex walks back into the feasible region on its own.

The objectives compute only the number they return, with the per-node
kernels the public path calls (``protocols._Poly``, ``ermakov._omega2``
and ``_domega2``, ``energies._ena`` and ``_power_samples``,
``core._real_omega``) writing into preallocated node rows, so they equal
it bit for bit (tests compare them with ``==``).  A cap evaluation stops at the first piece, the stopping cap
first, whose frequency is imaginary; a septic evaluation stops where b is
not positive.
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
    _is_imaginary,
    _real_omega,
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


def _hybrid_avg_ena(spec: TrapSpec, t_f: float, tau_l: float, tau_s: float, n_grid: int) -> float:
    """Averaged non-adiabatic energy of a cap protocol; +inf when the caps
    do not fit or the frequency goes imaginary.

    Equal, bit for bit, to ``nonadiabatic_energy`` of ``hybrid_caps`` (tests
    hold it to that path): it calls the same per-node kernels on the grid
    and polynomials of ``_hybrid_pieces``, into four node rows (x, b, bdot,
    W^2), and computes only what it returns.  First b, bddot and W^2 on the
    stopping cap (where a short protocol goes imaginary), then on the
    launching cap and the line, stopping with +inf where W^2 is imaginary;
    then bdot and the Ena samples over the whole grid, and one Simpson sum
    per piece, added in grid order as ``numerics.average`` adds them.
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
    res = numerics.nelder_mead_2d(objective, best_p, best_f, rel_tol=1e-8)
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
    call fills six node rows with the kernels the full path calls: b, its
    three time derivatives, then d(W^2)/dtau and the power in one row.
    """
    protocols._check_duration(t_f)
    t = TimeGrid.uniform(t_f, n_grid).nodes
    protocols._check_time_scale(t_f, 3)
    scale = energies._energy_change(spec) / t_f
    x, b, b1, b2, b3, power = np.empty((6, len(t)))
    np.divide(t, t_f, out=x)

    def peak(c3: float, c4: float) -> float:
        p = protocols._Poly(protocols._septic_coef(spec.gamma, float(c3), float(c4)))
        if (p(x, out=b) <= 0.0).any():
            return math.inf
        for j, row in enumerate((b1, b2, b3), 1):
            p = p.deriv(1)
            np.divide(p(x, out=row), t_f**j, out=row)
        energies._power_samples(spec, ermakov._domega2(b, b1, b2, b3, out=power), b, out=power)
        return float(np.maximum.reduce(np.abs(np.divide(power, scale, out=power), out=power)))

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
    res = numerics.nelder_mead_2d(objective, (0.0, 0.0), base, rel_tol=1e-6, max_iter=2000)
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
