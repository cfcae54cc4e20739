"""The two protocol searches: cap durations and power-peak shaping.

Both are deterministic: fixed multistart seeds, Nelder-Mead refinement,
lexicographic tie-breaking.  Infeasible points (imaginary frequency,
caps that do not fit) are penalized with +inf, so the simplex walks back
into the feasible region on its own.

The objectives compute only the number they return, from the constructors
and per-node expressions of the public path, so they equal it bit for bit
(tests compare them with ``==``).  One cap evaluation builds the hybrid
grid and cap polynomials, then per piece b, bdot, bddot, W^2, Ena and a
Simpson sum; one septic evaluation the four columns, d(W^2)/dtau and the
power on a grid built once per search.
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
    _check_positive,
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
    hold it to that path), but computes only what it returns: it builds
    the same grid and cap polynomials, then takes one piece at a time, the
    stopping cap first (where a short protocol goes imaginary), then the
    launching cap, then the line.  Per piece it evaluates b, bdot and bddot
    (not bdddot), W^2 and, unless W^2 is imaginary (then it stops with
    +inf), the Ena samples and their Simpson sum; the three sums are added
    in grid order, as ``numerics.average`` adds them.
    """
    tau_l, tau_s = float(tau_l), float(tau_s)  # Nelder-Mead's np.float64: same bits, slower scalars
    if not (tau_l > 0.0 and tau_s > 0.0 and tau_l + tau_s < 0.999 * t_f):
        return math.inf
    grid, polys = protocols._hybrid_pieces(spec, t_f, tau_l, tau_s, n_grid)
    sums = [0.0, 0.0, 0.0]
    for k in (2, 0, 1):
        lo, hi = grid.pieces[k]
        t = grid.nodes[lo : hi + 1]
        b, bdot, bddot = protocols._poly_cols(polys[k], t_f, t, k == 2, 2)
        omega2 = ermakov._omega2(b, bddot)
        if _is_imaginary(omega2):
            return math.inf
        ena = energies._ena(b, bdot, omega2, _real_omega(omega2))
        sums[k] = numerics.simpson_uniform(ena, t[1] - t[0])
    energies._check_ground_state(spec)  # where the full path refuses an excited mode
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
    (c3, c4), equal bit for bit to ``power(...).peak_rel`` of ``septic``.

    The duration check, the uniform grid and the gamma = 1 refusal
    (PowerUndefined) run once, here; each call then evaluates the septic
    closed forms, d(W^2)/dtau and the power on the grid's nodes, without
    the W^2 samples, power integral or step terms the search never reads.
    """
    protocols._check_duration(t_f)
    t = TimeGrid.uniform(t_f, n_grid).nodes
    scale = energies._energy_change(spec) / t_f

    def peak(c3: float, c4: float) -> float:
        b, bdot, bddot, bdddot = protocols._septic_fns(spec, t_f, c3, c4)(t)
        _check_positive(b)
        dom = ermakov._domega2(b, bdot, bddot, bdddot)
        return float(np.max(np.abs(energies._power_samples(spec, dom, b) / scale)))

    return peak


def optimize_septic_power(
    spec: TrapSpec, t_f: float, n_grid: int = 4001
) -> OptimizationResult:
    """Minimize the peak relative power of the septic family over
    (c3, c4), starting from (0, 0).

    The peak is taken over a dense grid (minimax objectives need it), and
    the result is clamped to never exceed the starting point.  1 is the
    mean-value floor for the peak of any complete expansion.  The
    objective (``_septic_peak``) is set up once per search: one grid and
    the PowerUndefined refusal at gamma = 1, before the first evaluation.
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
