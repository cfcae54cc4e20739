"""Simpson quadrature on grid pieces, finite differences, the reference
fixed-step RK4, and the two-variable Nelder-Mead minimizer."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .core import GridMismatch, TimeGrid, TrajectoryBlowUp


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson on uniformly spaced samples (odd count)."""
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))


def integrate(values: Sequence[float], grid: TimeGrid) -> float:
    """Integral of sampled values over [0, t_f].

    Composite Simpson on each piece, which ``TimeGrid`` guarantees to be
    uniform with an odd node count (error O(h^4) for smooth integrands);
    the step is the piece's first node spacing.
    """
    values = np.asarray(values, dtype=float)
    if len(values) != len(grid.nodes):
        raise GridMismatch(f"{len(values)} samples on a {len(grid.nodes)}-node grid")
    nodes = grid.nodes
    total = 0.0
    for lo, hi in grid.pieces:
        total += simpson_uniform(values[lo : hi + 1], nodes[lo + 1] - nodes[lo])
    return total


def average(values: Sequence[float], grid: TimeGrid) -> float:
    """Time average (integral divided by t_f)."""
    return integrate(values, grid) / grid.t_f


def second_derivative(values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Finite-difference second derivative, O(h^2), one-sided at piece ends."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for lo, hi in grid.pieces:
        y = values[lo : hi + 1]
        h = grid.nodes[lo + 1] - grid.nodes[lo]
        d = np.empty_like(y)
        d[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h**2
        d[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / h**2
        d[-1] = (2.0 * y[-1] - 5.0 * y[-2] + 4.0 * y[-3] - y[-4]) / h**2
        out[lo : hi + 1] = d
    return out


def rk4_solve(rhs: Callable, y0, nodes: np.ndarray) -> np.ndarray:
    """Classical fixed-step RK4 over the given nodes.

    Returns the trajectory with one state row per node.  A non-finite
    state aborts with the time at which it appeared.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    out = np.empty((len(nodes), y.size))
    out[0] = y
    for i in range(len(nodes) - 1):
        t = nodes[i]
        h = nodes[i + 1] - t
        k1 = np.asarray(rhs(t, y), dtype=float)
        k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise TrajectoryBlowUp("ODE state became non-finite", float(nodes[i + 1]))
        out[i + 1] = y
    return out


@dataclass
class MinimizeResult:
    x: tuple[float, ...]
    fx: float
    converged: bool
    iterations: int


def nelder_mead_2d(
    f: Callable,
    start: Sequence[float],
    rel_tol: float = 1e-8,
    max_iter: int = 10_000,
) -> MinimizeResult:
    """Nelder-Mead local minimization in two variables (deterministic)."""
    start = np.asarray(start, dtype=float)
    scale = 1.0 + float(np.max(np.abs(start)))
    f0 = f(start[0], start[1])
    fatol = 1e-12 * (1.0 + abs(f0)) if np.isfinite(f0) else 1e-12
    res = _scipy_minimize(
        lambda p: f(p[0], p[1]),
        start,
        method="Nelder-Mead",
        options={
            "xatol": rel_tol * scale,
            "fatol": fatol,
            "maxiter": max_iter,
            "maxfev": 4 * max_iter,
        },
    )
    return MinimizeResult(tuple(float(v) for v in res.x), float(res.fun), bool(res.success), int(res.nit))
