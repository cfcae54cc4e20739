"""Simpson quadrature on grid pieces, finite differences, Brent's
bracketing root finder and the two-variable Nelder-Mead minimizer.

The last two are operation-for-operation ports of SciPy 1.17.1 (BSD-3,
Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy Developers), so they
return the same bits as ``scipy.optimize.brentq`` and
``scipy.optimize.minimize(method="Nelder-Mead")`` without importing SciPy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import GridMismatch, TimeGrid


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


_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)  # brentq's default rtol
_BRENT_MAXITER = 100


def _brent_root(f: Callable, a: float, b: float, xtol: float) -> float:
    """Root of f in the bracket [a, b] by Brent's method (zeroin).

    A port of SciPy's ``brentq`` at its default rtol = 4 eps and maxiter =
    100 (its C loop ``Zeros/brentq.c`` and its Python wrapper): Brent,
    *Algorithms for Minimization without Derivatives* (1973), ch. 4.
    Converges when half the bracket is below (xtol + rtol |x|)/2.  Raises
    ValueError when f gives NaN or f(a) and f(b) have the same sign, and
    RuntimeError after 100 iterations without convergence.
    """
    xtol = float(xtol)  # a C double, as SciPy converts it

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate (inverse quadratic)
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gives inf or NaN here, which bisects
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


@dataclass
class MinimizeResult:
    x: tuple[float, ...]
    fx: float
    converged: bool
    iterations: int


class _MaxEvals(Exception):
    """The evaluation budget of ``nelder_mead_2d`` is spent."""


def nelder_mead_2d(
    f: Callable,
    start: Sequence[float],
    rel_tol: float = 1e-8,
    max_iter: int = 10_000,
) -> MinimizeResult:
    """Nelder-Mead local minimization of f(x, y) (deterministic).

    Nelder & Mead, Comput. J. 7, 308 (1965), as SciPy 1.17.1's
    ``_minimize_neldermead`` implements it (``scipy/optimize/_optimize.py``,
    BSD-3, Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy Developers):
    the unbounded, non-adaptive branch with its default start simplex and
    the same array operations, so iterates match it bit for bit.  Stops
    when the simplex is within xatol = rel_tol (1 + max|start|) and its
    values within fatol = 1e-12 (1 + |f(start)|), after ``max_iter``
    iterations, or at the 4 ``max_iter``-th evaluation; only the first
    counts as converged.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    start = np.asarray(start, dtype=float)
    scale = 1.0 + float(np.max(np.abs(start)))
    f0 = f(start[0], start[1])
    fatol = 1e-12 * (1.0 + abs(f0)) if np.isfinite(f0) else 1e-12
    xatol = rel_tol * scale
    max_evals = 4 * max_iter
    evals = 0

    def func(x):
        nonlocal evals
        if evals >= max_evals:
            raise _MaxEvals
        evals += 1
        return f(x[0], x[1])

    n = len(start)
    sim = np.empty((n + 1, n), dtype=float)
    sim[0] = start
    for k in range(n):
        y = np.array(start, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf, dtype=float)
    try:
        for k in range(n + 1):
            fsim[k] = func(sim[k])
    except _MaxEvals:
        pass
    # SciPy sorts twice here; an unstable argsort may reorder ties again.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while evals < max_evals and iterations < max_iter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = func(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = func(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = func(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
            iterations += 1
        except _MaxEvals:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    converged = evals < max_evals and iterations < max_iter
    return MinimizeResult(tuple(float(v) for v in sim[0]), float(np.min(fsim)), converged, iterations)
