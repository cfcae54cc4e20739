"""Simpson quadrature on grid pieces, Gauss-Legendre nodes, Brent's
bracketing root finder, Brent's bounded minimizer and the two-variable
Nelder-Mead minimizer.

The last three are operation-for-operation ports of SciPy 1.17.1 (BSD-3,
Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy Developers), so they
return the same bits as ``scipy.optimize.brentq``,
``scipy.optimize.minimize_scalar(method="bounded")`` and
``scipy.optimize.minimize(method="Nelder-Mead")`` without importing SciPy.
All three run on Python floats, whose IEEE operations are numpy's;
Nelder-Mead keeps only SciPy's ``np.argsort``, for its order of tied values.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import GridMismatch, TimeGrid


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson on uniformly spaced samples (odd count).

    The two strided sums are ``ndarray.sum``'s own reduction, called
    directly; the rest is Python float arithmetic, the same IEEE operations
    as on numpy scalars, at a fraction of their overhead.
    """
    odd, even = float(np.add.reduce(y[1:-1:2])), float(np.add.reduce(y[2:-1:2]))
    return float(h) / 3.0 * (float(y[0]) + float(y[-1]) + 4.0 * odd + 2.0 * even)


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


@functools.cache
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m Gauss-Legendre nodes (ascending) and weights on [0, 1], as
    read-only arrays computed once per m.

    Newton's method on the Legendre polynomial P_m from the guesses
    cos(pi (i - 1/4)/(m + 1/2)), with P_m and P_m' from the three-term
    recurrence; on [-1, 1] the weights are 2/((1 - x^2) P_m'(x)^2).  Only
    elementwise ufuncs: no LAPACK call, whose work buffers would add about
    a megabyte to the process.
    """
    x = np.cos(np.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(100):
        p0, p1 = np.ones(m), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = m * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / slope
        x = x - step
        if float(np.max(np.abs(step))) <= 1e-15:
            break
    nodes, weights = (x + 1.0) / 2.0, 1.0 / ((1.0 - x * x) * slope * slope)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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


_SQRT_EPS = math.sqrt(2.2e-16)            # fminbound's own, not sqrt(machine eps)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _unit(v: float) -> float:
    """SciPy's ``np.sign(v) + (v == 0)``: -1.0 below zero, else 1.0."""
    return -1.0 if v < 0.0 else 1.0


def _minimize_bounded(f: Callable, lo: float, hi: float, xatol: float = 1e-5,
                      max_iter: int = 500) -> MinimizeResult:
    """Local minimum of f(x) on [lo, hi] by Brent's method (fminbound).

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 5,
    as SciPy 1.17.1's ``_minimize_scalar_bounded`` implements it
    (``scipy/optimize/_optimize.py``): a parabola through the three best
    points where it steps inside the bracket and shrinks the step, a
    golden-section step otherwise, and never a step shorter than
    tol1 = sqrt(2.2e-16) |x| + xatol/3.  f is called with Python floats,
    never at lo or hi.  Stops when x is within 2 tol1 - (b - a)/2 of the
    middle of the bracket [a, b], or at the ``max_iter``-th evaluation;
    only the first counts as converged, and a NaN x or value fails it.
    ``iterations`` counts evaluations, as both SciPy's nit and nfev do.
    Raises ValueError for bounds that are not finite or out of order.
    """
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if a > b:
        raise ValueError("The lower bound exceeds the upper bound.")
    fulc = nfc = xf = a + _GOLDEN_MEAN * (b - a)
    rat = e = 0.0
    fx = float(f(xf))
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    converged = True
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _unit(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e
        x = xf + _unit(rat) * max(abs(rat), tol1)
        fu = float(f(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= max_iter:
            converged = False
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        converged = False
    return MinimizeResult((xf,), fx, converged, num)


class _MaxEvals(Exception):
    """The evaluation budget of ``nelder_mead_2d`` is spent."""


def _sorted(sim: list, fsim: list) -> tuple[list, list]:
    """The vertices and their values in the order of ``np.argsort(fsim)``,
    SciPy's sort, whose order of tied values is the platform's."""
    ind = np.argsort(fsim).tolist()
    return [sim[k] for k in ind], [fsim[k] for k in ind]


def nelder_mead_2d(
    f: Callable,
    start: Sequence[float],
    f_start: float,
    rel_tol: float = 1e-8,
    max_iter: int = 10_000,
) -> MinimizeResult:
    """Nelder-Mead local minimization of f(x, y) (deterministic).

    Nelder & Mead, Comput. J. 7, 308 (1965), as SciPy 1.17.1's
    ``_minimize_neldermead`` implements it (``scipy/optimize/_optimize.py``,
    BSD-3, Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy Developers):
    the unbounded, non-adaptive branch with its default start simplex.  The
    three vertices are pairs of Python floats, each coordinate formed by
    SciPy's operations in SciPy's order and sorted by ``np.argsort`` as
    SciPy sorts them, so iterates match it bit for bit; f is called with two
    Python floats.  Stops when the simplex is within xatol = rel_tol
    (1 + max|start|) and its values within fatol = 1e-12 (1 + |f(start)|)
    (a NaN fails both, as under SciPy's ``np.max``), after ``max_iter``
    iterations, or at the 4 ``max_iter``-th evaluation; only the first
    counts as converged.  The caller passes ``f_start`` = f(start), which
    it has already evaluated: it sets fatol and is the first vertex's value,
    and it counts against the budget there, as SciPy's first call does.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    start = np.asarray(start, dtype=float)
    scale = 1.0 + float(np.max(np.abs(start)))
    x0 = tuple(start.tolist())
    fatol = 1e-12 * (1.0 + abs(f_start)) if np.isfinite(f_start) else 1e-12
    xatol = rel_tol * scale
    max_evals = 4 * max_iter
    evals = 0

    def func(x, known=None):
        nonlocal evals
        if evals >= max_evals:
            raise _MaxEvals
        evals += 1
        return float(f(*x) if known is None else known)

    sim = [x0]
    for k in range(2):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(tuple(y))
    fsim = [math.inf] * 3
    try:
        for k in range(3):   # the first vertex is start: f_start, counted as SciPy counts it
            fsim[k] = func(sim[k], f_start if k == 0 else None)
    except _MaxEvals:
        pass
    # SciPy sorts twice here; an unstable argsort may reorder ties again.
    for _ in range(2):
        sim, fsim = _sorted(sim, fsim)

    iterations = 1
    while evals < max_evals and iterations < max_iter:
        try:
            (a0, a1), (b0, b1), (c0, c1) = sim
            if (all(d <= xatol for d in (abs(b0 - a0), abs(b1 - a1), abs(c0 - a0), abs(c1 - a1)))
                    and all(d <= fatol for d in (abs(fsim[0] - fsim[1]), abs(fsim[0] - fsim[2])))):
                break
            m0, m1 = (a0 + b0) / 2, (a1 + b1) / 2   # xbar, the centroid of the best two
            xr = ((1 + rho) * m0 - rho * c0, (1 + rho) * m1 - rho * c1)
            fxr = func(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = ((1 + rho * chi) * m0 - rho * chi * c0, (1 + rho * chi) * m1 - rho * chi * c1)
                fxe = func(xe)
                if fxe < fxr:
                    sim[2], fsim[2] = xe, fxe
                else:
                    sim[2], fsim[2] = xr, fxr
            elif fxr < fsim[1]:
                sim[2], fsim[2] = xr, fxr
            elif fxr < fsim[2]:  # outside contraction
                xc = ((1 + psi * rho) * m0 - psi * rho * c0, (1 + psi * rho) * m1 - psi * rho * c1)
                fxc = func(xc)
                if fxc <= fxr:
                    sim[2], fsim[2] = xc, fxc
                else:
                    shrink = True
            else:  # inside contraction
                xcc = ((1 - psi) * m0 + psi * c0, (1 - psi) * m1 + psi * c1)
                fxcc = func(xcc)
                if fxcc < fsim[2]:
                    sim[2], fsim[2] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in (1, 2):
                    sj = sim[j]
                    sim[j] = (a0 + sigma * (sj[0] - a0), a1 + sigma * (sj[1] - a1))
                    fsim[j] = func(sim[j])
            iterations += 1
        except _MaxEvals:
            pass
        sim, fsim = _sorted(sim, fsim)

    converged = evals < max_evals and iterations < max_iter
    return MinimizeResult(sim[0], float(np.min(fsim)), converged, iterations)
