"""Simpson quadrature on grid pieces, Gauss-Legendre nodes, Brent's
bracketing root finder and the step of a two-variable trust-region
minimax.

The root finder is an operation-for-operation port of SciPy 1.17.1's
``brentq`` (BSD-3, Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy
Developers), so it returns the same bits without importing SciPy.  It runs
on Python floats, whose IEEE operations are numpy's, and so does the
minimax step.
"""
from __future__ import annotations

import functools
import math
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


_GRADED_LEVELS = 12   # the fewest panels toward each end: the last is 0.5 * 4^-12 ~ 3e-8 wide


def graded_gauss_legendre(f: Callable[[np.ndarray], np.ndarray], layer: float = 1.0) -> tuple[float, float]:
    """The integral of f over [0, 1] and an estimate of its error.

    Gauss-Legendre on panels graded geometrically toward both ends, with
    edges 0.5 * 4^-k for k = 1 ... K from 0, and their mirror images from 1,
    so that a feature of width ``layer`` next to s = 0 spans about five
    panels, the narrowest a thousandth of its width: K is the larger of 12
    and log4(0.5 / (1e-3 layer)).  f takes an array of s in [0, 1] and
    returns its values there elementwise.  The value is GL-64 on every
    panel; the estimate is the sum over panels of its change from GL-32,
    which is far above GL-64's own error where f is smooth on each panel.
    A feature narrower than the panels around it falls between the nodes of
    both rules, and the estimate cannot see it: pass its width as ``layer``.
    """
    levels = max(_GRADED_LEVELS, math.ceil(math.log(0.5 / (1e-3 * layer), 4)))
    left = [0.5 * 4.0**-k for k in range(levels, 0, -1)]
    right = [1.0 - 0.5 * 4.0**-k for k in range(1, _GRADED_LEVELS + 1)]
    edges = np.array([0.0, *left, 0.5, *right, 1.0])
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    panels = []
    for m in (32, 64):
        x, w = _gauss_legendre(m)
        panels.append(np.sum(width * w * f(lo + width * x), axis=1))
    coarse, fine = panels
    return float(np.sum(fine)), float(np.sum(np.abs(fine - coarse)))


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


def _minimax_step(rows: Sequence, hess: Sequence[float], box: Sequence[float]) -> tuple:
    """The step d in the box |d_1| <= r_1, |d_2| <= r_2 that minimizes the
    model max_a(f_a + g_a . d) + d.H.d/2 of a two-variable minimax, as
    (d_1, d_2, model value, weights): ``rows`` holds the (f_a, g_a1, g_a2),
    ``hess`` is (H_11, H_12, H_22) and need not be definite, and the weights
    are (a, lambda_a) pairs, the multipliers of the rows tied at d, which
    sum to 1.

    The minimum lies in the relative interior of a face: one to three tied
    rows and the box bounds that hold as equalities.  There it is the
    stationary point of the tied rows' common value plus the quadratic on
    that face, a linear solve of at most three unknowns; where that solve
    is singular, the minimum is also on a face of lower dimension.  So
    every face's stationary point is a candidate, with the box's corners
    and d = 0, and the least model value among them is the minimum over the
    box: no LP or QP solver.  Rows that cannot be the largest anywhere in
    the box take no part.
    """
    (h11, h12, h22), (r1, r2) = hess, box
    floor = max(f - abs(g1) * r1 - abs(g2) * r2 for f, g1, g2 in rows)
    live = [(a, f, g1, g2) for a, (f, g1, g2) in enumerate(rows) if f + abs(g1) * r1 + abs(g2) * r2 >= floor]
    best = [math.inf, 0.0, 0.0, ((0, 1.0),)]

    def consider(d1, d2, weights=None):
        if not (abs(d1) <= r1 * (1.0 + 1e-12) and abs(d2) <= r2 * (1.0 + 1e-12)):
            return   # outside the box, or NaN
        d1, d2 = min(max(d1, -r1), r1), min(max(d2, -r2), r2)
        top, arg = max((f + g1 * d1 + g2 * d2, a) for a, f, g1, g2 in live)
        value = top + 0.5 * (h11 * d1 * d1 + 2.0 * h12 * d1 * d2 + h22 * d2 * d2)
        if value < best[0]:
            best[:] = value, d1, d2, weights or ((arg, 1.0),)

    def pair(a, b, lam):
        lam = min(max(lam, 0.0), 1.0)
        return (a, lam), (b, 1.0 - lam)

    consider(0.0, 0.0)
    for d1 in (-r1, r1):
        for d2 in (-r2, r2):
            consider(d1, d2)
    det = h11 * h22 - h12 * h12
    for i, (a, fa, ga1, ga2) in enumerate(live):
        one = ((a, 1.0),)
        if det != 0.0:   # no bound
            consider((h12 * ga2 - h22 * ga1) / det, (h12 * ga1 - h11 * ga2) / det, one)
        if h22 != 0.0:   # d_1 on a bound
            for d1 in (-r1, r1):
                consider(d1, -(ga2 + h12 * d1) / h22, one)
        if h11 != 0.0:   # d_2 on a bound
            for d2 in (-r2, r2):
                consider(-(ga1 + h12 * d2) / h11, d2, one)
        for j, (b, fb, gb1, gb2) in enumerate(live[i + 1 :], i + 1):
            e1, e2, de = ga1 - gb1, ga2 - gb2, fb - fa   # a and b tie where e . d = de
            ee = e1 * e1 + e2 * e2
            if ee == 0.0:
                continue
            # along the tie line x + tau v, v = (e2, -e1): H d + g_b + lambda_a e = 0
            x1, x2 = de * e1 / ee, de * e2 / ee
            curv = h11 * e2 * e2 - 2.0 * h12 * e1 * e2 + h22 * e1 * e1
            if curv != 0.0:
                tau = -((gb1 + h11 * x1 + h12 * x2) * e2 - (gb2 + h12 * x1 + h22 * x2) * e1) / curv
                d1, d2 = x1 + tau * e2, x2 - tau * e1
                lam = -(e1 * (h11 * d1 + h12 * d2 + gb1) + e2 * (h12 * d1 + h22 * d2 + gb2)) / ee
                consider(d1, d2, pair(a, b, lam))
            if e2 != 0.0:
                for d1 in (-r1, r1):
                    d2 = (de - e1 * d1) / e2
                    consider(d1, d2, pair(a, b, -(h12 * d1 + h22 * d2 + gb2) / e2))
            if e1 != 0.0:
                for d2 in (-r2, r2):
                    d1 = (de - e2 * d2) / e1
                    consider(d1, d2, pair(a, b, -(h11 * d1 + h12 * d2 + gb1) / e1))
            for c, fc, gc1, gc2 in live[j + 1 :]:   # a vertex, where c ties too: k . d = dk
                k1, k2, dk = ga1 - gc1, ga2 - gc2, fc - fa
                det3 = e1 * k2 - e2 * k1
                if det3 == 0.0:
                    continue
                d1, d2 = (de * k2 - e2 * dk) / det3, (e1 * dk - k1 * de) / det3
                # lambda_b e + lambda_c k = H d + g_a, and lambda_a = 1 - lambda_b - lambda_c
                q1, q2 = h11 * d1 + h12 * d2 + ga1, h12 * d1 + h22 * d2 + ga2
                lb, lc = (q1 * k2 - k1 * q2) / det3, (e1 * q2 - e2 * q1) / det3
                lams = (max(1.0 - lb - lc, 0.0), max(lb, 0.0), max(lc, 0.0))
                total = lams[0] + lams[1] + lams[2]
                if total > 0.0:
                    consider(d1, d2, tuple(zip((a, b, c), (lam / total for lam in lams))))
    value, d1, d2, weights = best
    return d1, d2, value, weights
