"""Constructors for every expansion protocol.

All constructors work in dimensionless units (time in 1/omega0,
frequencies in omega0) and return a ``ProtocolBundle``: the curve sampled
on a grid with its analytic derivatives, and its omega^2 profile (read off
the Ermakov equation unless the family sets it).  The families:

* quintic / septic  -- polynomial interpolants of b(s), s = t/t_f, pinned
  by b(0)=1, bdot(0)=0, b(t_f)=gamma, bdot(t_f)=0 and bddot(0)=bddot(t_f)=0.
* quasi_optimal     -- b = sqrt((B^2 - tf^2) s^2 + 2 B s + 1) with
  B = sqrt(tf^2 + gamma^2) - 1; hits the endpoint values but not the
  derivative conditions, so on its own it only bounds the averaged energy.
* dirac_impulse     -- the quasi-optimal interior closed by delta kicks of
  omega^2 at t = 0 and t_f that switch the slopes to zero.
* hybrid_caps       -- cubic launching/stopping caps around the linear
  bottom-tracking segment, matched in value and slope at the joints.
* linear_bottom     -- b = 1 + (gamma-1) t/t_f with omega = omega0/b^2;
  rides the potential minimum, boundary slopes intentionally nonzero.
* bang_bang         -- two constant-frequency steps (the first possibly
  imaginary), switching times fixed by the matching conditions.
* constant_power_shoot -- shooting solution of the constant-power ODE
  b b''' - b'' b' + 4 b'/b^3 = 2(1 - omega_f/omega0)/t_f.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import ermakov, numerics
from .ermakov import _B_COLLAPSE, _COLLAPSE_MSG
from .core import (
    DEFAULT_GRID_N,
    FrequencyProfile,
    Infeasible,
    Piece,
    ScalingCurve,
    TimeGrid,
    TrajectoryBlowUp,
    TrapSpec,
)

_OMEGA1_SERIES_SWITCH = 1e-6  # below this, sinh(w1 t)/w1 is evaluated by series
_SNAP_TOL = 1e-12
# Brent root tolerance relative to the step frequency (~1/gamma at large gamma),
# which an absolute one cannot resolve to the 1e-12 duration postcondition
_ROOT_RTOL = 4.0 * float(np.finfo(float).eps)


def _check_duration(t_f) -> None:
    """The one duration check of every constructor: 0 < t_f < inf."""
    if t_f is None or not 0.0 < t_f < math.inf:
        raise ValueError(f"t_f must be positive and finite (got {t_f!r})")


def _sqrt_cols(g, g1, g2, g3):
    """(b, bdot, bddot, bdddot) of b = sqrt(g) from g and its first three
    derivatives, as arrays."""
    r = np.sqrt(g)
    g15 = g**1.5
    return (
        r,
        g1 / (2.0 * r),
        g2 / (2.0 * r) - g1**2 / (4.0 * g15),
        g3 / (2.0 * r) - 3.0 * g1 * g2 / (4.0 * g15) + 3.0 * g1**3 / (8.0 * g**2.5),
    )


@dataclass
class ProtocolBundle:
    """One protocol: the curve b(t), its omega^2(t) profile with any kicks,
    and ``extra``: the switching times and step frequencies t1, t2, omega1,
    omega2 of a two-step protocol, the shooting ``mismatch`` of the
    constant-power family (from ``build``), else empty."""

    curve: ScalingCurve
    profile: FrequencyProfile
    extra: dict


def _bundle(grid: TimeGrid, fns: tuple[Piece, ...], profile=None, extra=None, **kw) -> ProtocolBundle:
    """The protocol whose curve samples the closed forms ``fns`` piece by
    piece on ``grid``; its profile is ``profile``, else the inverse-engineered one."""
    cols = np.empty((4, len(grid)))
    for fn, (lo, hi) in zip(fns, grid.pieces, strict=True):
        cols[:, lo : hi + 1] = fn(grid.nodes[lo : hi + 1])
    curve = ScalingCurve(grid, *cols, fns=fns, **kw)
    if profile is None:
        profile = ermakov.inverse_engineer(curve)
    return ProtocolBundle(curve, profile, {} if extra is None else extra)


class _Poly:
    """Power series c[0] + c[1] s + ... evaluated with the floating-point
    operations of numpy.polynomial.polynomial.polyval and differentiated
    with those of polyder, without numpy.polynomial's per-call overhead.

    polyval's Horner starts at c[-1] + x*0, which for finite x is c[-1];
    starting at c[-2] + c[-1] x gives the same values, two operations sooner.
    """

    def __init__(self, coef):
        self.c = list(coef)

    def __call__(self, x, out=None):
        """The series at x, into ``out`` (not x itself) when given.

        A 0.0 coefficient is not added while a nonzero one of lower order is
        still to come: that add could change only the sign of a zero, which
        the nonzero add replaces, so the bits are those of adding every one.
        The in-place operators keep a scalar x on scalar arithmetic.
        """
        c = self.c if len(self.c) > 1 else [self.c[0], 0.0]   # c[0] + x*0
        first = 0   # the lowest order with a nonzero (or NaN) coefficient, else the top
        while c[first] == 0.0 and first < len(c) - 1:
            first += 1
        out = x * c[-1] if out is None else np.multiply(x, c[-1], out=out)
        for k in range(len(c) - 2, -1, -1):
            if c[k] != 0.0 or k <= first:
                out += c[k]
            if k:
                out *= x
        return out

    def deriv(self, m: int) -> "_Poly":
        c = self.c
        if m >= len(c):
            return _Poly([c[0] * 0])
        for _ in range(m):
            c = _dcoef(c)
        return _Poly(c)


def _dcoef(c: list) -> list:
    """The coefficients of one differentiation step of ``_Poly.deriv``."""
    return [j * c[j] for j in range(1, len(c))]


def _check_time_scale(t_f: float, k: int) -> None:
    """Refuse a closed form that divides its k-th derivative by t_f**k where
    that overflows: above t_f ~ 5.6e102 for k = 3, ~1.3e154 for k = 2."""
    try:
        float(t_f) ** k
    except OverflowError:
        raise ValueError(
            f"t_f = {t_f:.6g} is too long for this protocol: t_f^{k} overflows "
            f"above t_f ~ {float(np.finfo(float).max) ** (1.0 / k):.4g}"
        ) from None


def _poly_fns(p: _Poly, t_f: float, reverse: bool = False) -> Piece:
    """The piece b(t) = p(x) with x = t/t_f, or x = (t_f - t)/t_f when
    ``reverse`` (odd orders change sign), and its first three time
    derivatives; p is differentiated here, once, not per evaluation."""
    _check_time_scale(t_f, 3)
    derivs = [(p.deriv(j), t_f**j, reverse and j % 2) for j in (1, 2, 3)]

    def piece(t):
        x = (t_f - t) / t_f if reverse else t / t_f
        cols = [p(x)]
        for d, scale, flip in derivs:
            v = d(x) / scale
            cols.append(-v if flip else v)
        return tuple(cols)

    return piece


def quintic(spec: TrapSpec, t_f: float, n: int = DEFAULT_GRID_N) -> ProtocolBundle:
    """b(s) = 1 + (gamma-1)(10 s^3 - 15 s^4 + 6 s^5): the smoothest
    textbook interpolant, frequency continuous at both ends."""
    _check_duration(t_f)
    d = spec.gamma - 1.0
    p = _Poly([1.0, 0.0, 0.0, 10.0 * d, -15.0 * d, 6.0 * d])
    return _bundle(TimeGrid.uniform(t_f, n), (_poly_fns(p, t_f),))


def septic(
    spec: TrapSpec, t_f: float, c3: float = 0.0, c4: float = 0.0, n: int = DEFAULT_GRID_N
) -> ProtocolBundle:
    """Seventh-order interpolant with two free shape parameters.

    b = 1 + c3 s^3 + c4 s^4 - (21 + 6c3 + 3c4 - 21g) s^5
        + (35 + 8c3 + 3c4 - 35g) s^6 - (15 + 3c3 + c4 - 15g) s^7
    satisfies all six boundary conditions for any (c3, c4), which is what
    makes (c3, c4) usable as power-shaping knobs.
    """
    _check_duration(t_f)
    return _bundle(TimeGrid.uniform(t_f, n), (_septic_fns(spec, t_f, c3, c4),))


def _septic_coef(g: float, c3: float, c4: float) -> list:
    """The power-series coefficients of the septic b(s) at gamma = g."""
    return [
        1.0,
        0.0,
        0.0,
        c3,
        c4,
        -(21.0 + 6.0 * c3 + 3.0 * c4 - 21.0 * g),
        (35.0 + 8.0 * c3 + 3.0 * c4 - 35.0 * g),
        -(15.0 + 3.0 * c3 + c4 - 15.0 * g),
    ]


def _septic_fns(spec: TrapSpec, t_f: float, c3: float, c4: float) -> Piece:
    """The closed forms of ``septic`` (no duration check)."""
    return _poly_fns(_Poly(_septic_coef(spec.gamma, c3, c4)), t_f)


def quasi_optimal_B(spec: TrapSpec, t_f: float) -> float:
    """B = sqrt(tf^2 + gamma^2) - 1 (positive root)."""
    return math.sqrt(t_f**2 + spec.gamma**2) - 1.0


def _quasi_optimal_B2_minus_tf2(spec: TrapSpec, t_f: float) -> float:
    # B^2 - tf^2 = gamma^2 + 1 - 2 sqrt(tf^2 + gamma^2), free of the
    # catastrophic cancellation the direct difference hits for long protocols
    return spec.gamma**2 + 1.0 - 2.0 * math.sqrt(t_f**2 + spec.gamma**2)


def quasi_optimal(spec: TrapSpec, t_f: float, n: int = DEFAULT_GRID_N) -> ProtocolBundle:
    """Minimizer of the averaged 1/b^2 + bdot^2 functional between the
    endpoint values; slopes at 0+ and t_f- are recorded as one-sided
    derivatives because they do not vanish."""
    _check_duration(t_f)
    _check_time_scale(t_f, 2)
    g = spec.gamma
    B = quasi_optimal_B(spec, t_f)
    b2mt2 = _quasi_optimal_B2_minus_tf2(spec, t_f)
    pp = _Poly([1.0, 2.0 * B, b2mt2])  # b^2 as a polynomial in s
    if np.min(pp(np.linspace(0.0, 1.0, 512))) <= 0.0:
        raise ValueError("radicand of the scaling function is not positive")
    d1, d2 = pp.deriv(1), pp.deriv(2)

    def piece(t):
        s = t / t_f
        return _sqrt_cols(pp(s), d1(s) / t_f, d2(s) / t_f**2, np.zeros_like(s))

    return _bundle(
        TimeGrid.uniform(t_f, n),
        (piece,),
        b0_plus_dot=B / t_f,
        bf_minus_dot=(b2mt2 + B) / (g * t_f),
    )


def dirac_impulse(spec: TrapSpec, t_f: float, n: int = DEFAULT_GRID_N) -> ProtocolBundle:
    """Quasi-optimal interior plus delta kicks of omega^2 at 0 and t_f.

    The kick strengths D0 = -bdot(0+)/b(0) and Df = +bdot(t_f-)/b(t_f)
    switch the slopes to zero outside the protocol, so the effective
    boundary conditions hold and the averaged-energy bound is attained.
    D0 is always negative; Df may take either sign.
    """
    base = quasi_optimal(spec, t_f, n)
    c, p = base.curve, base.profile
    kicks = ((0.0, -c.b0_plus_dot / float(c.b[0])), (t_f, c.bf_minus_dot / float(c.b[-1])))
    return ProtocolBundle(c, FrequencyProfile(p.grid, p.omega2, p.domega2, kicks, p.omega2_fns), {})


def hybrid_caps(
    spec: TrapSpec,
    t_f: float,
    tau_l: float,
    tau_s: float,
    n: int = DEFAULT_GRID_N,
) -> ProtocolBundle:
    """Cubic launching/stopping caps around the linear bottom segment.

    The caps match b and bdot at both of their ends (a cubic cannot also
    match bddot, so omega stays discontinuous at the joints); closed-form
    coefficients, with b > 0 guaranteed throughout.
    """
    grid, (p1, pm, p2) = _hybrid_pieces(spec, t_f, tau_l, tau_s, n)
    return _bundle(grid, (_poly_fns(p1, t_f), _poly_fns(pm, t_f), _poly_fns(p2, t_f, True)))


def _hybrid_pieces(
    spec: TrapSpec, t_f: float, tau_l: float, tau_s: float, n: int
) -> tuple[TimeGrid, tuple[_Poly, _Poly, _Poly]]:
    """The grid of ``hybrid_caps`` and the polynomials of its launching cap
    and linear middle in s = t/t_f and of its stopping cap in u = 1 - s,
    in grid order."""
    _check_duration(t_f)
    _check_time_scale(t_f, 3)   # here as well: the cap objective never forms t_f**3
    if not (tau_l > 0.0 and tau_s > 0.0):
        raise ValueError("cap durations must be positive")
    if tau_l + tau_s >= t_f:
        raise ValueError("caps must fit inside the protocol: tau_l + tau_s < t_f")
    d = spec.gamma - 1.0
    s_l = tau_l / t_f
    u_r = tau_s / t_f
    for name, tau, frac in (("launching cap tau_l", tau_l, s_l), ("stopping cap tau_s", tau_s, u_r)):
        if not (frac**2 > 0.0 and isfinite(d / frac**2)):
            raise ValueError(
                f"{name} = {tau:.6g} is too short: its cubic coefficient "
                f"(gamma - 1)/(tau/t_f)^2 is not a finite float"
            )
    # cap 1 in s:  1 + (2d/s_l) s^2 - (d/s_l^2) s^3
    p1 = _Poly([1.0, 0.0, 2.0 * d / s_l, -d / s_l**2])
    # middle in s: 1 + d s
    pm = _Poly([1.0, d])
    # cap 2 in u = 1 - s:  gamma - (2d/u_r) u^2 + (d/u_r^2) u^3
    p2 = _Poly([spec.gamma, 0.0, -2.0 * d / u_r, d / u_r**2])
    grid = TimeGrid.piecewise([0.0, tau_l, t_f - tau_s, t_f], n)
    return grid, (p1, pm, p2)


def linear_bottom(spec: TrapSpec, t_f: float, n: int = DEFAULT_GRID_N) -> ProtocolBundle:
    """b = 1 + (gamma-1) t/t_f with the bottom-tracking control W = 1/b^2.

    bddot = 0, so the inverse-engineered control is exactly W^2 = 1/b^4;
    the boundary slopes are (gamma-1)/t_f at both ends, deliberately
    nonzero.
    """
    _check_duration(t_f)
    p = _Poly([1.0, spec.gamma - 1.0])
    return _bundle(TimeGrid.uniform(t_f, n), (_poly_fns(p, t_f),))


def bang_bang_times(spec: TrapSpec, omega1: float, omega2: float) -> tuple[float, float]:
    """Switching durations (t1, t2) from the matching conditions.

    omega1, omega2 in units of omega0.  Requires finite omega1 >= 0 and
    omega2 >= sqrt(omega_f/omega0) (i.e. omega2 >= sqrt(omega0*omega_f)),
    which is what makes t1 >= 0; at equality t1 = 0 exactly.
    """
    if not (math.isfinite(omega1) and math.isfinite(omega2)):
        raise ValueError(f"step frequencies must be finite, not omega1 = {omega1}, omega2 = {omega2}")
    if omega1 < 0.0:
        raise ValueError("omega1 must be >= 0")
    if omega2 <= 0.0:
        raise ValueError("omega2 must be > 0")
    g2 = spec.gamma**2
    w1s, w2s = omega1**2, omega2**2
    edge = g2 * w2s - 1.0
    if abs(edge) <= _SNAP_TOL * max(1.0, g2 * w2s):
        edge = 0.0
    if edge < 0.0:
        raise ValueError(
            "omega2 >= sqrt(omega0*omega_f) is required for t1 >= 0 "
            f"(gamma^2 omega2^2 - 1 = {edge:.3g})"
        )
    x = (g2 - 1.0) * edge / (g2 * (w2s + w1s) * (1.0 + w1s))
    c = math.sqrt(max(x, 0.0))
    if omega1 < _OMEGA1_SERIES_SWITCH:
        z = omega1 * c
        t1 = c * (1.0 - z**2 / 6.0 + 3.0 * z**4 / 40.0)
    else:
        t1 = math.asinh(omega1 * c) / omega1
    if edge == 0.0:
        # At gamma^2 omega2^2 = 1 the arcsin argument reduces to
        # omega2^2 (gamma^2 omega1^2 + 1) / (omega2^2 + omega1^2) = 1 exactly;
        # evaluating it in floating point would hit the sqrt singularity.
        arg = 1.0
    else:
        arg = w2s * (g2 - 1.0) * (g2 * w1s + 1.0) / ((w2s + w1s) * (g2**2 * w2s - 1.0))
        if arg > 1.0:
            if arg > 1.0 + 1e-9:
                raise ValueError(f"arcsin argument {arg:.12g} > 1 in the matching condition")
            arg = 1.0
    t2 = math.asin(math.sqrt(arg)) / omega2
    return t1, t2


def _bang_bang_seg1_fns(omega1: float) -> Piece:
    """b = sqrt(g) with g = 1 + (1 + w1^2) sinh^2(w1 t)/w1^2 on (0, t1)."""
    w1s = omega1**2
    c = 1.0 + w1s
    if omega1 < _OMEGA1_SERIES_SWITCH:
        # sinh^2(w1 t)/w1^2 and derivatives by series: exact at omega1 = 0
        def piece(t):
            return _sqrt_cols(
                1.0 + c * (t**2 + w1s * t**4 / 3.0 + 2.0 * w1s**2 * t**6 / 45.0),
                c * (2.0 * t + 4.0 * w1s * t**3 / 3.0 + 4.0 * w1s**2 * t**5 / 15.0),
                c * (2.0 + 4.0 * w1s * t**2 + 4.0 * w1s**2 * t**4 / 3.0),
                c * (8.0 * w1s * t + 16.0 * w1s**2 * t**3 / 3.0),
            )

    else:
        u = c / w1s

        def piece(t):
            x = 2.0 * omega1 * t
            sinh2 = np.sinh(x)
            return _sqrt_cols(
                1.0 + u * np.sinh(omega1 * t) ** 2,
                u * omega1 * sinh2,
                2.0 * u * w1s * np.cosh(x),
                4.0 * u * omega1**3 * sinh2,
            )

    return piece


def _bang_bang_seg2_fns(gamma: float, omega2: float, t_f: float) -> Piece:
    """b = sqrt(g) with g = gamma^2 + a sin^2(w2 (t_f - t)) on (t1, t_f).

    g is summed as gamma^2 cos^2 + sin^2/(gamma w2)^2, the same g without
    the cancellation of gamma^2 against a ~ -gamma^2 where b is near 1."""
    a = (1.0 - gamma**4 * omega2**2) / (gamma**2 * omega2**2)

    def piece(t):
        u = t_f - t
        x = 2.0 * omega2 * u
        sin2 = np.sin(x)
        return _sqrt_cols(
            gamma**2 * np.cos(omega2 * u) ** 2 + np.sin(omega2 * u) ** 2 / (gamma**2 * omega2**2),
            -a * omega2 * sin2,
            2.0 * a * omega2**2 * np.cos(x),
            4.0 * a * omega2**3 * sin2,
        )

    return piece


def bang_bang(
    spec: TrapSpec, omega1: float, omega2: float, n: int = DEFAULT_GRID_N
) -> ProtocolBundle:
    """Analytic two-step protocol for given step frequencies (omega0 units):
    frequency i*omega1 on (0, t1), omega2 on (t1, t_f); ``extra`` holds
    t1, t2, omega1 and omega2."""
    t1, t2 = bang_bang_times(spec, omega1, omega2)
    return _bang_bang_bundle(spec, {"t1": t1, "t2": t2, "omega1": omega1, "omega2": omega2}, n)


def _bang_bang_bundle(spec: TrapSpec, times: dict, n: int) -> ProtocolBundle:
    """``bang_bang``'s bundle from its solved ``extra``: t1, t2, omega1, omega2."""
    t1, omega1, omega2 = times["t1"], times["omega1"], times["omega2"]
    t_f = t1 + times["t2"]
    seg2 = _bang_bang_seg2_fns(spec.gamma, omega2, t_f)
    if t1 == 0.0:
        grid = TimeGrid.uniform(t_f, n)
        fns: tuple[Piece, ...] = (seg2,)
        om_vals = [omega2**2]
    else:
        grid = TimeGrid.piecewise([0.0, t1, t_f], n)
        fns = (_bang_bang_seg1_fns(omega1), seg2)
        om_vals = [-(omega1**2), omega2**2]
    profile = FrequencyProfile(
        grid,
        np.concatenate([np.full(hi + 1 - lo, v) for v, (lo, hi) in zip(om_vals, grid.pieces)]),
        np.zeros(len(grid)),
        omega2_fns=tuple((lambda t, v=v: np.full(np.shape(t), v)) for v in om_vals),
    )
    return _bundle(grid, fns, profile, times)


def bang_bang_max_duration(spec: TrapSpec) -> float:
    """t_f at the extreme point omega2 = sqrt(omega0*omega_f): pi*gamma/2."""
    return math.pi * spec.gamma / 2.0


_DURATION_RTOL = 1e-12


def _two_step_times(spec, t_f, label, t_min, w_lo, steps) -> dict:
    """Switching times and step frequencies of one two-step family's
    protocol that lasts t_f: the ``extra`` of its bundle, found without
    building it.

    ``steps(w)`` maps the family's free frequency to (omega1, omega2); the
    duration falls from pi*gamma/2 at w = w_lo towards t_min as w grows, so
    t1 + t2 = t_f is solved for w by root bracketing.  Postcondition:
    |t1 + t2 - t_f| <= 1e-12 t_f, else Infeasible.
    """
    _check_duration(t_f)
    t_max = bang_bang_max_duration(spec)
    if not t_min < t_f <= t_max:
        raise Infeasible(f"{label} protocols need {t_min:.6g} < t_f <= {t_max:.6g}")

    def duration_gap(w):
        return sum(bang_bang_times(spec, *steps(w))) - t_f

    if t_f >= t_max * (1.0 - 1e-12):
        w = w_lo
    elif spec.gamma == 1.0:
        # At gamma = 1 both switching times vanish except at the extreme point,
        # so every duration below t_max = pi/2 is out of reach; the root search
        # would land on the jump of the duration gap instead.
        raise Infeasible(f"without expansion (gamma = 1) two-step protocols only last {t_max:.6g}")
    else:
        w_hi = max(1.0, 2.0 * w_lo)
        while duration_gap(w_hi) > 0.0:
            w_hi *= 2.0
            if w_hi > 1e12:
                raise Infeasible(f"could not bracket the step frequency of {label} protocols")
        try:
            w = numerics._brent_root(duration_gap, w_lo, w_hi, xtol=_ROOT_RTOL * w_lo)
        except RuntimeError as exc:  # no convergence within the iteration limit
            raise Infeasible(f"{label} protocol for t_f = {t_f:.12g}: {exc}") from None
    omega1, omega2 = steps(w)
    t1, t2 = bang_bang_times(spec, omega1, omega2)
    lasts = t1 + t2   # the float bang_bang's grid ends at
    if abs(lasts - t_f) > _DURATION_RTOL * t_f:
        raise Infeasible(
            f"two-step protocol lasts {lasts:.12g} instead of the requested {t_f:.12g} "
            f"(relative miss {abs(lasts - t_f) / t_f:.2g} > {_DURATION_RTOL:g})"
        )
    return {"t1": t1, "t2": t2, "omega1": omega1, "omega2": omega2}


def bang_bang_times_for_duration(spec: TrapSpec, t_f: float) -> dict:
    """The ``extra`` (t1, t2, omega1 = omega2) of the equal-step protocol
    lasting t_f, without sampling it; ``build`` makes the bundle from it.
    Solves t1(w) + t2(w) = t_f for the common step frequency by root
    bracketing; only durations up to pi*gamma/2 are reachable."""
    w_lo = math.sqrt(spec.omega_f_rel)
    return _two_step_times(spec, t_f, "equal-step", 0.0, w_lo, lambda w: (w, w))


def bang_bang_na(spec: TrapSpec, beta: float, n: int = DEFAULT_GRID_N) -> ProtocolBundle:
    """Free-expansion two-step protocol: omega1 = 0, omega2 = beta*omega0.

    All frequencies are real and non-negative, so the non-adiabatic energy
    is defined.  ``bang_bang_times`` requires beta >= 1/gamma (t1 real),
    which also keeps the arcsin argument in range.
    """
    return bang_bang(spec, 0.0, beta, n)


def bang_bang_na_times_for_duration(spec: TrapSpec, t_f: float) -> dict:
    """The ``extra`` (t1, t2, omega1 = 0, omega2 = beta) of the
    free-expansion protocol lasting t_f, as ``bang_bang_times_for_duration``
    is for equal steps.  Durations range over (sqrt(gamma^2 - 1), pi*gamma/2]:
    beta = 1/gamma at the upper end, beta -> infinity at the lower."""
    t_min = math.sqrt(spec.gamma**2 - 1.0)
    return _two_step_times(
        spec, t_f, "free-expansion", t_min, 1.0 / spec.gamma, lambda beta: (0.0, beta)
    )


@dataclass
class ShootingMismatch:
    """Terminal-condition misses of the constant-power shooting solution."""

    b_error: float      # b(t_f) - gamma
    bdot_f: float
    bddot_f: float


def _rk4_constant_power(b, b1, b2, source, ts):
    """Classical RK4 for (b, b', b'') under the constant-power condition.

    A scalar float loop over the nodes; each expression keeps the order of
    the array form y + h/2 k, y + (h/6)(k1 + 2 k2 + 2 k3 + k4) and each
    cube is the product b*b*b, so the result is bit-identical to that form
    with the same right-hand side.  A stage with b below 1e-9 aborts with
    that stage's time, a non-finite state with the next node's time.
    ``ts`` are the node times as a list.  Returns the per-node lists of b,
    b' and b''.
    """
    out_b, out_b1, out_b2 = [b], [b1], [b2]
    for t, t1 in zip(ts, ts[1:]):
        h = t1 - t
        hh = 0.5 * h
        if b < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t)
        k1 = (source + b2 * b1 - 4.0 * b1 / (b * b * b)) / b
        c, c1, c2 = b + hh * b1, b1 + hh * b2, b2 + hh * k1
        if c < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t + hh)
        k2 = (source + c2 * c1 - 4.0 * c1 / (c * c * c)) / c
        d, d1, d2 = b + hh * c1, b1 + hh * c2, b2 + hh * k2
        if d < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t + hh)
        k3 = (source + d2 * d1 - 4.0 * d1 / (d * d * d)) / d
        e, e1, e2 = b + h * d1, b1 + h * d2, b2 + h * k3
        if e < _B_COLLAPSE:
            raise TrajectoryBlowUp(_COLLAPSE_MSG, t + h)
        k4 = (source + e2 * e1 - 4.0 * e1 / (e * e * e)) / e
        h6 = h / 6.0
        b, b1, b2 = (
            b + h6 * (b1 + 2.0 * c1 + 2.0 * d1 + e1),
            b1 + h6 * (b2 + 2.0 * c2 + 2.0 * d2 + e2),
            b2 + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
        )
        if not (isfinite(b) and isfinite(b1) and isfinite(b2)):
            raise TrajectoryBlowUp("ODE state became non-finite", t1)
        out_b.append(b)
        out_b1.append(b1)
        out_b2.append(b2)
    return out_b, out_b1, out_b2


def constant_power_shoot(
    spec: TrapSpec, t_f: float, n: int = DEFAULT_GRID_N
) -> tuple[ScalingCurve, ShootingMismatch]:
    """Integrate the constant-power condition forward from rest.

    b b''' - b'' b' + 4 b'/b^3 = 2 (1 - omega_f/omega0)/t_f with
    b(0) = 1, bdot(0) = 0 and bddot(0) = 0 (no frequency jump at t = 0).
    The three conditions at t = 0 use up every constant, so the terminal
    conditions generically fail; the mismatch is reported rather than fixed.
    """
    _check_duration(t_f)
    source = 2.0 * (1.0 - spec.omega_f_rel) / t_f
    grid = TimeGrid.uniform(t_f, n)
    cols = _rk4_constant_power(1.0, 0.0, 0.0, source, grid.nodes.tolist())
    b, b1, b2 = (np.array(c) for c in cols)
    b3 = (source + b2 * b1 - 4.0 * b1 / (b * b * b)) / b
    curve = ScalingCurve(grid, b, b1, b2, b3)
    mism = ShootingMismatch(
        b_error=float(b[-1] - spec.gamma),
        bdot_f=float(b1[-1]),
        bddot_f=float(b2[-1]),
    )
    return curve, mism


_FAMILIES = (
    "quintic",
    "septic",
    "quasi_optimal",
    "dirac",
    "hybrid",
    "linear_bottom",
    "bang_bang",
    "bang_bang_na",
    "constant_power",
)


@dataclass
class ProtocolParams:
    """Declarative protocol request: a family and its inputs.

    ``family=None`` is a request that has no family yet; ``build`` refuses
    it.  Durations are dimensionless.  ``t_f`` sets the duration of every
    family, except that bang_bang may instead be given both step
    frequencies ``omega1``/``omega2`` and bang_bang_na its stopping
    frequency ``beta``, from which the duration follows.  ``c3``/``c4``
    shape septic; ``tau_l``/``tau_s`` are hybrid's caps (each defaults to
    t_f/10).
    """

    family: str | None
    t_f: float | None = None
    c3: float = 0.0
    c4: float = 0.0
    tau_l: float | None = None
    tau_s: float | None = None
    beta: float | None = None
    omega1: float | None = None
    omega2: float | None = None
    grid_n: int = DEFAULT_GRID_N

    def __post_init__(self):
        if self.family is not None and self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {_FAMILIES}")


_STEP_INPUTS = {"bang_bang": ("omega1", "omega2"), "bang_bang_na": ("beta",)}
# shape input -> (the family that reads it, the value that leaves it unset)
_SHAPE_INPUTS = {"c3": ("septic", 0.0), "c4": ("septic", 0.0), "tau_l": ("hybrid", None),
                 "tau_s": ("hybrid", None)}


def build(spec: TrapSpec, params: ProtocolParams) -> ProtocolBundle:
    """The protocol of a request: the one family dispatch.

    Returns the family constructor's bundle; the constant-power shot gets
    the inverse-engineered profile and its mismatch in ``extra``.  Raises
    ValueError for a request without a family, for step inputs other than
    the family's own (bang_bang: both omega1 and omega2; bang_bang_na:
    beta), for step inputs together with t_f, for a bad t_f, and for
    another family's shape inputs (a nonzero c3/c4 outside septic,
    tau_l/tau_s outside hybrid); the constructors' own ValueError and
    Infeasible pass through, except that a two-step bundle for a given t_f
    refuses its grid's ValueError as Infeasible, and a free-expansion
    bundle for a given beta names beta and its value in its ValueError.
    """
    fam, t_f, n = params.family, params.t_f, params.grid_n
    if fam is None:
        raise ValueError(f"no protocol family given; choose from {_FAMILIES}")
    own = _STEP_INPUTS.get(fam, ())
    given = tuple(k for k in ("omega1", "omega2", "beta") if getattr(params, k) is not None)
    if given and given != own:
        need = " and ".join(own) or "no step frequencies"
        raise ValueError(f"the {fam} family takes {need}, not {'/'.join(given)}")
    if given and t_f is not None:
        raise ValueError(f"give either t_f or {'/'.join(given)}, not both")
    if not given:
        _check_duration(t_f)
    ignored = [k for k, (f, unset) in _SHAPE_INPUTS.items() if f != fam and getattr(params, k) != unset]
    if ignored:
        raise ValueError(f"the {fam} family does not use {'/'.join(ignored)}")
    if own:
        steps = [getattr(params, k) for k in given]
        if steps and fam == "bang_bang":
            return bang_bang(spec, *steps, n)
        if steps:
            try:
                return bang_bang_na(spec, *steps, n)
            except ValueError as exc:  # its checks name omega2, which the request calls beta
                beta = f"{params.beta:.12g}"
                raise ValueError(f"beta = {beta} (the stopping frequency omega2): {exc}") from None
        if fam == "bang_bang":
            label, times = "equal-step", bang_bang_times_for_duration(spec, t_f)
        else:
            label, times = "free-expansion", bang_bang_na_times_for_duration(spec, t_f)
        try:
            return _bang_bang_bundle(spec, times, n)
        except ValueError as exc:  # e.g. a step too short to sample, next to t_min
            raise Infeasible(f"{label} protocol for t_f = {t_f:.12g}: {exc}") from None
    if fam == "septic":
        return septic(spec, t_f, params.c3, params.c4, n)
    if fam == "hybrid":
        caps = [0.1 * t_f if tau is None else tau for tau in (params.tau_l, params.tau_s)]
        return hybrid_caps(spec, t_f, *caps, n)
    if fam == "constant_power":
        curve, mism = constant_power_shoot(spec, t_f, n)
        return ProtocolBundle(curve, ermakov.inverse_engineer(curve), {"mismatch": mism})
    if fam == "quintic":
        return quintic(spec, t_f, n)
    if fam == "quasi_optimal":
        return quasi_optimal(spec, t_f, n)
    if fam == "dirac":
        return dirac_impulse(spec, t_f, n)
    if fam == "linear_bottom":
        return linear_bottom(spec, t_f, n)
    raise ValueError(f"unknown family {fam!r}")
