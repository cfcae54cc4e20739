"""Every expansion protocol, made by ``build`` from a ``ProtocolParams``.

``build`` is the one constructor.  It works in dimensionless units (time
in 1/omega0, frequencies in omega0) and returns a ``ProtocolBundle``: the
curve sampled on a grid with its analytic derivatives, and its omega^2
profile (read off the Ermakov equation unless the family sets it).  The
families:

* quintic / septic  -- polynomial interpolants of b(s), s = t/t_f, pinned
  by b(0)=1, bdot(0)=0, b(t_f)=gamma, bdot(t_f)=0 and bddot(0)=bddot(t_f)=0.
* quasi_optimal     -- b = sqrt((B^2 - tf^2) s^2 + 2 B s + 1) with
  B = sqrt(tf^2 + gamma^2) - 1; hits the endpoint values but not the
  derivative conditions, so on its own it only bounds the averaged energy.
* dirac             -- the quasi-optimal interior closed by delta kicks of
  omega^2 at t = 0 and t_f that switch the slopes to zero.
* hybrid            -- cubic launching/stopping caps around the linear
  bottom-tracking segment, matched in value and slope at the joints.
* linear_bottom     -- b = 1 + (gamma-1) t/t_f with omega = omega0/b^2;
  rides the potential minimum, boundary slopes intentionally nonzero.
* bang_bang         -- two constant-frequency steps (the first possibly
  imaginary), switching times fixed by the matching conditions;
  bang_bang_na is its free-expansion variant (omega1 = 0).
* constant_power    -- ``constant_power_shoot``, the shooting solution of
  the constant-power ODE b b''' - b'' b' + 4 b'/b^3 = 2(1 - omega_f/omega0)/t_f.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import ermakov, numerics
from .core import (
    DEFAULT_GRID_N,
    FrequencyProfile,
    Infeasible,
    Piece,
    ScalingCurve,
    TimeGrid,
    TrajectoryBlowUp,
    TrapSpec,
    _check_duration,
)

_OMEGA1_SERIES_SWITCH = 1e-100  # below it omega1^3 nears underflow; the series is exact (w1 t < 1e-38)
_SNAP_TOL = 1e-12


def _sqrt_cols(g, g1, g2, g3):
    """(b, bdot, bddot, bdddot) of b = sqrt(g) from g and its first three
    derivatives, as arrays: each derivative of b b = g, divided by b."""
    b = np.sqrt(g)
    inv = 1.0 / b
    b1 = 0.5 * g1 * inv
    b2 = (0.5 * g2 - b1 * b1) * inv
    return b, b1, b2, (0.5 * g3 - 3.0 * b1 * b2) * inv


@dataclass
class ProtocolBundle:
    """One protocol: the curve b(t), its omega^2(t) profile with any kicks,
    and ``extra``: the switching times and step frequencies t1, t2, omega1,
    omega2 of a two-step protocol, the shooting ``mismatch`` of the
    constant-power family (from ``build``), else empty."""

    curve: ScalingCurve
    profile: FrequencyProfile
    extra: dict


def _bundle(grid: TimeGrid, fns: tuple[Piece, ...], profile=None, extra=None) -> ProtocolBundle:
    """The protocol whose curve samples the closed forms ``fns`` piece by
    piece on ``grid``; its profile is ``profile``, else the inverse-engineered one."""
    cols = np.empty((4, len(grid)))
    for fn, (lo, hi) in zip(fns, grid.pieces, strict=True):
        cols[:, lo : hi + 1] = fn(grid.nodes[lo : hi + 1])
    curve = ScalingCurve(grid, *cols, fns=fns)
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
            c = [j * c[j] for j in range(1, len(c))]
        return _Poly(c)


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


# gamma^2/t_f^3 stays this far below the float maximum: it covers each family's
# constant factor, at most ~1.4e4 (hybrid's t_f/10 caps) on a log scan
_SCALE_MARGIN = 1e8
# 8 gamma^5 reaches the float maximum here; only b^5 in d(W^2)/dtau grows as gamma^5,
# so the 8 is a margin: b^5 overflows at gamma ~ 4.48e61, 8^(1/5) ~ 1.52 times higher
_GAMMA_MAX = (float(np.finfo(float).max) / 8.0) ** 0.2
_T_PER_GAMMA = (_SCALE_MARGIN / float(np.finfo(float).max)) ** (1.0 / 3.0)


def _check_scale(g: float, t_f: float) -> None:
    """Refuse a trap or duration at which a closed form overflows, the mirror
    of ``_check_time_scale``: a gamma g above ``_GAMMA_MAX`` (about 2.95e61),
    and a t_f below which g^2/t_f^3 (the power's b d^3b/dt^3) comes within
    ``_SCALE_MARGIN`` of the float maximum.  The septic passes its bound
    gamma + |c3| + |c4| on |b| as g."""
    if g > _GAMMA_MAX:
        raise ValueError(
            f"gamma = {g:.6g} is too large for a protocol: its closed form overflows "
            f"above gamma ~ {_GAMMA_MAX:.4g}"
        )
    t_min = g ** (2.0 / 3.0) * _T_PER_GAMMA
    if t_f < t_min:
        raise ValueError(
            f"t_f = {t_f:.6g} is too short for this protocol at gamma = {g:.6g}: "
            f"its closed form overflows below t_f ~ {t_min:.4g}"
        )


def _poly_fns(p: _Poly, t_f: float, reverse: bool = False) -> Piece:
    """The piece b(t) = p(x) with x = t/t_f, or x = (t_f - t)/t_f when
    ``reverse`` (odd orders change sign), and its first three time
    derivatives; p is differentiated here, once, not per evaluation.  The
    caller checks t_f**3 (``_check_time_scale``), once per protocol."""
    derivs = [(p.deriv(j), t_f**j, reverse and j % 2) for j in (1, 2, 3)]

    def piece(t):
        x = (t_f - t) / t_f if reverse else t / t_f
        cols = [p(x)]
        for d, scale, flip in derivs:
            v = d(x) / scale
            cols.append(-v if flip else v)
        return tuple(cols)

    return piece


def _septic_coef(g: float, c3: float, c4: float) -> list:
    """The power-series coefficients of the septic b(s) at gamma = g: of
    1 + (g-1)(21 s^5 - 35 s^6 + 15 s^7) + c3 s^3 (1-s)^3 (1+3s) + c4 s^4 (1-s)^3,
    whose first part rises from 1 to g and whose shape factors lie in [0, 1],
    so |b| <= g + |c3| + |c4| on [0, 1]."""
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


def _quasi_optimal(spec: TrapSpec, t_f: float, params: ProtocolParams) -> ProtocolBundle:
    """Minimizer of the averaged 1/b^2 + bdot^2 functional between the
    endpoint values; its end slopes bdot[0] and bdot[-1] do not vanish."""
    _check_time_scale(t_f, 2)
    g = spec.gamma
    # b^2 = 1 + 2 B s + (B^2 - tf^2) s^2 = ((1 - s) + q s)(1 + p s), R = sqrt(tf^2 + gamma^2),
    # q = gamma^2/(R + tf), p = R + tf - 1: positive, and no terms ~2 tf cancel to gamma^2
    # at s = 1; r1 = R - 1 = B and a = q - 1 are formed without cancellation near gamma = 1
    R = math.sqrt(t_f**2 + g**2)
    g21 = (g - 1.0) * (g + 1.0)
    r1 = (t_f**2 + g21) / (R + 1.0)
    p, q, a = r1 + t_f, g**2 / (R + t_f), (g21 - 2.0 * t_f) / (R + t_f + 1.0)
    # b^2 peaks at s = -r1/(a p) where that lies inside, else at s = 1;
    # ~tf/2 for tf >> gamma^2, so b passes the gamma edge near tf ~ 1.7e123
    s = min(1.0, -r1 / (a * p)) if a < 0.0 else 1.0
    top = ((1.0 - s) + q * s) * (1.0 + p * s)
    if top > _GAMMA_MAX**2:
        raise ValueError(
            f"t_f = {t_f:.6g} is too long for this protocol at gamma = {g:.6g}: b peaks at "
            f"{math.sqrt(top):.4g}, above b ~ {_GAMMA_MAX:.4g} where its closed form overflows"
        )

    def piece(t):
        # bddot = -1/b^3, the functional's Euler-Lagrange equation: (g''/2 - bdot^2)/b would
        # cancel terms ~(gamma/tf)^2 to leave it; bdddot = -3 bdot bddot/b as g''' = 0
        s = t / t_f
        b = np.sqrt(((1.0 - s) + q * s) * (1.0 + p * s))
        inv = 1.0 / b
        b1, b2 = (r1 + a * p * s) / t_f * inv, -(inv * inv * inv)
        return b, b1, b2, -3.0 * b1 * b2 * inv

    return _bundle(TimeGrid.uniform(t_f, params.grid_n), (piece,))


def _dirac(spec: TrapSpec, t_f: float, params: ProtocolParams) -> ProtocolBundle:
    """Quasi-optimal interior plus delta kicks of omega^2 at 0 and t_f.

    The kick strengths D0 = -bdot(0+)/b(0) and Df = +bdot(t_f-)/b(t_f)
    switch the slopes to zero outside the protocol, so the effective
    boundary conditions hold and the averaged-energy bound is attained.
    D0 is always negative; Df may take either sign.
    """
    base = _quasi_optimal(spec, t_f, params)
    c, p = base.curve, base.profile
    kicks = ((0.0, -float(c.bdot[0] / c.b[0])), (t_f, float(c.bdot[-1] / c.b[-1])))
    return ProtocolBundle(c, FrequencyProfile(p.grid, p.omega2, p.domega2, kicks, p.omega2_fns), {})


def _hybrid(spec: TrapSpec, t_f: float, params: ProtocolParams) -> ProtocolBundle:
    """Cubic launching/stopping caps around the linear bottom segment, each
    cap t_f/10 unless given.

    The caps match b and bdot at both of their ends (a cubic cannot also
    match bddot, so omega stays discontinuous at the joints); closed-form
    coefficients, with b > 0 guaranteed throughout.
    """
    caps = [0.1 * t_f if tau is None else tau for tau in (params.tau_l, params.tau_s)]
    grid, (p1, pm, p2) = _hybrid_pieces(spec, t_f, *caps, params.grid_n)
    return _bundle(grid, (_poly_fns(p1, t_f), _poly_fns(pm, t_f), _poly_fns(p2, t_f, True)))


def _hybrid_pieces(
    spec: TrapSpec, t_f: float, tau_l: float, tau_s: float, n: int
) -> tuple[TimeGrid, tuple[_Poly, _Poly, _Poly]]:
    """The grid of the hybrid family and the polynomials of its launching cap
    and linear middle in s = t/t_f and of its stopping cap in u = 1 - s,
    in grid order."""
    _check_duration(t_f)
    _check_time_scale(t_f, 3)   # here, not in _hybrid: the cap objective enters without build
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


# the matching conditions' products reach (gamma omega)^4 times at most 4:
# below this gamma*omega every one of them is a finite float
_GAMMA_OMEGA_MAX = (float(np.finfo(float).max) / 4.0) ** 0.25


def bang_bang_times(spec: TrapSpec, omega1: float, omega2: float) -> tuple[float, float]:
    """Switching durations (t1, t2) from the matching conditions.

    omega1, omega2 in units of omega0.  Requires finite omega1 >= 0 and
    omega2 >= sqrt(omega_f/omega0) (i.e. omega2 >= sqrt(omega0*omega_f)),
    which is what makes t1 >= 0; at equality t1 = 0 exactly.  A frequency
    with gamma*omega above ``_GAMMA_OMEGA_MAX`` (about 8.2e76) is refused,
    as the conditions overflow there.
    """
    if not (math.isfinite(omega1) and math.isfinite(omega2)):
        raise ValueError(f"step frequencies must be finite, not omega1 = {omega1}, omega2 = {omega2}")
    if omega1 < 0.0:
        raise ValueError("omega1 must be >= 0")
    if omega2 <= 0.0:
        raise ValueError("omega2 must be > 0")
    g = spec.gamma
    if g * max(omega1, omega2) > _GAMMA_OMEGA_MAX:
        name, w = ("omega1", omega1) if omega1 >= omega2 else ("omega2", omega2)
        raise ValueError(
            f"{name} = {w:.6g} is too high at gamma = {g:.6g}: the matching "
            f"conditions overflow above gamma*{name} ~ {_GAMMA_OMEGA_MAX:.4g}"
        )
    e = g**2 * omega2**2 - 1.0
    if abs(e) <= _SNAP_TOL * max(1.0, g**2 * omega2**2):
        e = 0.0
    if e < 0.0:
        raise ValueError(
            "omega2 >= sqrt(omega0*omega_f) is required for t1 >= 0 "
            f"(gamma^2 omega2^2 - 1 = {e:.3g})"
        )
    return _switching_times(g, omega1, omega2, e)


def _switching_times(g: float, omega1: float, omega2: float, e: float) -> tuple[float, float]:
    """(t1, t2) of the steps omega1 >= 0 and omega2 > 0 at gamma = g, given
    e = g^2 omega2^2 - 1 >= 0 formed without cancellation: sinh^2(omega1 t1)
    is omega1^2 (g^2 - 1) e / (g^2 (omega2^2 + omega1^2)(1 + omega1^2)), and
    sin^2 and cos^2 of omega2 t2 are omega2^2 (g^2 - 1)(g^2 omega1^2 + 1) and
    (g^2 omega2^2 + omega1^2) e over their sum, which nothing subtracts."""
    g21, w1s, w2s = (g - 1.0) * (g + 1.0), omega1**2, omega2**2
    c = math.sqrt(g21 * e / (g**2 * (w2s + w1s) * (1.0 + w1s)))
    z = omega1 * c
    t1 = math.asinh(z) / omega1 if z else c
    sn = math.sqrt(w2s * g21 * (g**2 * w1s + 1.0))
    cs = math.sqrt((g**2 * w2s + w1s) * e)
    # both vanish only at gamma = 1 with e = 0, where the extreme point lasts a quarter period
    t2 = (math.atan2(sn, cs) if sn or cs else 0.5 * math.pi) / omega2
    return t1, t2


def _bang_bang_seg1_fns(omega1: float) -> Piece:
    """b = sqrt(g) with g = 1 + (1 + w1^2) sinh^2(w1 t)/w1^2 on (0, t1)."""
    w1s = omega1**2
    c = 1.0 + w1s
    if omega1 < _OMEGA1_SERIES_SWITCH:
        # sinh^2(w1 t)/w1^2 and derivatives by series in z = (w1 t)^2: exact at
        # omega1 = 0, and no power of t beyond t^2 overflows at t ~ 1e61
        def piece(t):
            z = w1s * t * t
            return _sqrt_cols(
                1.0 + c * (t * t * (1.0 + z / 3.0 + 2.0 * z * z / 45.0)),
                c * (t * (2.0 + 4.0 * z / 3.0 + 4.0 * z * z / 15.0)),
                c * (2.0 + 4.0 * z + 4.0 * z * z / 3.0),
                c * (w1s * t * (8.0 + 16.0 * z / 3.0)),
            )

    else:
        u = c / w1s

        def piece(t):
            # sinh 2y = 2 sinh y cosh y and cosh 2y = 1 + 2 sinh^2 y at y = w1 t
            x = omega1 * t
            sh = np.sinh(x)
            sh2, sinh2 = sh * sh, 2.0 * sh * np.cosh(x)
            return _sqrt_cols(
                1.0 + u * sh2,
                u * omega1 * sinh2,
                2.0 * u * w1s * (1.0 + 2.0 * sh2),
                4.0 * u * omega1**3 * sinh2,
            )

    return piece


def _bang_bang_seg2_fns(gamma: float, omega2: float, t_f: float) -> Piece:
    """b = sqrt(g) with g = gamma^2 + a sin^2(w2 (t_f - t)) on (t1, t_f).

    g is summed as gamma^2 cos^2 + sin^2/(gamma w2)^2, the same g without
    the cancellation of gamma^2 against a ~ -gamma^2 where b is near 1."""
    a = (1.0 - gamma**4 * omega2**2) / (gamma**2 * omega2**2)

    def piece(t):
        # sin 2x = 2 sin x cos x and cos 2x = cos^2 x - sin^2 x at x = w2 (t_f - t)
        x = omega2 * (t_f - t)
        sn, cs = np.sin(x), np.cos(x)
        sn2, cs2, sin2 = sn * sn, cs * cs, 2.0 * sn * cs
        return _sqrt_cols(
            gamma**2 * cs2 + sn2 / (gamma**2 * omega2**2),
            -a * omega2 * sin2,
            2.0 * a * omega2**2 * (cs2 - sn2),
            4.0 * a * omega2**3 * sin2,
        )

    return piece


def _bang_bang_bundle(spec: TrapSpec, times: dict, n: int) -> ProtocolBundle:
    """The two-step protocol of its ``extra``: frequency i*omega1 on (0, t1),
    omega2 on (t1, t_f).  Its duration t_f = t1 + t2 goes through
    ``_check_scale`` first, then a t2 that t1 + t2 rounds away is refused."""
    t1, t2, omega1, omega2 = times["t1"], times["t2"], times["omega1"], times["omega2"]
    t_f = t1 + t2
    _check_scale(spec.gamma, t_f)
    if t1 > 0.0 and t_f == t1:
        raise ValueError(f"the second step t2 = {t2:.6g} is lost in t1 + t2 = t1 = {t1:.6g}: "
                         "it is below t1's float spacing")
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
# two-step family -> the name its refusals give its protocols
_TWO_STEP_LABELS = {"bang_bang": "equal-step", "bang_bang_na": "free-expansion"}


def two_step_times(spec: TrapSpec, family: str, t_f: float) -> dict:
    """The ``extra`` (t1, t2, omega1, omega2) of the two-step protocol of
    ``family`` that lasts t_f, found without sampling it; ``build`` makes
    the bundle from it.

    bang_bang has equal steps omega1 = omega2 = w and reaches durations in
    (0, pi*gamma/2]; bang_bang_na (free expansion) has omega1 = 0 and
    omega2 = beta and reaches (sqrt(gamma^2 - 1), pi*gamma/2], beta =
    1/gamma at the upper end and beta -> infinity at the lower.  t1 + t2 =
    t_f is solved by root bracketing for v = gamma sqrt(e/(gamma^2 - 1)),
    e = gamma^2 omega2^2 - 1: the duration leaves pi*gamma/2 at v = 0
    without omega2's square-root singularity, and at every gamma it has
    fallen by a fraction of order 1 at v = 1.  Postcondition:
    |t1 + t2 - t_f| <= 1e-12 t_f, else Infeasible.
    """
    _check_duration(t_f)
    if family not in _TWO_STEP_LABELS:
        raise ValueError(f"{family!r} is not a two-step family; choose from {tuple(_TWO_STEP_LABELS)}")
    label, free, g = _TWO_STEP_LABELS[family], family == "bang_bang_na", spec.gamma
    g21 = (g - 1.0) * (g + 1.0)
    t_min = math.sqrt(g21) if free else 0.0
    t_max = bang_bang_max_duration(spec)
    if not t_min < t_f <= t_max:
        raise Infeasible(f"{label} protocols need {t_min:.6g} < t_f <= {t_max:.6g}")

    def frequencies(v):   # (omega1, omega2, e) at v
        e = g21 * (v / g) ** 2
        w = math.sqrt(1.0 + e) / g
        return 0.0 if free else w, w, e

    def duration_gap(v):
        return sum(_switching_times(g, *frequencies(v))) - t_f

    if g == 1.0 and t_f < t_max:   # both switching times vanish except at the extreme point
        raise Infeasible(f"without expansion (gamma = 1) two-step protocols only last {t_max:.6g}")
    v = 0.0   # the extreme point, unless it lasts longer than t_f
    if duration_gap(v) > 0.0:
        # the duration falls about as t_max/v for v >> 1; omega2 stays below 1e12 at v = 1e12 gamma
        v_lo, v_hi = 0.0, min(t_max / t_f, 1e12 * g)
        while duration_gap(v_hi) > 0.0:
            v_lo, v_hi = v_hi, 2.0 * v_hi
            if frequencies(v_hi)[1] > 1e12:
                raise Infeasible(f"could not bracket the step frequency of {label} protocols")
        try:
            # v's scale is 1 at every gamma: its absolute tolerance is Brent's relative one
            v = numerics._brent_root(duration_gap, v_lo, v_hi, xtol=numerics._BRENT_RTOL)
        except RuntimeError as exc:  # no convergence within the iteration limit
            raise Infeasible(f"{label} protocol for t_f = {t_f:.12g}: {exc}") from None
    omega1, omega2, e = frequencies(v)
    t1, t2 = _switching_times(g, omega1, omega2, e)
    lasts = t1 + t2   # the float the bundle's grid ends at
    if abs(lasts - t_f) > _DURATION_RTOL * t_f:
        raise Infeasible(
            f"two-step protocol lasts {lasts:.12g} instead of the requested {t_f:.12g} "
            f"(relative miss {abs(lasts - t_f) / t_f:.2g} > {_DURATION_RTOL:g})"
        )
    return {"t1": t1, "t2": t2, "omega1": omega1, "omega2": omega2}


@dataclass
class ShootingMismatch:
    """Terminal-condition misses of the constant-power shooting solution."""

    b_error: float      # b(t_f) - gamma
    bdot_f: float
    bddot_f: float


_B_COLLAPSE = 1e-9
_COLLAPSE_MSG = "scaling function collapsed toward b = 0"


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
    mism = ShootingMismatch(float(b[-1] - spec.gamma), float(b1[-1]), float(b2[-1]))
    return ScalingCurve(grid, b, b1, b2, b3), mism


def _uniform_poly(coef):
    """The maker of a family whose b(s) is the one polynomial with power
    series ``coef(gamma, params)`` on a uniform grid."""
    def make(spec: TrapSpec, t_f: float, params: ProtocolParams) -> ProtocolBundle:
        _check_time_scale(t_f, 3)
        p = _Poly(coef(spec.gamma, params))
        return _bundle(TimeGrid.uniform(t_f, params.grid_n), (_poly_fns(p, t_f),))

    return make


# the largest end miss of a septic, relative to gamma, gamma/t_f and gamma/t_f^2
_SEPTIC_END_TOL = 1e-9


def _septic(spec: TrapSpec, t_f: float, params: ProtocolParams) -> ProtocolBundle:
    """The septic of shape (c3, c4), refused where its stored ends miss
    b(t_f) = gamma, bdot(t_f) = bddot(t_f) = 0 by more than ``_SEPTIC_END_TOL``:
    the power series' coefficients grow with |c3| and |c4| and cancel at s = 1."""
    bundle = _uniform_poly(lambda g, p: _septic_coef(g, p.c3, p.c4))(spec, t_f, params)
    c, g = bundle.curve, spec.gamma
    misses = ((c.b[-1] - g) / g, c.bdot[-1] * t_f / g, c.bddot[-1] * t_f**2 / g)
    if not max(map(abs, misses)) <= _SEPTIC_END_TOL:
        raise ValueError(
            f"the septic shape c3 = {params.c3:.6g}, c4 = {params.c4:.6g} loses its end conditions to "
            f"round-off: (b - gamma)/gamma = {misses[0]:.3g}, bdot t_f/gamma = {misses[1]:.3g} and "
            f"bddot t_f^2/gamma = {misses[2]:.3g} at t_f, above {_SEPTIC_END_TOL:g}")
    return bundle


def _constant_power(spec: TrapSpec, t_f: float, params: ProtocolParams) -> ProtocolBundle:
    """The constant-power shot with its inverse-engineered profile and its
    mismatch in ``extra``."""
    curve, mism = constant_power_shoot(spec, t_f, params.grid_n)
    return ProtocolBundle(curve, ermakov.inverse_engineer(curve), {"mismatch": mism})


# designed family -> its maker (spec, t_f, params) -> bundle
_DESIGNED = {
    # b(s) = 1 + (gamma-1)(10 s^3 - 15 s^4 + 6 s^5): the smoothest textbook interpolant
    "quintic": _uniform_poly(lambda g, params: [1.0, 0.0, 0.0, 10.0 * (g - 1.0),
                                               -15.0 * (g - 1.0), 6.0 * (g - 1.0)]),
    # all six boundary conditions for any (c3, c4), the power-shaping knobs
    "septic": _septic,
    "quasi_optimal": _quasi_optimal,
    "dirac": _dirac,
    "hybrid": _hybrid,
    # b = 1 + (gamma-1) s: bddot = 0, so W^2 = 1/b^4 exactly; slopes (gamma-1)/t_f at both ends
    "linear_bottom": _uniform_poly(lambda g, params: [1.0, g - 1.0]),
    "constant_power": _constant_power,
}
# two-step family -> its step inputs, from which the duration follows
_STEP_INPUTS = {"bang_bang": ("omega1", "omega2"), "bang_bang_na": ("beta",)}
_FAMILIES = (*_DESIGNED, *_STEP_INPUTS)
# shape input -> (the family that reads it, the value that leaves it unset)
_SHAPE_INPUTS = {"c3": ("septic", 0.0), "c4": ("septic", 0.0), "tau_l": ("hybrid", None),
                 "tau_s": ("hybrid", None)}


@dataclass
class ProtocolParams:
    """Declarative protocol request: a family and its inputs.

    ``family=None`` is a request that has no family yet; ``build`` refuses
    it.  Durations are dimensionless.  ``t_f`` sets the duration of every
    family, except that bang_bang may instead be given both step
    frequencies ``omega1``/``omega2`` and bang_bang_na its stopping
    frequency ``beta``, from which the duration follows.  ``c3``/``c4``
    shape septic (ValueError here if one is not finite); ``tau_l``/``tau_s``
    are hybrid's caps (each defaults to t_f/10).
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
        for name in ("c3", "c4"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite (got {getattr(self, name)!r})")


def build(spec: TrapSpec, params: ProtocolParams) -> ProtocolBundle:
    """The protocol of a request: the one family dispatch and the only
    constructor of a ``ProtocolBundle``.

    A designed family's t_f goes through ``_check_scale`` (the septic's with
    gamma + |c3| + |c4|, which bounds its |b|, in gamma's place), then to
    the family's maker; a two-step family's duration follows from its step
    inputs (``bang_bang_times``) or is solved for (``two_step_times``).  Raises ValueError for a request without a
    family, for step inputs other than the family's own, for step inputs
    together with t_f, for a bad t_f, for another family's shape inputs
    and for a gamma or t_f at which the closed form overflows; the makers'
    own ValueError and Infeasible pass through, except that a two-step
    bundle for a given t_f refuses its ValueError as Infeasible, and one
    for a given beta names beta and its value in its ValueError.
    """
    fam, t_f = params.family, params.t_f
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
    if fam in _DESIGNED:
        size = spec.gamma + abs(params.c3) + abs(params.c4)   # c3 = c4 = 0 but in septic
        try:
            _check_scale(size, t_f)
        except ValueError as exc:
            if size == spec.gamma:
                raise
            raise ValueError(f"the septic's |b| <= gamma + |c3| + |c4| = {size:.6g} takes gamma's "
                             f"place: {exc}") from None
        return _DESIGNED[fam](spec, t_f, params)
    if not given:
        times = two_step_times(spec, fam, t_f)
        try:
            return _bang_bang_bundle(spec, times, params.grid_n)
        except ValueError as exc:  # e.g. a step too short to sample, next to t_min
            raise Infeasible(f"{_TWO_STEP_LABELS[fam]} protocol for t_f = {t_f:.12g}: {exc}") from None
    omega1, omega2 = (params.omega1, params.omega2) if fam == "bang_bang" else (0.0, params.beta)
    try:
        t1, t2 = bang_bang_times(spec, omega1, omega2)
        return _bang_bang_bundle(spec, {"t1": t1, "t2": t2, "omega1": omega1, "omega2": omega2},
                                 params.grid_n)
    except ValueError as exc:
        if fam == "bang_bang":
            raise
        # the checks name omega2, which the request calls beta
        raise ValueError(f"beta = {params.beta:.12g} (the stopping frequency omega2): {exc}") from None
