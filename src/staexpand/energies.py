"""Instantaneous and time-averaged energies, bounds, and power.

Units: energies in hbar*omega0, power in hbar*omega0^2, time dimensionless
(tau = omega0 t).  For the n-th dynamical mode, with c = (2n+1)/4,

    E(tau) = c (bdot^2 + W^2 b^2 + 1/b^2) = K + V,
    K      = c (bdot^2 + 1/b^2),
    V      = c W^2 b^2.

The time-averaged energy is the direct average of E, plus the analytic
contribution of the Dirac kicks at t = 0 and t_f when the protocol has
them.  Beside it stands the virial form

    avg_E2 = 2 <K> = 2c < 1/b^2 + bdot^2 >,

which integration by parts shows equals the average energy exactly when
the boundary slope terms vanish.  Their difference is itself a
diagnostic: it equals the boundary term -((2n+1)/(4 t_f)) [bdot b]_0^tf
for slope-violating protocols.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .core import (
    FrequencyProfile,
    GridMismatch,
    PowerUndefined,
    ScalingCurve,
    TrapSpec,
    _check_duration,
)


@dataclass
class EnergyTrace:
    """Per-node energies plus their averages and impulse bookkeeping."""

    E: np.ndarray
    K: np.ndarray
    V: np.ndarray
    Ena: np.ndarray | None = None
    avg_E: float | None = None
    avg_K: float | None = None
    avg_V: float | None = None
    avg_E2: float | None = None
    avg_Ena: float | None = None
    delta_delta: float = 0.0


def instantaneous(curve: ScalingCurve, profile: FrequencyProfile, spec: TrapSpec) -> EnergyTrace:
    """Fill E, K, V per node; impulse nodes are handled analytically elsewhere."""
    if curve.grid != profile.grid:
        raise GridMismatch("curve and profile live on different grids")
    c = (2 * spec.n + 1) / 4.0
    b = curve.b
    K = c * (curve.bdot**2 + 1.0 / b**2)
    V = c * profile.omega2 * b**2
    return EnergyTrace(E=K + V, K=K, V=V)


def impulse_contribution(curve: ScalingCurve, spec: TrapSpec) -> float:
    """Averaged-energy contribution of the endpoint Dirac kicks,
    ((2n+1)/(4 t_f)) [bdot(tf-) b(tf) - bdot(0+) b(0)]; its negative is
    the boundary term of the partially-integrated route."""
    t_f = curve.grid.t_f
    c = (2 * spec.n + 1) / 4.0
    return c / t_f * (float(curve.bdot[-1] * curve.b[-1]) - float(curve.bdot[0] * curve.b[0]))


def averages(
    trace: EnergyTrace, curve: ScalingCurve, spec: TrapSpec, profile: FrequencyProfile
) -> EnergyTrace:
    """Fill avg_E (direct route), avg_K, avg_V and the virial form
    avg_E2 = 2 avg_K.

    2.0 * avg_K has the bits of a Simpson average of 2c(1/b^2 + bdot^2):
    a power-of-two scale and a commuted add are exact.  For impulse
    protocols (profile with kicks at t = 0 and t_f) the analytic delta
    contribution is added to avg_E and avg_V; it belongs to the potential
    energy, which is what keeps the virial relation exact.
    """
    grid = curve.grid
    dd = trace.delta_delta = impulse_contribution(curve, spec)
    trace.avg_K = numerics.average(trace.K, grid)
    trace.avg_V = numerics.average(trace.V, grid)
    trace.avg_E = numerics.average(trace.E, grid)
    trace.avg_E2 = 2.0 * trace.avg_K
    if profile.impulses:
        trace.avg_E += dd
        trace.avg_V += dd
    return trace


@dataclass
class EnergyLowerBound:
    """Greatest lower bound on the averaged energy for given (spec, t_f).

    ``value`` is the exact time average of (2n+1)/2 (1/b^2 + bdot^2) over
    the quasi-optimal curve, from the asinh closed form valid for every
    t_f > 0.  ``closed_form`` evaluates the printed arctanh expression,
    which is only real when both arguments sit inside (-1, 1); outside
    that range, or where it is not finite (as where t_f^2 underflows,
    for t_f below ~1e-154), it is reported as invalid rather than patched.
    """

    value: float
    closed_form: float | None
    closed_form_valid: bool


def lower_bound_avg_energy(spec: TrapSpec, t_f: float) -> EnergyLowerBound:
    """Exact E_nL, plus the printed closed form where its arctanh
    arguments are in range.

    On the quasi-optimal curve b^2 = A s^2 + 2 B s + 1 (s = t/t_f) with
    B^2 - A = t_f^2, bdot^2 = A/t_f^2 + 1/b^2 and the integral of 1/b^2
    over s in [0, 1] is asinh(t_f/gamma)/t_f, so with r = hypot(gamma, t_f)

        E_nL = (2n+1)/2 [((gamma-1)/t_f)^2 - 2/(gamma+r) + 2 asinh(t_f/gamma)/t_f],

    where A = (gamma-1)^2 - 2 t_f^2/(gamma+r) is written without
    cancellation.  No grid enters: the value is the same for every grid
    the caller samples its protocols on.
    """
    _check_duration(t_f)
    g = spec.gamma
    c2 = (2 * spec.n + 1) / 2.0
    r = math.hypot(g, t_f)
    d = (g - 1.0) / t_f  # d * d, not d**2: inf rather than OverflowError for t_f -> 0
    value = c2 * (d * d - 2.0 / (g + r) + 2.0 * math.asinh(t_f / g) / t_f)

    try:
        R = math.sqrt(t_f**2 + g**2)
    except OverflowError:   # t_f^2 overflows above ~1.34e154, where B/t_f rounds to 1: invalid
        return EnergyLowerBound(value, None, False)
    # B = R - 1; B^2 - t_f^2 = gamma^2 + 1 - 2R, free of the cancellation of the difference
    B, b2mt2 = R - 1.0, g**2 + 1.0 - 2.0 * R
    a1 = (b2mt2 + B) / t_f
    a2 = B / t_f
    closed = None
    if max(abs(a1), abs(a2)) < 1.0 and t_f**2 > 0.0:   # t_f^2 underflows to 0 below ~1.5e-162
        closed = c2 / t_f**2 * (b2mt2 - 2.0 * t_f * (math.atanh(a1) - math.atanh(a2)))
    valid = closed is not None and math.isfinite(closed)   # inf * 0 where t_f^2 is subnormal
    return EnergyLowerBound(value, closed if valid else None, valid)


def _per_tf2(num: float, den: float, t_f: float) -> float:
    """num / (den t_f^2) for t_f > 0; where den t_f^2 overflows (t_f above
    ~1.34e154, or ~6.7e153 for den = 4) or underflows to 0 (t_f below
    ~1e-162), num / den / t_f / t_f, which is finite, 0 or inf, never a
    division by zero."""
    try:
        den_tf2 = den * t_f**2
    except OverflowError:
        den_tf2 = math.inf
    return num / den_tf2 if 0.0 < den_tf2 < math.inf else num / den / t_f / t_f


def na_lower_bound(spec: TrapSpec, t_f: float) -> float:
    """Ground-state bound on the averaged non-adiabatic energy:
    (gamma-1)^2 / (4 t_f^2) in units of hbar*omega0."""
    return _per_tf2((spec.gamma - 1.0) ** 2, 4.0, t_f)


def _check_ground_state(spec: TrapSpec) -> None:
    if spec.n != 0:
        raise ValueError("non-adiabatic energy is defined here for the ground state only")


def _ena(b, bdot, omega2, omega, out=None):
    """Ground-state excess over the adiabatic energy, per node:
    (bdot^2 + W^2 b^2 + 1/b^2)/4 - W/2, into ``out`` when given (it must
    not be ``omega``)."""
    b2 = np.square(b)
    term = np.multiply(omega2, b2)
    out = np.square(bdot, out=out)
    np.add(out, term, out=out)
    np.add(out, np.divide(1.0, b2, out=b2), out=out)
    np.multiply(out, 0.25, out=out)
    return np.subtract(out, np.multiply(omega, 0.5, out=term), out=out)


def nonadiabatic_energy(
    curve: ScalingCurve, profile: FrequencyProfile, spec: TrapSpec
) -> tuple[np.ndarray, float, float]:
    """Ground-state energy excess over the adiabatic reference, per node,
    plus its average by the direct and the partially-integrated routes.

    Requires a real frequency (W^2 >= 0 up to round-off) and n = 0; the
    trace is (bdot^2 + (W b - 1/b)^2)/4, manifestly non-negative.
    """
    _check_ground_state(spec)
    if curve.grid != profile.grid:
        raise GridMismatch("curve and profile live on different grids")
    omega = profile.omega()  # raises NonRealFrequency when W^2 < -1e-12
    b = curve.b
    ena = _ena(b, curve.bdot, profile.omega2, omega)
    avg = numerics.average(ena, curve.grid)
    avg2 = numerics.average(0.5 * (curve.bdot**2 + 1.0 / b**2 - omega), curve.grid)
    return ena, avg, avg2


@dataclass
class PowerTrace:
    """Sampled relative power P/C within smooth segments (see ``power``),
    plus analytic step terms.

    ``steps`` lists (time, energy jump) for every nonzero jump of W^2: from
    1 to W^2(0+) at t = 0, across each interior joint, and from W^2(t_f-)
    to (omega_f/omega0)^2 at t_f.  No jump is dropped as round-off, since
    near gamma = 1 the jumps carry the whole energy change.  ``integral``
    includes them, so it matches the total energy change
    (n+1/2)(omega_f/omega0 - 1) for every complete protocol.
    """

    P_rel: np.ndarray
    steps: tuple[tuple[float, float], ...]
    integral: float
    peak_rel: float


def _energy_change(spec: TrapSpec) -> float:
    """Total energy change (n+1/2)(omega_f/omega0 - 1) of a complete
    expansion; PowerUndefined at gamma = 1, where it is 0 and cannot
    normalize the relative power."""
    expected = (spec.n + 0.5) * (spec.omega_f_rel - 1.0)
    if expected == 0.0:
        raise PowerUndefined("relative power needs an energy change; gamma = 1 has none")
    return expected


def _power_samples(spec: TrapSpec, domega2, b):
    """P = ((2n+1)/4) d(W^2)/dtau b^2, per node."""
    return domega2 * ((2 * spec.n + 1) / 4.0) * np.square(b)


def power(curve: ScalingCurve, profile: FrequencyProfile, spec: TrapSpec) -> PowerTrace:
    """P = ((2n+1)/4) d(W^2)/dtau b^2, and the mode-independent relative
    power P_rel = P / C where C = (n+1/2)(omega_f/omega0 - 1)/t_f spreads
    the total energy change uniformly over the protocol.

    Impulse protocols are refused: the kick makes the power a squared
    delta.  So is gamma = 1, where the normalizing energy change C is 0.
    d(W^2)/dtau is ``profile.domega2``, the slope the curve's bdddot gives.
    """
    if profile.impulses:
        raise PowerUndefined("power is not a function for protocols with Dirac kicks")
    expected = _energy_change(spec)
    if curve.grid != profile.grid:
        raise GridMismatch("curve and profile live on different grids")
    grid = curve.grid
    c = (2 * spec.n + 1) / 4.0
    P = _power_samples(spec, profile.domega2, curve.b)

    steps: list[tuple[float, float]] = []
    if profile.omega2[0] != 1.0:
        steps.append((0.0, c * (profile.omega2[0] - 1.0) * float(curve.b[0]) ** 2))
    for (lo0, hi0), (lo1, hi1) in zip(grid.pieces[:-1], grid.pieces[1:]):
        jump = profile.omega2[lo1] - profile.omega2[hi0]
        if jump != 0.0:
            steps.append((float(grid.nodes[hi0]), c * jump * float(curve.b[hi0]) ** 2))
    wf2 = spec.omega_f_rel**2
    if profile.omega2[-1] != wf2:
        steps.append((grid.t_f, c * (wf2 - profile.omega2[-1]) * float(curve.b[-1]) ** 2))

    integral = numerics.integrate(P, grid) + sum(s for _, s in steps)
    C = expected / grid.t_f
    P_rel = P / C
    return PowerTrace(P_rel, tuple(steps), integral, float(np.max(np.abs(P_rel))))


def bang_bang_energies(spec: TrapSpec, omega1: float, omega2: float, t1: float, t2: float) -> float:
    """Averaged energy (t1 e1 + t2 e2)/(t1 + t2) of a two-step protocol: the
    total energy is constant within each constant-frequency interval,
    e1 = ((n+1/2)/2)(1 - W1^2) on (0, t1) and e2 = ((n+1/2)/2)(Wf^2 + W2^2)/Wf
    on (t1, t_f), in units of hbar*omega0."""
    half = spec.n + 0.5
    wf = spec.omega_f_rel
    e1 = 0.5 * half * (1.0 - omega1**2)
    e2 = 0.5 * half * (wf**2 + omega2**2) / wf
    return (t1 * e1 + t2 * e2) / (t1 + t2)


@dataclass
class BoundReport:
    """Every closed-form bound evaluated for one (spec, t_f).

    Asymptotic reference values are included as plain numbers so sweep
    output can report how close a regime sits to its limiting law.
    """

    E_nL: EnergyLowerBound
    Ena_L: float
    tf_max: float                  # pi*gamma/2, dimensionless
    E_min: float                   # (2n+1)(1 + omega_f/omega0)/4 at the extreme
    E_nL_small_tf: float           # (2n+1) gamma^2 / (2 t_f^2)
    free_expansion_tf: float       # gamma
    free_expansion_avg_E: float    # n + 1/2


def bound_report(spec: TrapSpec, t_f: float) -> BoundReport:
    g = spec.gamma
    wf = spec.omega_f_rel
    tn = 2 * spec.n + 1
    return BoundReport(
        E_nL=lower_bound_avg_energy(spec, t_f),
        Ena_L=na_lower_bound(spec, t_f),
        tf_max=math.pi * g / 2.0,
        E_min=tn * (1.0 + wf) / 4.0,
        E_nL_small_tf=_per_tf2(tn * g**2, 2.0, t_f),
        free_expansion_tf=g,
        free_expansion_avg_E=spec.n + 0.5,
    )


def full_trace(curve: ScalingCurve, profile: FrequencyProfile, spec: TrapSpec) -> EnergyTrace:
    """Instantaneous energies and their averages, with the non-adiabatic
    trace attached where it is defined (n = 0 and a real frequency)."""
    trace = averages(instantaneous(curve, profile, spec), curve, spec, profile)
    if spec.n == 0 and not profile.has_imaginary:
        trace.Ena, trace.avg_Ena, _ = nonadiabatic_energy(curve, profile, spec)
    return trace
