"""Quantitative self-checks: every headline identity, bound, and limit.

Each check returns a CheckResult with the measured worst case and its
tolerance, so the report reads as evidence rather than a bare verdict.
``run_all`` drives the CLI ``verify`` subcommand; the test suite asserts
the same registry one check at a time.

One check is expected to fail and is kept honest rather than loosened:
``bang_bang_log_asymptote`` pins the steep-equal-steps scaling law
avg_E ~ (2n+1) pi ln(2 gamma) / (16 omega_f t_f^2) to +-5% at gamma = 100,
but the law is only logarithmically accurate: the exact ratio tends to
(ln(sqrt(2) gamma) + pi/4) / ln(2 gamma) = 1.082 at gamma = 100 and
approaches 1 only as gamma grows beyond ~3000.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import energies, ermakov, optimize, protocols
from .core import DEFAULT_GRID_N, Infeasible, TrapSpec

_P = protocols.ProtocolParams
_SEPTIC_REF = (78.5088, -459.7638)  # published power-shaping coefficients (c3, c4)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    tolerance: str


def _result(name: str, passed: bool, measured: str, tolerance: str) -> CheckResult:
    return CheckResult(name, bool(passed), measured, tolerance)


def _criterion1_protocols(t_f: float, n: int) -> list[tuple[str, protocols.ProtocolParams]]:
    """(tag, request) rows of the smooth complete protocols at one duration."""
    cap = 0.1 * t_f
    return [
        (f"quintic tf={t_f}", _P("quintic", t_f, grid_n=n)),
        (f"septic(0,0) tf={t_f}", _P("septic", t_f, 0.0, 0.0, grid_n=n)),
        (f"septic(78.5088,-459.7638) tf={t_f}", _P("septic", t_f, *_SEPTIC_REF, grid_n=n)),
        (f"hybrid(0.1,0.1) tf={t_f}", _P("hybrid", t_f, tau_l=cap, tau_s=cap, grid_n=n)),
    ]


def check_virial_equipartition(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """avg_K = avg_V = avg_E/2 for every protocol with vanishing boundary
    slopes, impulse protocols counting their kick contribution as potential."""
    spec = TrapSpec.from_gamma(10.0)
    worst = 0.0
    worst_tag = ""
    cases = []
    for t_f in (0.1, 1.0, 10.0, 25.0):
        cases += _criterion1_protocols(t_f, n_grid)
        cases.append((f"dirac tf={t_f}", _P("dirac", t_f, grid_n=n_grid)))
    # the equal-step duration is derived, not chosen
    t_bb = sum(protocols.bang_bang_times(spec, 1.0, 1.0))
    bb = _P("bang_bang", omega1=1.0, omega2=1.0, grid_n=n_grid)
    cases.append((f"bang_bang(1,1) tf={t_bb:.3f}", bb))
    for tag, params in cases:
        b = protocols.build(spec, params)
        inst = energies.instantaneous(b.curve, b.profile, spec)
        tr = energies.averages(inst, b.curve, spec, b.profile)
        ratio = abs(tr.avg_K - tr.avg_V) / tr.avg_E
        if ratio > worst:
            worst, worst_tag = ratio, tag
    return _result(
        "virial_equipartition",
        worst < 1e-6,
        f"worst |K-V|/E = {worst:.3e} ({worst_tag})",
        "< 1e-6",
    )


def check_impulse_equality_chain(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """For the impulse protocol the direct average plus the kick term, the
    partially-integrated average, and the exact bound all coincide."""
    spec = TrapSpec.from_gamma(10.0)
    worst = 0.0
    for t_f in (0.3, 1.0, 3.0):
        b = protocols.build(spec, _P("dirac", t_f, grid_n=n_grid))
        inst = energies.instantaneous(b.curve, b.profile, spec)
        tr = energies.averages(inst, b.curve, spec, b.profile)
        bound = energies.lower_bound_avg_energy(spec, t_f).value
        vals = (tr.avg_E, tr.avg_E2, bound)
        scale = max(abs(v) for v in vals)
        spread = (max(vals) - min(vals)) / scale
        worst = max(worst, spread)
    return _result(
        "impulse_equality_chain",
        worst < 1e-6,
        f"worst pairwise relative spread = {worst:.3e}",
        "< 1e-6",
    )


def check_impulse_energy_share(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """Fast strong expansions pay half the averaged energy in the kicks."""
    spec = TrapSpec.from_gamma(100.0)
    b = protocols.build(spec, _P("dirac", 1e-3, grid_n=n_grid))
    inst = energies.instantaneous(b.curve, b.profile, spec)
    tr = energies.averages(inst, b.curve, spec, b.profile)
    share = tr.delta_delta / tr.avg_E
    return _result(
        "impulse_energy_share",
        0.49 <= share <= 0.51,
        f"delta share = {share:.6f}",
        "in [0.49, 0.51]",
    )


def check_lower_bound_small_tf(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """E_nL -> (2n+1)/(2 omega_f t_f^2) for fast strong expansions."""
    t_f = 1e-3
    worst = 0.0
    for n in (0, 3):
        spec = TrapSpec.from_gamma(100.0, n=n)
        e = energies.lower_bound_avg_energy(spec, t_f).value
        ratio = e * 2.0 * spec.omega_f_rel * t_f**2 / (2 * n + 1)
        worst = max(worst, abs(ratio - 1.0))
    return _result(
        "lower_bound_small_tf",
        worst <= 0.02,
        f"worst |ratio - 1| = {worst:.4f}",
        "ratio in [0.98, 1.02]",
    )


def check_bang_bang_extremes(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """At omega2 = sqrt(omega0 omega_f): t1 = 0, t_f = pi gamma/2, and the
    averaged energy reaches its minimum (1 + omega_f/omega0)/4 (n = 0)."""
    spec = TrapSpec.from_gamma(10.0)
    w = math.sqrt(spec.omega_f_rel)
    bb = protocols.bang_bang(spec, w, w, n_grid)
    e = energies.bang_bang_energies(spec, w, w, bb.t1, bb.t2)
    si = TrapSpec(2.0 * math.pi * 2500.0, 2.0 * math.pi * 25.0)
    tf_si = math.pi / (2.0 * math.sqrt(si.omega0 * si.omega_f))
    ok = (
        bb.t1 < 1e-12
        and abs(bb.t_f - 5.0 * math.pi) < 1e-9
        and abs(e.avg_E - 0.2525) < 1e-12
        and abs(tf_si - 1e-3) < 1e-9
    )
    return _result(
        "bang_bang_extremes",
        ok,
        f"t1 = {bb.t1:.2e}, t_f - 5pi = {bb.t_f - 5*math.pi:.2e}, "
        f"avg_E - 0.2525 = {e.avg_E - 0.2525:.2e}, t_f(SI) - 1 ms = {tf_si - 1e-3:.2e} s",
        "t1 < 1e-12, |t_f - 5pi| < 1e-9, |avg_E - 0.2525| < 1e-12, |t_f - 1 ms| < 1e-9 s",
    )


def check_bang_bang_log_asymptote(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """Steep equal steps: avg_E vs (2n+1) pi ln(2 gamma)/(16 omega_f t_f^2).

    Expected to FAIL at the pinned +-5%: the law is log-level only, and the
    exact ratio is (ln(sqrt(2) gamma) + pi/4)/ln(2 gamma) = 1.082 at
    gamma = 100 (see the module docstring).  Kept honest rather than tuned.
    """
    spec = TrapSpec.from_gamma(100.0)
    w = 1000.0
    t1, t2 = protocols.bang_bang_times(spec, w, w)
    e = energies.bang_bang_energies(spec, w, w, t1, t2)
    ratio = e.avg_E * 16.0 * spec.omega_f_rel * e.t_f**2 / (
        (2 * spec.n + 1) * math.pi * math.log(2.0 * spec.gamma)
    )
    return _result(
        "bang_bang_log_asymptote",
        0.95 <= ratio <= 1.05,
        f"ratio = {ratio:.6f}",
        "in [0.95, 1.05]",
    )


def check_free_expansion_limit(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """omega1 = 0, steep stop: t_f -> 1/sqrt(omega0 omega_f) and
    avg_E -> (n + 1/2)."""
    spec = TrapSpec.from_gamma(100.0)
    beta = 1000.0
    t1, t2 = protocols.bang_bang_times(spec, 0.0, beta)
    e = energies.bang_bang_energies(spec, 0.0, beta, t1, t2)
    tf_ratio = e.t_f / spec.gamma
    avg_ratio = e.avg_E / (spec.n + 0.5)
    ok = 0.95 <= tf_ratio <= 1.05 and 0.95 <= avg_ratio <= 1.05
    return _result(
        "free_expansion_limit",
        ok,
        f"t_f/gamma = {tf_ratio:.6f}, avg_E/(n+1/2) = {avg_ratio:.6f}",
        "both in [0.95, 1.05]",
    )


def na_feasibility_threshold(
    spec: TrapSpec, lo: float = 100.0, hi: float = 400.0, n_grid: int = 501
) -> float:
    """Smallest duration (by bisection) at which the seeded cap search
    finds a real-frequency protocol.

    The predicate is seed feasibility (``optimize.best_cap_seed``): by
    construction, ``optimize_caps`` raises Infeasible exactly where it does."""

    def feasible(t_f: float) -> bool:
        try:
            optimize.best_cap_seed(spec, t_f, n_grid)
            return True
        except Infeasible:
            return False

    if feasible(lo):
        return lo
    if not feasible(hi):
        raise Infeasible(f"no feasible duration found in [{lo}, {hi}]")
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def check_na_bound_sweep(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """The averaged non-adiabatic energy respects its bound across the
    sweep; the optimized cap protocol lands within a factor 2 of the bound
    at the slowest point."""
    spec = TrapSpec.from_gamma(10.0)
    thr = na_feasibility_threshold(spec)
    worst_margin = math.inf
    hybrid_ratios = []
    for t_f in np.geomspace(1.02 * thr, 600.0, 20):
        res = optimize.optimize_caps(spec, float(t_f), n_grid)
        bound = energies.na_lower_bound(spec, float(t_f))
        worst_margin = min(worst_margin, res.objective / bound - 1.0)
        hybrid_ratios.append(res.objective / bound)
    t_lo = math.sqrt(spec.gamma**2 - 1.0) * 1.001
    t_hi = protocols.bang_bang_max_duration(spec) * 0.999
    for t_f in np.geomspace(t_lo, t_hi, 20):
        bb = protocols.bang_bang_na_for_duration(spec, float(t_f), n_grid)
        _, avg, _ = energies.nonadiabatic_energy(bb.curve, bb.profile, spec)
        bound = energies.na_lower_bound(spec, bb.t_f)
        worst_margin = min(worst_margin, avg / bound - 1.0)
    ok = worst_margin >= -1e-6 and hybrid_ratios[-1] <= 2.0
    return _result(
        "na_bound_sweep",
        ok,
        f"worst avg/bound - 1 = {worst_margin:.3e}, "
        f"slowest-point hybrid avg/bound = {hybrid_ratios[-1]:.3f} "
        f"(threshold t_f ~ {thr:.1f})",
        "avg >= bound*(1 - 1e-6); final hybrid ratio <= 2",
    )


def check_free_expansion_matching(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """omega1 = 0, beta = 1, gamma = 10: switching times 9.9 and
    arcsin(sqrt(99/9999)) ~ 0.099674, and the curve closes on (gamma, 0)."""
    spec = TrapSpec.from_gamma(10.0)
    bb = protocols.bang_bang_na(spec, 1.0, n_grid)
    ok = (
        abs(bb.t1 - 9.9) < 1e-10
        and abs(bb.t2 - 0.099674) < 1e-5
        and abs(float(bb.curve.b[-1]) - spec.gamma) < 1e-8
        and abs(float(bb.curve.bdot[-1])) < 1e-8
    )
    return _result(
        "free_expansion_matching",
        ok,
        f"t1 - 9.9 = {bb.t1 - 9.9:.2e}, t2 = {bb.t2:.8f}, "
        f"b(t_f) - gamma = {float(bb.curve.b[-1]) - spec.gamma:.2e}, "
        f"bdot(t_f) = {float(bb.curve.bdot[-1]):.2e}",
        "|t1 - 9.9| < 1e-10, |t2 - 0.099674| < 1e-5, closure < 1e-8",
    )


def check_power_integral_roundtrip(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """Total power integral equals the energy change (n+1/2)(omega_f -
    omega0) for the polynomial protocols, and forward-solving the
    inverse-engineered control reproduces the quintic curve."""
    worst = 0.0
    for n in (0, 2):
        spec = TrapSpec.from_gamma(10.0, n=n)
        expected = -0.495 * (2 * n + 1)
        for params in (
            _P("quintic", 25.0, grid_n=n_grid),
            _P("septic", 25.0, 0.0, 0.0, grid_n=n_grid),
            _P("septic", 25.0, *_SEPTIC_REF, grid_n=n_grid),
        ):
            b = protocols.build(spec, params)
            pw = energies.power(b.curve, b.profile, spec)
            worst = max(worst, abs(pw.integral - expected) / abs(expected))
    q = protocols.build(TrapSpec.from_gamma(10.0), _P("quintic", 25.0, grid_n=n_grid))
    redone = ermakov.forward_solve(q.profile)
    rt_err = float(np.max(np.abs(redone.b - q.curve.b)))
    ok = worst < 1e-6 and rt_err < 1e-6
    return _result(
        "power_integral_roundtrip",
        ok,
        f"worst integral rel err = {worst:.3e}, roundtrip max |db| = {rt_err:.3e}",
        "both < 1e-6",
    )


def check_power_peak_optimization(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """With the published trap settings (2500 Hz -> 25 Hz, 8 ms), the
    optimized two-parameter interpolant flattens the power peak below the
    quintic's, never below the mean-value floor of 1."""
    spec = TrapSpec(2.0 * math.pi * 2500.0, 2.0 * math.pi * 25.0)
    t_f = spec.omega0 * 8e-3
    q = protocols.build(spec, _P("quintic", t_f, grid_n=4001))
    q_peak = energies.power(q.curve, q.profile, spec).peak_rel
    res = optimize.optimize_septic_power(spec, t_f)
    ref = protocols.build(spec, _P("septic", t_f, *_SEPTIC_REF, grid_n=4001))
    ref_peak = energies.power(ref.curve, ref.profile, spec).peak_rel
    ok = res.objective <= q_peak and res.objective >= 1.0 and ref_peak <= q_peak
    return _result(
        "power_peak_optimization",
        ok,
        f"optimized peak = {res.objective:.4f} at (c3, c4) = "
        f"({res.params[0]:.4f}, {res.params[1]:.4f}); quintic peak = {q_peak:.4f}; "
        f"reference-coefficient peak = {ref_peak:.4f}",
        "optimized <= quintic, optimized >= 1, reference <= quintic",
    )


def check_minimal_work_positivity(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """For every real-frequency protocol the ground-state energy never
    drops below the adiabatic reference, and frequency-continuous
    protocols start and end exactly on it."""
    spec = TrapSpec.from_gamma(10.0)
    caps = optimize.optimize_caps(spec, 250.0, n_grid).params
    rows = [
        (f"{fam} tf={t_f}", _P(fam, t_f, grid_n=n_grid))
        for t_f in (40.0, 100.0)
        for fam in ("quintic", "septic")
    ]
    rows += [
        ("septic(ref) tf=200", _P("septic", 200.0, *_SEPTIC_REF, grid_n=n_grid)),
        ("hybrid tf=250", _P("hybrid", 250.0, tau_l=caps[0], tau_s=caps[1], grid_n=n_grid)),
    ]
    rows += [(f"na_bang_bang beta={beta}", _P("bang_bang_na", beta=beta, grid_n=n_grid))
             for beta in (0.5, 1.0, 2.0)]
    rows += [(f"linear tf={t_f}", _P("linear_bottom", t_f, grid_n=n_grid)) for t_f in (1.0, 10.0)]

    admissible = 0
    worst_min = math.inf
    worst_end = 0.0
    for tag, params in rows:
        b = protocols.build(spec, params)
        if b.profile.has_imaginary:
            continue  # non-adiabatic energy undefined here
        admissible += 1
        ena, _, _ = energies.nonadiabatic_energy(b.curve, b.profile, spec)
        worst_min = min(worst_min, float(np.min(ena)))
        if params.family in ("quintic", "septic"):  # frequency continuous at both ends
            worst_end = max(worst_end, abs(float(ena[0])), abs(float(ena[-1])))
    ok = admissible >= 6 and worst_min >= -1e-9 and worst_end < 1e-9
    return _result(
        "minimal_work_positivity",
        ok,
        f"{admissible} admissible protocols; min Ena = {worst_min:.2e}; "
        f"worst endpoint |Ena| = {worst_end:.2e}",
        "min >= -1e-9, endpoints < 1e-9 where the frequency is continuous",
    )


def check_mean_value_bounds(n_grid: int = DEFAULT_GRID_N) -> CheckResult:
    """max bdot >= (gamma-1)/t_f and max |bddot| >= 2(gamma-1)/t_f^2 for
    every complete protocol with vanishing boundary slopes."""
    spec = TrapSpec.from_gamma(10.0)
    g1 = spec.gamma - 1.0
    worst = math.inf
    worst_tag = ""
    rows = [row for t_f in (0.1, 1.0, 10.0, 25.0) for row in _criterion1_protocols(t_f, n_grid)]
    rows.append(("bang_bang(1,1)", _P("bang_bang", omega1=1.0, omega2=1.0, grid_n=n_grid)))
    for tag, params in rows:
        curve = protocols.build(spec, params).curve
        t_f = curve.grid.t_f
        m1 = float(np.max(curve.bdot)) / (g1 / t_f)
        m2 = float(np.max(np.abs(curve.bddot))) / (2.0 * g1 / t_f**2)
        m = min(m1, m2)
        if m < worst:
            worst, worst_tag = m, tag
    return _result(
        "mean_value_bounds",
        worst >= 1.0 - 1e-12,
        f"worst margin (sampled max / bound) = {worst:.6f} ({worst_tag})",
        ">= 1 (round-off only)",
    )


CHECKS: tuple[tuple[str, Callable[..., CheckResult]], ...] = (
    ("virial_equipartition", check_virial_equipartition),
    ("impulse_equality_chain", check_impulse_equality_chain),
    ("impulse_energy_share", check_impulse_energy_share),
    ("lower_bound_small_tf", check_lower_bound_small_tf),
    ("bang_bang_extremes", check_bang_bang_extremes),
    ("bang_bang_log_asymptote", check_bang_bang_log_asymptote),
    ("free_expansion_limit", check_free_expansion_limit),
    ("na_bound_sweep", check_na_bound_sweep),
    ("free_expansion_matching", check_free_expansion_matching),
    ("power_integral_roundtrip", check_power_integral_roundtrip),
    ("power_peak_optimization", check_power_peak_optimization),
    ("minimal_work_positivity", check_minimal_work_positivity),
    ("mean_value_bounds", check_mean_value_bounds),
)


def run_all(n_grid: int = DEFAULT_GRID_N) -> list[CheckResult]:
    return [fn(n_grid) for _, fn in CHECKS]
