import re

import pytest

from staexpand import verify

from protocol_requests import make


def test_registry_names_unique():
    names = list(verify.CHECKS)
    assert len(names) == len(set(names)) == 13


def test_registry_lists_the_checks_in_print_order():
    # each check is registered under its function's name without "check_", in definition order
    assert list(verify.CHECKS) == [
        "virial_equipartition", "impulse_equality_chain", "impulse_energy_share",
        "lower_bound_small_tf", "bang_bang_extremes", "bang_bang_log_asymptote",
        "free_expansion_limit", "na_bound_sweep", "free_expansion_matching",
        "power_integral_roundtrip", "power_peak_optimization", "minimal_work_positivity",
        "mean_value_bounds",
    ]
    assert all(verify.CHECKS[name] is getattr(verify, f"check_{name}") for name in verify.CHECKS)
    result = verify.check_impulse_energy_share()
    assert isinstance(result, verify.CheckResult) and result.name == "impulse_energy_share"


def test_virial_check_passes_on_default_grid():
    assert verify.check_virial_equipartition().passed


def test_virial_check_catches_injected_sign_error(monkeypatch):
    # mutation sanity: flip the sign of the potential average and the
    # equipartition check must fail
    real = verify.energies.averages

    def broken(trace, curve, spec, profile=None):
        trace = real(trace, curve, spec, profile)
        trace.avg_V = -trace.avg_V
        return trace

    monkeypatch.setattr(verify.energies, "averages", broken)
    assert not verify.check_virial_equipartition().passed


def test_quadrature_identities_degrade_gracefully_on_coarse_grids():
    # 51 nodes: the chain still holds to ~1e-5 even though 1e-6 fails,
    # and the order-4 solver convergence is untouched by grid choice
    from staexpand import TrapSpec, energies

    spec = TrapSpec.from_gamma(10.0)
    bundle = make(spec, "dirac", 1.0, 51)
    curve, profile = bundle.curve, bundle.profile
    tr = energies.averages(
        energies.instantaneous(curve, profile, spec), curve, spec, profile
    )
    assert tr.avg_E == pytest.approx(tr.avg_E2, rel=1e-4)


def test_threshold_detector_brackets_feasibility():
    from staexpand import TrapSpec, optimize
    from staexpand.core import Infeasible

    spec = TrapSpec.from_gamma(10.0)
    thr = verify.na_feasibility_threshold(spec, n_grid=301)
    with pytest.raises(Infeasible):
        optimize.optimize_caps(spec, thr * 0.9, n_grid=301)
    optimize.optimize_caps(spec, thr * 1.05, n_grid=301)  # should not raise


def _optimize_caps_bisection(spec, lo, hi, n_grid):
    """The threshold's bisection with the full cap search as its predicate."""
    from staexpand import optimize
    from staexpand.core import Infeasible

    def feasible(t_f):
        try:
            optimize.optimize_caps(spec, t_f, n_grid)
            return True
        except Infeasible:
            return False

    if feasible(lo):
        return lo
    assert feasible(hi)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("gamma,lo", [(3.0, 5.0), (10.0, 100.0)])
def test_threshold_equals_full_search_bisection(gamma, lo):
    from staexpand import TrapSpec

    spec = TrapSpec.from_gamma(gamma)
    thr = verify.na_feasibility_threshold(spec, lo, 400.0, 301)
    assert lo < thr < 400.0
    assert thr == _optimize_caps_bisection(spec, lo, 400.0, 301)


def test_best_cap_seed_is_where_optimize_caps_starts(monkeypatch):
    from staexpand import TrapSpec, optimize
    from staexpand.core import Infeasible

    spec = TrapSpec.from_gamma(10.0)
    seeded = []
    real = optimize.best_cap_seed

    def recording(*args):
        seeded.append(args)
        return real(*args)

    monkeypatch.setattr(optimize, "best_cap_seed", recording)
    res = optimize.optimize_caps(spec, 300.0, 301)
    best_f, best_p = optimize.best_cap_seed(spec, 300.0, 301)
    assert best_f == res.baseline
    # one seed stage, whose best seed bounds the result; Infeasible is its refusal
    assert seeded[0] == (spec, 300.0, 301) and res.objective <= res.baseline
    with pytest.raises(Infeasible) as from_search:
        optimize.optimize_caps(spec, 100.0, 301)
    assert seeded[-1] == (spec, 100.0, 301)
    with pytest.raises(Infeasible, match=f"^{re.escape(str(from_search.value))}$"):
        real(spec, 100.0, 301)
    # the best of the nine seeds, ties broken by the smaller caps
    seeds = [(fl * 300.0, fs * 300.0) for fl in (0.01, 0.05, 0.2) for fs in (0.01, 0.05, 0.2)]
    assert (best_f, best_p) == min(
        (optimize._hybrid_avg_ena(spec, 300.0, tl, ts, 301), (tl, ts)) for tl, ts in seeds
    )
