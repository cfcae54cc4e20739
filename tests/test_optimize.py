import math

import numpy as np
import pytest

from staexpand import TrapSpec, energies, ermakov, optimize, protocols
from staexpand.core import Infeasible, PowerUndefined


@pytest.fixture
def spec():
    return TrapSpec.from_gamma(10.0)


class TestOptimizeCaps:
    def test_result_feasible_and_above_bound(self, spec):
        res = optimize.optimize_caps(spec, 300.0, n_grid=1001)
        assert res.feasible
        bound = energies.na_lower_bound(spec, 300.0)
        assert res.objective > bound          # the bound is approached, not reached
        assert res.objective < 2.0 * bound    # but not by much at slow protocols
        assert res.objective <= res.baseline

    def test_returned_caps_reproduce_objective(self, spec):
        res = optimize.optimize_caps(spec, 300.0, n_grid=1001)
        curve = protocols.hybrid_caps(spec, 300.0, *res.params, n=1001)
        profile = ermakov.inverse_engineer(curve)
        assert float(np.min(profile.omega2)) >= -1e-12
        _, avg, _ = energies.nonadiabatic_energy(curve, profile, spec)
        assert avg == pytest.approx(res.objective, rel=1e-9)

    def test_infeasible_below_threshold(self, spec):
        with pytest.raises(Infeasible):
            optimize.optimize_caps(spec, 50.0, n_grid=501)

    def test_objective_non_increasing_in_duration(self, spec):
        # allow a whisker of optimizer noise between neighbouring basins
        taus = [250.0, 350.0, 500.0]
        vals = [optimize.optimize_caps(spec, t, n_grid=1001).objective for t in taus]
        assert vals[0] * 1.02 > vals[1]
        assert vals[1] * 1.02 > vals[2]

    def test_deterministic(self, spec):
        a = optimize.optimize_caps(spec, 300.0, n_grid=501)
        b = optimize.optimize_caps(spec, 300.0, n_grid=501)
        assert a.params == b.params and a.objective == b.objective

    def test_excited_mode_rejected(self):
        with pytest.raises(ValueError):
            optimize.optimize_caps(TrapSpec.from_gamma(10.0, n=1), 300.0)


@pytest.fixture(scope="module")
def fig4():
    spec = TrapSpec(2.0 * math.pi * 2500.0, 2.0 * math.pi * 25.0)
    t_f = spec.omega0 * 8e-3
    return spec, t_f


class TestOptimizeSepticPower:

    def test_beats_quintic_and_respects_floor(self, fig4):
        spec, t_f = fig4
        quintic = protocols.quintic(spec, t_f, 4001)
        q_peak = energies.power(quintic, ermakov.inverse_engineer(quintic), spec).peak_rel
        res = optimize.optimize_septic_power(spec, t_f)
        assert res.objective <= q_peak
        assert res.objective >= 1.0
        assert res.objective <= res.baseline

    def test_reference_coefficients_also_beat_quintic(self, fig4):
        spec, t_f = fig4
        quintic = protocols.quintic(spec, t_f, 4001)
        q_peak = energies.power(quintic, ermakov.inverse_engineer(quintic), spec).peak_rel
        ref = protocols.septic(spec, t_f, 78.5088, -459.7638, 4001)
        ref_peak = energies.power(ref, ermakov.inverse_engineer(ref), spec).peak_rel
        assert ref_peak <= q_peak

    def test_lands_near_reference_basin(self, fig4):
        # not required, but the search from (0,0) does find the published basin
        spec, t_f = fig4
        res = optimize.optimize_septic_power(spec, t_f)
        ref = protocols.septic(spec, t_f, 78.5088, -459.7638, 4001)
        ref_peak = energies.power(ref, ermakov.inverse_engineer(ref), spec).peak_rel
        assert res.objective == pytest.approx(ref_peak, rel=1e-3)

    def test_deterministic(self, fig4):
        spec, t_f = fig4
        a = optimize.optimize_septic_power(spec, t_f, n_grid=801)
        b = optimize.optimize_septic_power(spec, t_f, n_grid=801)
        assert a.params == b.params and a.objective == b.objective


def _full_cap_objective(spec, t_f, tau_l, tau_s, n):
    """The cap objective through the public path: protocol, profile, energy report."""
    curve = protocols.hybrid_caps(spec, t_f, tau_l, tau_s, n)
    profile = ermakov.inverse_engineer(curve)
    if profile.has_imaginary:
        return math.inf
    return energies.nonadiabatic_energy(curve, profile, spec)[1]


def _full_septic_peak(spec, t_f, c3, c4, n):
    b = protocols.build(spec, protocols.ProtocolParams("septic", t_f, c3, c4, grid_n=n))
    return energies.power(b.curve, b.profile, spec).peak_rel


def _same_error(exc_type, full, fast):
    """Both calls raise exc_type, of the same class and with the same message."""
    with pytest.raises(exc_type) as a:
        full()
    with pytest.raises(exc_type) as b:
        fast()
    assert type(a.value) is type(b.value) and str(a.value) == str(b.value)


class TestObjectivesMatchFullPath:
    """The search objectives skip what they do not return; they must still
    return the full path's bits, so the searches take the same steps."""

    def test_cap_objective_equals_full_path(self):
        rng = np.random.default_rng(20260513)
        finite = infinite = 0
        for _ in range(150):
            gamma = float(np.exp(rng.uniform(0.0, np.log(300.0))))
            t_f = float(np.exp(rng.uniform(np.log(5.0), np.log(3000.0))))
            fl, fs = np.exp(rng.uniform(np.log(1e-3), np.log(0.7), 2))
            if fl + fs >= 0.999:
                continue
            n = int(rng.choice([301, 501, 2001]))
            spec = TrapSpec.from_gamma(gamma)
            tau_l, tau_s = float(fl * t_f), float(fs * t_f)
            fast = optimize._hybrid_avg_ena(spec, t_f, tau_l, tau_s, n)
            assert fast == _full_cap_objective(spec, t_f, tau_l, tau_s, n)
            if math.isinf(fast):
                infinite += 1
            else:
                finite += 1
        assert finite >= 20 and infinite >= 20   # both branches are exercised

    def test_cap_objective_is_inf_exactly_where_imaginary(self, spec):
        # at t_f = 100 the stopping cap turns imaginary below tau_s ~ 44.5
        for tau_s in (5.0, 40.0, 44.0, 45.0, 60.0, 90.0):
            curve = protocols.hybrid_caps(spec, 100.0, 5.0, tau_s, 501)
            imaginary = ermakov.inverse_engineer(curve).has_imaginary
            assert math.isinf(optimize._hybrid_avg_ena(spec, 100.0, 5.0, tau_s, 501)) == imaginary

    def test_cap_too_short_for_its_grid_raises_as_the_full_path(self, spec):
        for caps in ((3.0, 1e-13), (50.0, 2e-14)):
            _same_error(
                ValueError,
                lambda: _full_cap_objective(spec, 300.0, *caps, 501),
                lambda: optimize._hybrid_avg_ena(spec, 300.0, *caps, 501),
            )

    def test_cap_too_short_for_its_cubic_raises_as_the_full_path(self, spec):
        # (tau/t_f)^2 underflows to 0 (1e-300) or d/(tau/t_f)^2 overflows (1e-158)
        for caps in ((1e-300, 60.0), (3.0, 1e-300), (1e-158, 60.0)):
            _same_error(
                ValueError,
                lambda: _full_cap_objective(spec, 300.0, *caps, 501),
                lambda: optimize._hybrid_avg_ena(spec, 300.0, *caps, 501),
            )

    def test_cap_objective_refuses_an_excited_mode_as_the_full_path(self):
        excited = TrapSpec.from_gamma(10.0, n=1)
        _same_error(
            ValueError,
            lambda: _full_cap_objective(excited, 300.0, 3.0, 60.0, 301),
            lambda: optimize._hybrid_avg_ena(excited, 300.0, 3.0, 60.0, 301),
        )
        assert optimize._hybrid_avg_ena(excited, 100.0, 5.0, 5.0, 301) == math.inf

    def test_septic_evaluator_equals_full_path(self):
        rng = np.random.default_rng(20260514)
        for _ in range(40):
            spec = TrapSpec.from_gamma(float(np.exp(rng.uniform(np.log(1.01), np.log(300.0)))))
            t_f = float(np.exp(rng.uniform(np.log(1.0), np.log(500.0))))
            n = int(rng.choice([201, 801, 4001]))
            peak = optimize._septic_peak(spec, t_f, n)
            for c3, c4 in [(0.0, 0.0), *rng.uniform(-30.0, 30.0, (3, 2)).tolist()]:
                assert peak(c3, c4) == _full_septic_peak(spec, t_f, c3, c4, n)

    def test_septic_evaluator_raises_as_the_full_path(self, spec):
        # b dips below zero for a strongly negative c3
        _same_error(
            ValueError,
            lambda: _full_septic_peak(spec, 30.0, -1e4, 0.0, 201),
            lambda: optimize._septic_peak(spec, 30.0, 201)(-1e4, 0.0),
        )
        # gamma = 1 has no energy change to normalize the power by
        flat = TrapSpec.from_gamma(1.0)
        _same_error(
            PowerUndefined,
            lambda: _full_septic_peak(flat, 30.0, 0.0, 0.0, 201),
            lambda: optimize._septic_peak(flat, 30.0, 201)(0.0, 0.0),
        )


class TestSearchesPinned:
    """Both searches, bit for bit as before the objectives were trimmed."""

    def test_cap_search(self, spec):
        res = optimize.optimize_caps(spec, 300.0, 501)
        assert [x.hex() for x in res.params] == ["0x1.629a325cefbd0p+1", "0x1.ba3e1e434cb12p+7"]
        assert res.objective.hex() == "0x1.1a1801a1f0b54p-12"
        assert res.baseline.hex() == "0x1.3faebff7ab2f4p-12"
        assert (res.iterations, res.converged, res.feasible) == (75, True, True)

    def test_septic_power_search(self, fig4):
        spec, t_f = fig4
        res = optimize.optimize_septic_power(spec, t_f, 801)
        assert [x.hex() for x in res.params] == ["0x1.39c541a4781e3p+6", "-0x1.cb481dcdc06c1p+8"]
        assert res.objective.hex() == "0x1.0f0a9a3127482p+1"
        assert res.baseline.hex() == "0x1.eb5f8dcaf8ce4p+1"
        assert (res.iterations, res.converged, res.feasible) == (162, True, True)

    def test_short_cap_protocol_has_no_feasible_seed(self, spec):
        with pytest.raises(Infeasible, match="no real-frequency cap protocol found at t_f = 100"):
            optimize.best_cap_seed(spec, 100.0, 501)
