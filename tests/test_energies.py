import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from staexpand import TimeGrid, TrapSpec, energies, ermakov, numerics, protocols
from staexpand.core import FrequencyProfile, NonRealFrequency, PowerUndefined, ScalingCurve


@pytest.fixture
def spec():
    return TrapSpec.from_gamma(10.0)


def static_pair(n=201, t_f=2.0):
    grid = TimeGrid.uniform(t_f, n)
    return (
        ScalingCurve(grid, np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n)),
        FrequencyProfile(grid, np.ones(n), np.zeros(n)),
    )


def excitation_energy(curve, profile):
    """Classical excitation of the fictitious particle above the moving
    minimum of U = (W^2 b^2 + 1/b^2)/2: bdot^2/2 + U - W, twice the
    ground-state non-adiabatic energy (local reference)."""
    b, omega = curve.b, profile.omega()
    return 0.5 * curve.bdot**2 + 0.5 * (profile.omega2 * b**2 + 1.0 / b**2 - 2.0 * omega)


def trace_for(curve, profile, spec):
    return energies.averages(
        energies.instantaneous(curve, profile, spec), curve, spec, profile
    )


class TestInstantaneous:
    def test_static_ground_state_equipartition(self):
        curve, profile = static_pair()
        tr = energies.instantaneous(curve, profile, TrapSpec.from_gamma(1.0))
        assert np.allclose(tr.E, 0.5) and np.allclose(tr.K, 0.25) and np.allclose(tr.V, 0.25)

    def test_eigenstate_endpoints_frequency_continuous(self, spec):
        # quintic/septic close on instantaneous eigenstates of omega0 / omega_f
        for n in (0, 2):
            s = TrapSpec.from_gamma(10.0, n=n)
            for curve in (protocols.quintic(s, 25.0).curve, protocols.septic(s, 25.0).curve):
                tr = energies.instantaneous(curve, ermakov.inverse_engineer(curve), s)
                assert float(tr.E[0]) == pytest.approx(n + 0.5, rel=1e-12)
                assert float(tr.E[-1]) == pytest.approx((n + 0.5) * 0.01, rel=1e-9)

    def test_e_equals_k_plus_v(self, spec):
        curve = protocols.quintic(spec, 3.0).curve
        tr = energies.instantaneous(curve, ermakov.inverse_engineer(curve), spec)
        assert np.array_equal(tr.E, tr.K + tr.V)

    def test_negative_potential_in_fast_protocols(self, spec):
        curve = protocols.quintic(spec, 1.0).curve
        tr = energies.instantaneous(curve, ermakov.inverse_engineer(curve), spec)
        assert float(np.min(tr.V)) < 0.0
        assert float(np.min(tr.K)) >= 0.0


class TestAverages:
    def test_static_average_exact(self):
        curve, profile = static_pair()
        s = TrapSpec.from_gamma(1.0, n=3)
        tr = trace_for(curve, profile, s)
        assert tr.avg_E == pytest.approx(3.5, rel=1e-14)

    @pytest.mark.parametrize("tf", [0.5, 5.0, 50.0])
    def test_virial_quintic(self, spec, tf):
        curve = protocols.quintic(spec, tf).curve
        tr = trace_for(curve, ermakov.inverse_engineer(curve), spec)
        assert abs(tr.avg_K - tr.avg_V) / tr.avg_E < 1e-6

    def test_avg_v_positive_despite_negative_stretches(self, spec):
        curve = protocols.quintic(spec, 1.0).curve
        tr = trace_for(curve, ermakov.inverse_engineer(curve), spec)
        assert float(np.min(tr.V)) < 0.0
        assert tr.avg_V > 0.0

    def test_linear_bottom_route_discrepancy_is_boundary_term(self, spec):
        bundle = protocols.linear_bottom(spec, 1.0)
        c, p = bundle.curve, bundle.profile
        tr = trace_for(c, p, spec)
        assert tr.avg_E != pytest.approx(tr.avg_E2, rel=1e-3)
        assert tr.avg_E - tr.avg_E2 == pytest.approx(-tr.delta_delta, rel=1e-9)

    @pytest.mark.parametrize("family", ["quintic", "hybrid", "dirac", "linear_bottom", "bang_bang"])
    @pytest.mark.parametrize("mode", [0, 3])
    def test_virial_form_is_the_simpson_average_bit_for_bit(self, family, mode):
        spec = TrapSpec.from_gamma(7.0, n=mode)
        kw = {"omega1": 1.0, "omega2": 1.0} if family == "bang_bang" else {"t_f": 4.0}
        bundle = protocols.build(spec, protocols.ProtocolParams(family=family, grid_n=401, **kw))
        c, b, bdot = (2 * mode + 1) / 4.0, bundle.curve.b, bundle.curve.bdot
        tr = trace_for(bundle.curve, bundle.profile, spec)
        assert tr.avg_E2 == numerics.average(2.0 * c * (1.0 / b**2 + bdot**2), bundle.curve.grid)

    def test_energy_change_matches_eigenvalues(self, spec):
        curve = protocols.quintic(spec, 25.0).curve
        tr = energies.instantaneous(curve, ermakov.inverse_engineer(curve), spec)
        assert float(tr.E[-1] - tr.E[0]) == pytest.approx(0.5 * (0.01 - 1.0), rel=1e-9)


class TestImpulseContribution:
    def test_quasi_optimal_value(self, spec):
        # ((2n+1)/(4 tf^2)) (B^2 - tf^2) with B = sqrt(101) - 1
        bundle = protocols.dirac_impulse(spec, 1.0)
        curve, profile = bundle.curve, bundle.profile
        dd = energies.impulse_contribution(curve, spec)
        B = math.sqrt(101.0) - 1.0
        assert dd == pytest.approx((B**2 - 1.0) / 4.0, rel=1e-12)

    def test_smooth_protocol_has_no_contribution(self, spec):
        curve = protocols.quintic(spec, 2.0).curve
        dd = energies.impulse_contribution(curve, spec)
        assert abs(dd) < 1e-12

    def test_half_share_in_fast_strong_limit(self):
        spec = TrapSpec.from_gamma(100.0)
        bundle = protocols.dirac_impulse(spec, 1e-3)
        curve, profile = bundle.curve, bundle.profile
        tr = trace_for(curve, profile, spec)
        assert tr.delta_delta / tr.avg_E == pytest.approx(0.5, abs=0.01)

    def test_equality_chain(self, spec):
        for tf in (0.3, 1.0, 3.0):
            bundle = protocols.dirac_impulse(spec, tf)
            curve, profile = bundle.curve, bundle.profile
            tr = trace_for(curve, profile, spec)
            bound = energies.lower_bound_avg_energy(spec, tf).value
            assert tr.avg_E == pytest.approx(tr.avg_E2, rel=1e-6)
            assert tr.avg_E == pytest.approx(bound, rel=1e-6)


def quad_oracle(gamma, t_f):
    """Independent E_nL (n = 0): scipy adaptive quadrature of
    (1/b^2 + bdot^2)/2 over the quasi-optimal b^2 = P(s), split at
    geometric breakpoints toward both ends, where boundary layers of
    width ~1/t_f and ~gamma^2/t_f sit."""
    B = math.sqrt(t_f**2 + gamma**2) - 1.0
    A = gamma**2 + 1.0 - 2.0 * math.sqrt(t_f**2 + gamma**2)  # B^2 - t_f^2

    def integrand(s):
        P = A * s**2 + 2.0 * B * s + 1.0
        dP = 2.0 * A * s + 2.0 * B
        return 0.5 * (1.0 / P + (dP / (2.0 * math.sqrt(P))) ** 2 / t_f**2)

    inner = [10.0**-k for k in range(8, 0, -1)]
    edges = [0.0] + inner + [1.0 - x for x in reversed(inner)] + [1.0]
    return sum(
        quad(integrand, s0, s1, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        for s0, s1 in zip(edges[:-1], edges[1:])
    )


def _bound_cases():
    # t_f on both sides of (gamma^2 - 1)/2, where A = 0 and the printed
    # arctanh form becomes valid, exactly at it, and up to 1e6
    for gamma in (1.0, 1.5, 10.0, 1000.0):
        t0 = (gamma**2 - 1.0) / 2.0
        taus = {1e-3, 0.3, 2.0, 1e6} | ({0.5 * t0, t0, 2.0 * t0, 50.0 * t0} if t0 else set())
        for t_f in sorted(t for t in taus if t <= 1e6):
            yield gamma, t_f


class TestLowerBound:
    def test_against_adaptive_quadrature_oracle(self, spec):
        val = energies.lower_bound_avg_energy(spec, 1.0).value
        assert val == pytest.approx(quad_oracle(10.0, 1.0), rel=1e-10)

    def test_gamma_one_against_oracle(self):
        # gamma = 1 still bows outward (the flat curve is not stationary)
        val = energies.lower_bound_avg_energy(TrapSpec.from_gamma(1.0), 1.0).value
        assert val == pytest.approx(quad_oracle(1.0, 1.0), rel=1e-10)
        assert val < 0.5  # strictly below the static ground-state energy

    @pytest.mark.parametrize("gamma, t_f", list(_bound_cases()))
    def test_matches_quadrature_oracle_in_every_regime(self, gamma, t_f):
        lb = energies.lower_bound_avg_energy(TrapSpec.from_gamma(gamma), t_f)
        assert lb.value == pytest.approx(quad_oracle(gamma, t_f), rel=1e-10)
        if lb.closed_form_valid:
            # the printed arctanh form cancels for gamma -> 1 at small t_f and
            # for long protocols (1.2e-10 at gamma = 1, t_f = 1e-3 here)
            assert lb.closed_form == pytest.approx(lb.value, rel=1e-9)

    @pytest.mark.parametrize("gamma", [1.5, 10.0, 1000.0])
    @pytest.mark.parametrize("t_f", [1e14, 1e15])
    def test_exact_for_very_long_protocols(self, gamma, t_f):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            g, tf = mp.mpf(gamma), mp.mpf(t_f)
            B = mp.sqrt(g**2 + tf**2) - 1
            A = B**2 - tf**2
            b2 = lambda s: A * s**2 + 2 * B * s + 1
            bdot2 = lambda s: (A * s + B) ** 2 / (b2(s) * tf**2)
            edges = [0] + [mp.mpf(10) ** -k for k in range(18, 0, -1)]
            edges += [1 - x for x in reversed(edges[1:])] + [1]
            exact = mp.quad(lambda s: (1 / b2(s) + bdot2(s)) / 2, edges)
        val = energies.lower_bound_avg_energy(TrapSpec.from_gamma(gamma), t_f).value
        assert val == pytest.approx(float(exact), rel=1e-13)

    def test_accepts_durations_the_polynomial_families_refuse(self, spec):
        # t_f^3 overflows past ~5.6e102, which only the polynomial closed forms form
        with pytest.raises(ValueError, match="overflows"):
            protocols.quintic(spec, 1e110, 101)
        vals = [energies.lower_bound_avg_energy(spec, t_f).value for t_f in (1e100, 1e110, 1e150)]
        assert all(math.isfinite(v) and v > 0.0 for v in vals)
        assert vals[0] > vals[1] > vals[2]

    def test_monotone_decreasing_in_duration(self, spec):
        taus = np.geomspace(0.01, 100.0, 25)
        vals = [energies.lower_bound_avg_energy(spec, float(t)).value for t in taus]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_tf_asymptote(self):
        for n in (0, 3):
            spec = TrapSpec.from_gamma(100.0, n=n)
            val = energies.lower_bound_avg_energy(spec, 1e-3).value
            ratio = val * 2.0 * spec.omega_f_rel * 1e-6 / (2 * n + 1)
            assert ratio == pytest.approx(1.0, abs=0.02)

    def test_closed_form_valid_and_consistent_for_slow_protocols(self, spec):
        # arctanh arguments are inside (-1, 1) only for tf > (gamma^2-1)/2
        for tf in (60.0, 200.0, 1000.0):
            lb = energies.lower_bound_avg_energy(spec, tf)
            assert lb.closed_form_valid
            assert lb.closed_form == pytest.approx(lb.value, rel=1e-12)

    def test_closed_form_flagged_invalid_for_fast_protocols(self, spec):
        lb = energies.lower_bound_avg_energy(spec, 1.0)
        assert not lb.closed_form_valid
        assert lb.closed_form is None

    @pytest.mark.parametrize("t_f", [1e-155, 1e-200])
    def test_closed_form_invalid_where_tf_squared_underflows(self, t_f):
        # at gamma = 1 both arctanh arguments are in range, but t_f^2 is
        # subnormal (the form is inf * 0) or 0 (it divides by zero)
        lb = energies.lower_bound_avg_energy(TrapSpec.from_gamma(1.0), t_f)
        assert lb == energies.EnergyLowerBound(0.5, None, False)

    def test_bounds_every_complete_protocol(self, spec):
        for tf in (0.5, 5.0, 50.0):
            bound = energies.lower_bound_avg_energy(spec, tf).value
            for curve in (
                protocols.quintic(spec, tf).curve,
                protocols.septic(spec, tf, 78.5088, -459.7638).curve,
                protocols.hybrid_caps(spec, tf, 0.1 * tf, 0.1 * tf).curve,
            ):
                tr = trace_for(curve, ermakov.inverse_engineer(curve), spec)
                assert tr.avg_E >= bound * (1.0 - 1e-6)


def test_complete_protocols_respect_exact_bound():
    """avg_E >= E_nL over log-uniform gamma in [1, 1e3], t_f in [0.1, 1e3]
    and n in {0, 2}; dirac attains the bound, so it sits at the margin."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @hyp.given(
        log_gamma=st.floats(0.0, 3.0), log_tf=st.floats(-1.0, 3.0), n=st.sampled_from([0, 2])
    )
    def check(log_gamma, log_tf, n):
        spec = TrapSpec.from_gamma(10.0**log_gamma, n=n)
        t_f = 10.0**log_tf
        bound = energies.lower_bound_avg_energy(spec, t_f).value
        curves = (
            protocols.quintic(spec, t_f).curve,
            protocols.septic(spec, t_f, 0.0, 0.0).curve,
            protocols.hybrid_caps(spec, t_f, 0.1 * t_f, 0.1 * t_f).curve,
        )
        cases = [(c, ermakov.inverse_engineer(c)) for c in curves]
        dirac = protocols.dirac_impulse(spec, t_f)
        cases.append((dirac.curve, dirac.profile))
        for curve, profile in cases:
            assert trace_for(curve, profile, spec).avg_E >= bound * (1.0 - 1e-6)

    check()


class TestNonAdiabatic:
    def test_static_zero(self):
        curve, profile = static_pair()
        ena, avg, avg2 = energies.nonadiabatic_energy(curve, profile, TrapSpec.from_gamma(1.0))
        assert np.max(np.abs(ena)) == 0.0 and avg == 0.0 and avg2 == 0.0

    def test_matches_excitation_scaling(self, spec):
        curve = protocols.quintic(spec, 50.0).curve
        profile = ermakov.inverse_engineer(curve)
        ena, _, _ = energies.nonadiabatic_energy(curve, profile, spec)
        assert np.max(np.abs(ena - 0.5 * excitation_energy(curve, profile))) < 1e-12
        assert float(np.min(ena)) >= 0.0

    def test_routes_agree_with_boundary_conditions(self, spec):
        curve = protocols.quintic(spec, 50.0).curve
        _, avg, avg2 = energies.nonadiabatic_energy(curve, ermakov.inverse_engineer(curve), spec)
        assert avg == pytest.approx(avg2, rel=1e-9)

    def test_endpoints_zero_for_frequency_continuous(self, spec):
        curve = protocols.quintic(spec, 50.0).curve
        ena, _, _ = energies.nonadiabatic_energy(curve, ermakov.inverse_engineer(curve), spec)
        assert abs(float(ena[0])) < 1e-10 and abs(float(ena[-1])) < 1e-10

    def test_linear_bottom_average(self, spec):
        bundle = protocols.linear_bottom(spec, 1.0)
        c, p = bundle.curve, bundle.profile
        _, avg, _ = energies.nonadiabatic_energy(c, p, spec)
        assert avg == pytest.approx(20.25, rel=1e-12)
        assert avg == pytest.approx(energies.na_lower_bound(spec, 1.0), rel=1e-12)

    def test_linear_bottom_constant(self, spec):
        # the potential part vanishes on the bottom track: E_ex = ((gamma-1)/tf)^2/2
        bundle = protocols.linear_bottom(spec, 1.0)
        c, p = bundle.curve, bundle.profile
        ena, _, _ = energies.nonadiabatic_energy(c, p, spec)
        assert np.max(np.abs(excitation_energy(c, p) - 40.5)) < 1e-10
        assert np.max(np.abs(ena - 20.25)) < 1e-10

    def test_hybrid_line_piece_rides_the_bound(self):
        # on hybrid_caps' middle segment bddot = 0 and W = 1/b^2, so each node's
        # Ena is Ena_L = (gamma-1)^2/(4 t_f^2) up to the rounding of the terms
        # it sums; no flat relative tolerance holds (5.2e-9 at gamma 1.5,
        # t_f 3000, where 1/b^2 is ~1e8 times Ena_L)
        eps = float(np.finfo(float).eps)
        rng = np.random.default_rng(20261019)
        cases = [(1.5, 3000.0, 0.01, 0.01, 2001), (1.0, 50.0, 0.1, 0.2, 301)]
        for _ in range(60):
            fl, fs = np.exp(rng.uniform(np.log(1e-3), np.log(0.49), 2))
            cases.append((float(np.exp(rng.uniform(0.0, np.log(300.0)))),
                           float(np.exp(rng.uniform(np.log(5.0), np.log(3000.0)))),
                           float(fl), float(fs), int(rng.choice([301, 501, 2001]))))
        for gamma, t_f, fl, fs, n in cases:
            spec = TrapSpec.from_gamma(gamma)
            bundle = protocols.hybrid_caps(spec, t_f, fl * t_f, fs * t_f, n)
            c, p = bundle.curve, bundle.profile
            lo, hi = c.grid.pieces[1]
            b, bdot, w2 = c.b[lo : hi + 1], c.bdot[lo : hi + 1], p.omega2[lo : hi + 1]
            ena = energies._ena(b, bdot, w2, np.sqrt(w2))   # the line is real even where a cap is not
            if not p.has_imaginary:
                assert np.array_equal(ena, energies.nonadiabatic_energy(c, p, spec)[0][lo : hi + 1])
            terms = bdot**2 + w2 * b**2 + 1.0 / b**2
            assert np.all(np.abs(ena - energies.na_lower_bound(spec, t_f)) <= 2.0 * eps * terms)

    def test_rejects_imaginary_and_excited(self, spec):
        curve = protocols.quintic(spec, 1.0).curve
        with pytest.raises(NonRealFrequency):
            energies.nonadiabatic_energy(curve, ermakov.inverse_engineer(curve), spec)
        s2 = TrapSpec.from_gamma(10.0, n=2)
        slow = protocols.quintic(s2, 50.0).curve
        with pytest.raises(ValueError):
            energies.nonadiabatic_energy(slow, ermakov.inverse_engineer(slow), s2)

    def test_na_bound_values(self, spec):
        assert energies.na_lower_bound(spec, 1.0) == pytest.approx(81.0 / 4.0, rel=1e-14)
        assert energies.na_lower_bound(TrapSpec.from_gamma(1.0), 1.0) == 0.0
        r = energies.na_lower_bound(TrapSpec.from_gamma(100.0), 1.0)
        assert r / (1.0 / (4.0 * 1e-4)) == pytest.approx((99.0 / 100.0) ** 2, rel=1e-12)


class TestPower:
    def test_integral_matches_energy_change(self, spec):
        curve = protocols.quintic(spec, 25.0).curve
        pw = energies.power(curve, ermakov.inverse_engineer(curve), spec)
        assert pw.integral == pytest.approx(-0.495, rel=1e-6)

    def test_mode_independent_relative_power(self):
        traces = []
        for n in (0, 5):
            s = TrapSpec.from_gamma(10.0, n=n)
            curve = protocols.quintic(s, 25.0).curve
            traces.append(energies.power(curve, ermakov.inverse_engineer(curve), s).P_rel)
        assert np.max(np.abs(traces[0] - traces[1])) < 1e-12

    def test_peak_floor(self, spec):
        for mk in (
            lambda: protocols.quintic(spec, 25.0).curve,
            lambda: protocols.septic(spec, 25.0).curve,
            lambda: protocols.septic(spec, 25.0, 78.5088, -459.7638).curve,
        ):
            curve = mk()
            pw = energies.power(curve, ermakov.inverse_engineer(curve), spec)
            assert pw.peak_rel >= 1.0

    def test_quintic_endpoint_power_is_third_derivative(self, spec):
        # d(omega^2)/dt at t=0 is -bdddot(0), so P_rel(0) = 30(gamma-1)/((1-Wf) tf^2)
        tf = 25.0
        curve = protocols.quintic(spec, tf).curve
        pw = energies.power(curve, ermakov.inverse_engineer(curve), spec)
        expected = 30.0 * 9.0 / ((1.0 - 0.01) * tf**2)
        assert float(pw.P_rel[0]) == pytest.approx(expected, rel=1e-12)

    def test_relative_power_normalization(self, spec):
        from staexpand import numerics

        curve = protocols.quintic(spec, 25.0).curve
        pw = energies.power(curve, ermakov.inverse_engineer(curve), spec)
        assert numerics.integrate(pw.P_rel, curve.grid) / 25.0 == pytest.approx(1.0, abs=1e-6)

    def test_impulse_protocol_refused(self, spec):
        bundle = protocols.dirac_impulse(spec, 1.0)
        curve, profile = bundle.curve, bundle.profile
        with pytest.raises(PowerUndefined):
            energies.power(curve, profile, spec)

    def test_no_expansion_refused(self):
        # gamma = 1 has no energy change to normalize by; this used to
        # return peak_rel = nan with a RuntimeWarning
        s = TrapSpec.from_gamma(1.0)
        curve = protocols.quintic(s, 5.0).curve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PowerUndefined, match="gamma = 1"):
                energies.power(curve, ermakov.inverse_engineer(curve), s)

    def test_step_protocols_account_jumps(self, spec):
        bb = protocols.bang_bang(spec, 1.0, 1.0)
        pw = energies.power(bb.curve, bb.profile, spec)
        assert np.max(np.abs(pw.P)) == 0.0  # constant frequency inside segments
        assert pw.integral == pytest.approx(pw.integral_expected, rel=1e-9)
        curve = protocols.hybrid_caps(spec, 25.0, 2.5, 2.5).curve
        pw = energies.power(curve, ermakov.inverse_engineer(curve), spec)
        assert len(pw.steps) == 4  # both endpoints and both cap joints
        assert pw.integral == pytest.approx(pw.integral_expected, rel=1e-6)

    def test_every_nonzero_jump_counts_near_gamma_one(self):
        # near gamma = 1 the frequency jumps are tiny yet carry the whole
        # energy change; size thresholds once dropped them (integral 0.0,
        # and a 2e-5 miss for the hybrid)
        g = 1.0 + 1.8e-10
        s = TrapSpec.from_gamma(g)
        bb = protocols.bang_bang(s, 1.0 / g, 1.0 / g)
        pw = energies.power(bb.curve, bb.profile, s)
        assert len(pw.steps) == 2
        assert pw.integral == pytest.approx(pw.integral_expected, rel=1e-9)
        s = TrapSpec.from_gamma(1.0 + 2.7e-7)
        hy = protocols.build(s, protocols.ProtocolParams("hybrid", 1000.0))
        pw = energies.power(hy.curve, hy.profile, s)
        assert len(pw.steps) == 4
        assert pw.integral == pytest.approx(pw.integral_expected, rel=1e-9)

    def test_constant_power_trajectory_is_flat(self, spec):
        curve, _ = protocols.constant_power_shoot(spec, 10.0)
        pw = energies.power(curve, ermakov.inverse_engineer(curve), spec)
        assert np.max(np.abs(pw.P_rel - 1.0)) < 1e-6


class TestBangBangEnergies:
    def test_extreme_point_average(self, spec):
        w = math.sqrt(spec.omega_f_rel)
        bb = protocols.bang_bang(spec, w, w)
        e = energies.bang_bang_energies(spec, **bb.extra)
        assert e.avg_E == pytest.approx(0.2525, abs=1e-12)

    def test_first_segment_dies_at_omega0(self, spec):
        bb = protocols.bang_bang(spec, 1.0, 1.0)
        e = energies.bang_bang_energies(spec, **bb.extra)
        assert e.e_segment1 == 0.0

    def test_segment_energies_match_trace(self, spec):
        bb = protocols.bang_bang(spec, 0.7, 2.0)
        e = energies.bang_bang_energies(spec, **bb.extra)
        tr = trace_for(bb.curve, bb.profile, spec)
        lo, hi = bb.curve.grid.pieces[0]
        assert np.max(np.abs(tr.E[lo : hi + 1] - e.e_segment1)) < 1e-9
        assert tr.avg_E == pytest.approx(e.avg_E, rel=1e-9)

    def test_log_asymptote_quality(self):
        # the steep-equal-steps law is log-level: the exact ratio at finite
        # gamma is (ln(sqrt(2) gamma) + pi/4)/ln(2 gamma), -> 1 only slowly
        vals = []
        for gamma in (1e2, 1e4, 1e6):
            spec = TrapSpec.from_gamma(gamma)
            t1, t2 = protocols.bang_bang_times(spec, 1000.0, 1000.0)
            e = energies.bang_bang_energies(spec, 1000.0, 1000.0, t1, t2)
            ratio = e.avg_E * 16.0 * spec.omega_f_rel * e.t_f**2 / (
                math.pi * math.log(2.0 * gamma)
            )
            vals.append(ratio)
        predicted = (math.log(math.sqrt(2.0) * 1e2) + math.pi / 4.0) / math.log(2e2)
        assert vals[0] == pytest.approx(predicted, abs=0.01)
        assert vals[0] > vals[1] > vals[2] > 1.0


class TestBeyondSquaredDuration:
    """Above t_f ~ 1.34e154 t_f^2 overflows; the bounds it divides stay finite."""

    @pytest.mark.parametrize("gamma", [1.5, 10.0, 1e6])
    def test_bounds_at_1e160_are_finite(self, gamma):
        spec = TrapSpec.from_gamma(gamma)
        lb = energies.lower_bound_avg_energy(spec, 1e160)
        assert math.isfinite(lb.value) and lb.value > 0.0
        assert (lb.closed_form, lb.closed_form_valid) == (None, False)
        assert energies.na_lower_bound(spec, 1e160) == pytest.approx((gamma - 1.0) ** 2 / 4e320, rel=1e-14)
        rep = energies.bound_report(spec, 1e160)
        assert rep.E_nL == lb and rep.Ena_L == energies.na_lower_bound(spec, 1e160)
        assert rep.E_nL_small_tf == pytest.approx(gamma**2 / 2e320, rel=1e-14)
        wf = spec.omega_f_rel
        bb = math.pi * math.log(2.0 * gamma) / (16.0 * wf) / 1e320
        assert rep.bb_equal_steps_avg_E == pytest.approx(bb, rel=1e-14)

    def test_values_underflow_rather_than_raise(self):
        spec = TrapSpec.from_gamma(10.0)
        rep = energies.bound_report(spec, 1e300)
        assert rep.Ena_L == rep.E_nL_small_tf == rep.bb_equal_steps_avg_E == 0.0
        assert rep.E_nL.value > 0.0

    @pytest.mark.parametrize("t_f", [1e-3, 1.0, 25.0, 1e100, 1e150, 6e153, 1.3e154])
    def test_below_the_overflow_the_values_are_unchanged(self, t_f):
        # the printed expressions, evaluated as written wherever den t_f^2 is a
        # float; where it overflows to inf (4 t_f^2 and 2 t_f^2 at 1.3e154) the
        # expression would read 0, and the values are num/den/t_f/t_f instead
        spec = TrapSpec.from_gamma(10.0, n=1)
        g, wf, tn = spec.gamma, spec.omega_f_rel, 3
        rep = energies.bound_report(spec, t_f)
        for value, num, den in (
            (energies.na_lower_bound(spec, t_f), (g - 1.0) ** 2, 4.0),
            (rep.E_nL_small_tf, tn * g**2, 2.0),
            (rep.bb_equal_steps_avg_E, tn * math.pi * math.log(2.0 * g), 16.0 * wf),
        ):
            if den * t_f**2 < math.inf:
                assert value == num / (den * t_f**2)
            else:
                assert value == num / den / t_f / t_f > 0.0

    def test_no_zero_where_den_times_t_f_squared_overflows(self):
        # 4 t_f^2 overflows from t_f ~ 6.7e153, t_f^2 itself only from ~1.34e154
        spec = TrapSpec.from_gamma(1e10)
        below, above = energies.na_lower_bound(spec, 6e153), energies.na_lower_bound(spec, 2e154)
        for t_f in (6.8e153, 1e154, 1.3e154):
            value = energies.na_lower_bound(spec, t_f)
            assert below > value > above
            assert value == pytest.approx((spec.gamma - 1.0) ** 2 / 4.0 / t_f**2, rel=1e-15)
            rep = energies.bound_report(spec, t_f)
            assert rep.Ena_L == value and rep.E_nL_small_tf > 0.0 and rep.bb_equal_steps_avg_E > 0.0


class TestBoundReport:
    def test_fields(self, spec):
        rep = energies.bound_report(spec, 1.0)
        assert rep.Ena_L == pytest.approx(20.25, rel=1e-12)
        assert rep.tf_max == pytest.approx(5.0 * math.pi, rel=1e-14)
        assert rep.E_min == pytest.approx(0.2525, rel=1e-14)
        assert rep.free_expansion_tf == pytest.approx(10.0, rel=1e-14)
        assert rep.E_nL.value > 0.0


class TestFullTrace:
    def test_attaches_na_when_defined(self, spec):
        curve = protocols.quintic(spec, 50.0).curve
        tr = energies.full_trace(curve, ermakov.inverse_engineer(curve), spec)
        assert tr.Ena is not None and tr.avg_Ena > 0.0
        assert tr.avg_E is not None

    def test_skips_na_in_imaginary_band(self, spec):
        curve = protocols.quintic(spec, 1.0).curve
        tr = energies.full_trace(curve, ermakov.inverse_engineer(curve), spec)
        assert tr.Ena is None
