import math

import numpy as np
import pytest

from staexpand import TrapSpec, ermakov, numerics, protocols
from staexpand.core import Infeasible


@pytest.fixture
def spec():
    return TrapSpec.from_gamma(10.0)


def boundary_values(curve):
    return (
        float(curve.b[0]),
        float(curve.b[-1]),
        float(curve.bdot[0]),
        float(curve.bdot[-1]),
        float(curve.bddot[0]),
        float(curve.bddot[-1]),
    )


class TestQuintic:
    def test_boundaries(self, spec):
        c = protocols.quintic(spec, 2.0)
        b0, bf, d0, df, dd0, ddf = boundary_values(c)
        assert (b0, bf) == (1.0, 10.0)
        assert max(abs(d0), abs(df), abs(dd0), abs(ddf)) < 1e-12

    def test_midpoint_value(self, spec):
        # direct polynomial evaluation at s = 1/2: 1 + (gamma-1)/2
        c = protocols.quintic(spec, 2.0)
        assert c.fns[0].b(1.0) == pytest.approx(5.5, rel=1e-14)

    def test_no_expansion_is_flat(self):
        c = protocols.quintic(TrapSpec.from_gamma(1.0), 2.0)
        assert np.max(np.abs(c.b - 1.0)) == 0.0


class TestSeptic:
    @pytest.mark.parametrize("c3,c4", [(0.0, 0.0), (78.5088, -459.7638), (-12.5, 30.0)])
    def test_boundaries_any_coefficients(self, spec, c3, c4):
        c = protocols.septic(spec, 2.0, c3, c4)
        b0, bf, d0, df, dd0, ddf = boundary_values(c)
        assert b0 == 1.0
        assert bf == pytest.approx(10.0, abs=1e-10)
        assert max(abs(d0), abs(df), abs(dd0), abs(ddf)) < 1e-9

    def test_no_low_order_terms(self, spec):
        c = protocols.septic(spec, 2.0, 5.0, -3.0)
        assert float(c.b[0]) == 1.0
        assert float(c.bddot[0]) == 0.0


class TestQuasiOptimal:
    def test_B_value(self, spec):
        assert protocols.quasi_optimal_B(spec, 1.0) == pytest.approx(
            math.sqrt(101.0) - 1.0, rel=1e-14
        )

    def test_endpoints(self, spec):
        c = protocols.quasi_optimal(spec, 1.0)
        assert float(c.b[0]) == 1.0
        # (B+1)^2 - tf^2 = gamma^2 algebraically
        assert float(c.b[-1]) == pytest.approx(10.0, rel=1e-12)

    def test_one_sided_slopes(self, spec):
        tf = 1.0
        B = math.sqrt(101.0) - 1.0
        c = protocols.quasi_optimal(spec, tf)
        assert c.b0_plus_dot == pytest.approx(B / tf, rel=1e-12)
        assert c.bf_minus_dot == pytest.approx((B**2 + B - tf**2) / (10.0 * tf), rel=1e-12)


class TestDiracImpulse:
    def test_strengths(self, spec):
        _, profile = protocols.dirac_impulse(spec, 1.0)
        (t0, d0), (tf, df) = profile.impulses
        B = math.sqrt(101.0) - 1.0
        assert (t0, tf) == (0.0, 1.0)
        assert d0 == pytest.approx(-B, rel=1e-12)
        assert df == pytest.approx((B**2 + B - 1.0) / 100.0, rel=1e-12)

    @pytest.mark.parametrize("tf", [0.1, 1.0, 30.0, 200.0])
    def test_first_impulse_always_negative(self, spec, tf):
        _, profile = protocols.dirac_impulse(spec, tf)
        assert profile.impulses[0][1] < 0.0


class TestHybridCaps:
    def test_joint_continuity(self, spec):
        tf = 2.0
        c = protocols.hybrid_caps(spec, tf, 0.2 * tf, 0.3 * tf)
        (l0, h0), (l1, h1), (l2, h2) = c.grid.pieces
        assert abs(c.b[h0] - c.b[l1]) < 1e-12
        assert abs(c.bdot[h0] - c.bdot[l1]) < 1e-12
        assert abs(c.b[h1] - c.b[l2]) < 1e-12
        assert abs(c.bdot[h1] - c.bdot[l2]) < 1e-12

    def test_cap_boundary_conditions(self, spec):
        c = protocols.hybrid_caps(spec, 2.0, 0.2, 0.2)
        assert float(c.b[0]) == 1.0
        assert float(c.bdot[0]) == 0.0
        assert float(c.b[-1]) == pytest.approx(10.0, abs=1e-12)
        assert float(c.bdot[-1]) == pytest.approx(0.0, abs=1e-12)

    def test_converges_to_linear_for_small_caps(self, spec):
        tf = 2.0
        c = protocols.hybrid_caps(spec, tf, 1e-3 * tf, 1e-3 * tf)
        lin = 1.0 + (spec.gamma - 1.0) * c.grid.nodes / tf
        # middle segment coincides exactly; cap deviation <= 4 (gamma-1) s_l / 27
        assert np.max(np.abs(c.b - lin)) < 2e-3 * (spec.gamma - 1.0)

    def test_positive_everywhere(self, spec):
        c = protocols.hybrid_caps(spec, 1.0, 0.45, 0.45)
        assert np.min(c.b) > 0.0

    @pytest.mark.parametrize("tl,ts", [(0.0, 0.1), (0.1, 0.0), (0.6, 0.6)])
    def test_rejects_degenerate_caps(self, spec, tl, ts):
        with pytest.raises(ValueError):
            protocols.hybrid_caps(spec, 1.0, tl, ts)

    @pytest.mark.parametrize("tl,ts,cap", [(1e-300, 60.0, "launching cap tau_l = 1e-300"),
                                           (3.0, 1e-300, "stopping cap tau_s = 1e-300"),
                                           (1e-158, 60.0, "launching cap tau_l = 1e-158")])
    def test_rejects_cap_too_short_for_its_cubic(self, spec, tl, ts, cap):
        # the grid accepts a 1e-300 piece, but d/(tau/t_f)^2 is not a finite float
        with pytest.raises(ValueError, match=f"^{cap} is too short"):
            protocols.hybrid_caps(spec, 300.0, tl, ts, 201)

    @pytest.mark.parametrize("tl,ts", [(math.nan, 0.1), (0.1, math.nan)])
    def test_rejects_nan_caps(self, spec, tl, ts):
        with pytest.raises(ValueError, match="cap durations must be positive"):
            protocols.hybrid_caps(spec, 1.0, tl, ts)


class TestLinearBottom:
    def test_endpoints_and_frequency(self, spec):
        c, p = protocols.linear_bottom(spec, 2.0)
        assert (float(c.b[0]), float(c.b[-1])) == (1.0, 10.0)
        # bottom tracking ends exactly at the final trap frequency
        assert float(p.omega2[-1]) == pytest.approx(spec.omega_f_rel**2, rel=1e-12)

    def test_exact_ermakov_solution(self, spec):
        c, p = protocols.linear_bottom(spec, 2.0)
        assert ermakov.ermakov_residual(c, p) < 1e-12


class TestBangBang:
    def test_extreme_point(self, spec):
        w = math.sqrt(spec.omega_f_rel)
        bb = protocols.bang_bang(spec, w, w)
        assert bb.t1 == 0.0
        assert bb.t_f == pytest.approx(5.0 * math.pi, abs=1e-12)

    def test_extreme_point_si_milliseconds(self):
        si = TrapSpec(2.0 * math.pi * 2500.0, 2.0 * math.pi * 25.0)
        t_max = protocols.bang_bang_max_duration(si) / si.omega0
        assert t_max == pytest.approx(1e-3, abs=1e-9)

    def test_matching_continuity(self, spec):
        bb = protocols.bang_bang(spec, 1.0, 1.0)
        left, right = bb.curve.fns
        assert abs(float(left.b(bb.t1)) - float(right.b(bb.t1))) < 1e-10
        assert abs(float(left.bdot(bb.t1)) - float(right.bdot(bb.t1))) < 1e-10

    def test_segment_residual(self, spec):
        bb = protocols.bang_bang(spec, 1.0, 1.0)
        assert ermakov.ermakov_residual(bb.curve, bb.profile) < 1e-9

    def test_rejects_too_slow_second_step(self, spec):
        with pytest.raises(ValueError):
            protocols.bang_bang(spec, 1.0, 0.05)  # below sqrt(omega_f_rel) = 0.1

    def test_for_duration_hits_target(self, spec):
        bb = protocols.bang_bang_for_duration(spec, 3.0)
        assert bb.t_f == pytest.approx(3.0, rel=1e-10)
        assert bb.omega1 == bb.omega2
        with pytest.raises(Infeasible):
            protocols.bang_bang_for_duration(spec, 25.0)  # beyond pi*gamma/2


class TestBangBangNA:
    def test_switch_times(self, spec):
        bb = protocols.bang_bang_na(spec, 1.0)
        assert bb.t1 == pytest.approx(9.9, abs=1e-12)
        assert bb.t2 == pytest.approx(math.asin(math.sqrt(99.0 / 9999.0)), rel=1e-12)

    def test_curve_closes(self, spec):
        bb = protocols.bang_bang_na(spec, 1.0)
        assert float(bb.curve.b[-1]) == pytest.approx(10.0, abs=1e-10)
        assert abs(float(bb.curve.bdot[-1])) < 1e-10

    def test_free_expansion_segment(self, spec):
        # omega1 = 0: segment 1 is b = sqrt(1 + t^2) exactly
        bb = protocols.bang_bang_na(spec, 1.0)
        lo, hi = bb.curve.grid.pieces[0]
        t = bb.curve.grid.nodes[lo : hi + 1]
        assert np.max(np.abs(bb.curve.b[lo : hi + 1] - np.sqrt(1.0 + t**2))) < 1e-12

    def test_steep_stop_limit(self):
        # beta >> 1, gamma >> 1: t_f ~ 1/sqrt(omega0 omega_f)
        spec = TrapSpec.from_gamma(100.0)
        bb_times = protocols.bang_bang_times(spec, 0.0, 1000.0)
        assert sum(bb_times) == pytest.approx(spec.gamma, rel=0.01)

    def test_small_omega1_series_matches_exact(self, spec):
        # the series branch and the sinh branch agree around the switch point
        t_series = protocols.bang_bang_times(spec, 9e-7, 1.0)
        t_exact = protocols.bang_bang_times(spec, 2e-6, 1.0)
        assert t_series[0] == pytest.approx(t_exact[0], rel=1e-5)

    def test_for_duration(self, spec):
        bb = protocols.bang_bang_na_for_duration(spec, 12.0)
        assert bb.t_f == pytest.approx(12.0, rel=1e-10)
        with pytest.raises(Infeasible):
            protocols.bang_bang_na_for_duration(spec, 9.0)  # below sqrt(gamma^2-1)


class TestForDurationPostcondition:
    HELPERS = (protocols.bang_bang_for_duration, protocols.bang_bang_na_for_duration)

    @pytest.mark.parametrize("helper, message", [
        (protocols.bang_bang_for_duration, "equal-step protocols need 0 < t_f <= 15.708"),
        (protocols.bang_bang_na_for_duration, "free-expansion protocols need 9.94987 < t_f <= 15.708"),
    ])
    def test_reachable_range_in_message(self, spec, helper, message):
        with pytest.raises(Infeasible, match=message):
            helper(spec, 16.0)

    @pytest.mark.parametrize("gamma", [3.0, 1000.0])
    def test_duration_an_ulp_above_the_free_expansion_limit_is_infeasible(self, gamma):
        # the stopping step is then too short to sample; this used to raise
        # the grid's ValueError instead of Infeasible
        spec = TrapSpec.from_gamma(gamma)
        t_f = math.nextafter(math.sqrt(spec.gamma**2 - 1.0), math.inf)
        with pytest.raises(Infeasible, match="free-expansion protocol for t_f"):
            protocols.bang_bang_na_for_duration(spec, t_f, 201)

    @pytest.mark.parametrize("helper", HELPERS)
    def test_no_expansion_refused(self, helper):
        # gamma = 1: the root search used to land on the jump and return pi/2
        with pytest.raises(Infeasible, match="gamma = 1"):
            helper(TrapSpec.from_gamma(1.0), 1.0)

    @pytest.mark.parametrize("helper", HELPERS)
    def test_no_expansion_extreme_point_kept(self, helper):
        bb = helper(TrapSpec.from_gamma(1.0), math.pi / 2.0, 101)
        assert bb.t_f == pytest.approx(math.pi / 2.0, rel=1e-12)

    @pytest.mark.parametrize("helper", HELPERS)
    def test_near_unit_gamma_miss_raises(self, helper):
        # the duration gap is too ill-conditioned here to meet t_f to 1e-12;
        # this used to return a protocol 1.1e-6 (relative) too long or short
        gamma = 1.0 + 1e-9
        with pytest.raises(Infeasible, match="relative miss"):
            helper(TrapSpec.from_gamma(gamma), 0.9 * math.pi * gamma / 2.0)

    @pytest.mark.parametrize("helper, label", [
        (protocols.bang_bang_for_duration, "equal-step"),
        (protocols.bang_bang_na_for_duration, "free-expansion"),
    ])
    def test_root_search_without_convergence_is_infeasible(self, spec, monkeypatch, helper, label):
        def no_convergence(f, a, b, **kw):
            raise RuntimeError("Failed to converge after 100 iterations.")

        monkeypatch.setattr(numerics, "_brent_root", no_convergence)
        with pytest.raises(Infeasible, match=rf"^{label} protocol for t_f = 12: Failed to converge"):
            helper(spec, 12.0)

    @pytest.mark.parametrize("helper", HELPERS)
    @pytest.mark.parametrize("frac", [0.7, 0.85, 0.999])
    def test_hits_duration(self, spec, helper, frac):
        t_f = frac * protocols.bang_bang_max_duration(spec)
        assert abs(helper(spec, t_f, 101).t_f - t_f) <= 1e-12 * t_f


    @pytest.mark.parametrize("helper", HELPERS)
    @pytest.mark.parametrize("gamma", [1000.0, 1e4])
    def test_large_gamma_durations_all_reached(self, helper, gamma):
        # the root search needs a tolerance relative to the step frequency
        # (~1/gamma); an absolute 1e-14 missed some of these by > 1e-12
        spec = TrapSpec.from_gamma(gamma)
        t_max = protocols.bang_bang_max_duration(spec)
        t_lo = 0.0 if helper is protocols.bang_bang_for_duration else math.sqrt(gamma**2 - 1.0)
        for t_f in t_lo + np.linspace(0.0, 1.0, 402)[1:-1] * (t_max - t_lo):
            assert abs(helper(spec, t_f, 3).t_f - t_f) <= 1e-12 * t_f


class TestConstantPower:
    def test_flat_when_no_expansion(self):
        c, mism = protocols.constant_power_shoot(TrapSpec.from_gamma(1.0), 5.0)
        assert np.max(np.abs(c.b - 1.0)) < 1e-12
        assert abs(mism.b_error) < 1e-12

    @pytest.mark.parametrize("tf", [5.0, 10.0, 25.0])
    def test_terminal_conditions_fail_generically(self, spec, tf):
        _, mism = protocols.constant_power_shoot(spec, tf)
        assert abs(mism.bdot_f) > 1e-3


class TestMeanValueBounds:
    @pytest.mark.parametrize("tf", [0.1, 1.0, 10.0, 25.0])
    def test_slope_and_curvature_floors(self, spec, tf):
        g1 = spec.gamma - 1.0
        for curve in (
            protocols.quintic(spec, tf),
            protocols.septic(spec, tf, 78.5088, -459.7638),
            protocols.hybrid_caps(spec, tf, 0.1 * tf, 0.1 * tf),
        ):
            assert np.max(curve.bdot) >= g1 / tf * (1.0 - 1e-12)
            assert np.max(np.abs(curve.bddot)) >= 2.0 * g1 / tf**2 * (1.0 - 1e-12)


def test_build_dispatch_covers_families(spec):
    for family, kwargs in [
        ("quintic", dict(t_f=2.0)),
        ("septic", dict(t_f=2.0, c3=1.0, c4=-1.0)),
        ("quasi_optimal", dict(t_f=2.0)),
        ("dirac", dict(t_f=2.0)),
        ("hybrid", dict(t_f=2.0, tau_l=0.2, tau_s=0.2)),
        ("linear_bottom", dict(t_f=2.0)),
        ("bang_bang", dict(omega1=1.0, omega2=1.0)),
        ("bang_bang_na", dict(beta=1.0)),
        ("constant_power", dict(t_f=2.0)),
    ]:
        bundle = protocols.build(spec, protocols.ProtocolParams(family=family, grid_n=201, **kwargs))
        assert len(bundle.curve.b) == len(bundle.profile.omega2)


@pytest.mark.parametrize("family", protocols._FAMILIES)
@pytest.mark.parametrize("t_f", [math.nan, math.inf])
def test_build_rejects_non_finite_duration(spec, family, t_f):
    params = protocols.ProtocolParams(family=family, t_f=t_f, tau_l=0.1, tau_s=0.1, grid_n=101)
    with pytest.raises(ValueError, match="t_f must be positive and finite"):
        protocols.build(spec, params)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        protocols.ProtocolParams(family="sinusoid")


def test_build_refuses_a_request_without_family(spec):
    params = protocols.ProtocolParams(family=None, t_f=2.0)
    with pytest.raises(ValueError, match="no protocol family given"):
        protocols.build(spec, params)


@pytest.mark.parametrize("family, inputs, message", [
    # one step frequency without the other
    ("bang_bang", dict(omega1=3.0, t_f=5.0), "takes omega1 and omega2, not omega1"),
    ("bang_bang", dict(omega2=1.0), "takes omega1 and omega2, not omega2"),
    # step inputs that would override the requested duration
    ("bang_bang", dict(omega1=1.0, omega2=1.0, t_f=5.0), "either t_f or omega1/omega2"),
    ("bang_bang_na", dict(beta=1.0, t_f=12.0), "either t_f or beta"),
    # step inputs of another family
    ("bang_bang", dict(beta=1.0), "takes omega1 and omega2, not beta"),
    ("bang_bang_na", dict(omega1=1.0, omega2=1.0), "takes beta, not omega1/omega2"),
    ("quintic", dict(t_f=2.0, beta=1.0), "takes no step frequencies, not beta"),
])
def test_build_refuses_ignored_or_conflicting_step_inputs(spec, family, inputs, message):
    with pytest.raises(ValueError, match=message):
        protocols.build(spec, protocols.ProtocolParams(family=family, grid_n=101, **inputs))


def test_hybrid_default_cap_only_replaces_the_missing_one(spec):
    one = protocols.build(spec, protocols.ProtocolParams("hybrid", 20.0, tau_l=3.0, grid_n=101))
    both = protocols.build(spec, protocols.ProtocolParams("hybrid", 20.0, tau_l=3.0, tau_s=2.0, grid_n=101))
    assert np.array_equal(one.curve.grid.nodes, both.curve.grid.nodes)
    assert np.array_equal(one.curve.b, both.curve.b)
    joints = [float(one.curve.grid.nodes[lo]) for lo, _ in one.curve.grid.pieces[1:]]
    assert joints == [3.0, 18.0]


class TestPolyMatchesNumpy:
    """protocols._Poly performs the floating-point operations of numpy's
    polyval and polyder, so every polynomial family keeps its bytes."""

    @staticmethod
    def coefficient_vectors():
        rng = np.random.default_rng(20150512)
        for degree in range(8):
            for _ in range(4):
                yield rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=degree + 1).tolist()

    def test_values_on_arrays_and_scalars(self):
        from numpy.polynomial import polynomial as P

        x = np.concatenate([np.linspace(0.0, 1.0, 257), np.linspace(-3.0, 3.0, 64)])
        for coef in self.coefficient_vectors():
            p = protocols._Poly(coef)
            assert np.array_equal(p(x), P.polyval(x, coef))
            for s in (0.0, 0.37, 1.0, -2.5):
                assert p(s) == P.polyval(s, coef)

    @pytest.mark.parametrize("m", range(5))
    def test_derivatives(self, m):
        from numpy.polynomial import polynomial as P

        x = np.linspace(0.0, 1.0, 129)
        for coef in self.coefficient_vectors():
            d = protocols._Poly(coef).deriv(m)
            ref = P.polyder(coef, m)
            assert d.c == ref.tolist()   # past the degree: [0.0]
            assert np.array_equal(d(x), P.polyval(x, ref))
            assert d(0.61) == P.polyval(0.61, ref)
