import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from staexpand import TrapSpec, energies, ermakov, numerics, protocols
from staexpand.core import DEFAULT_GRID_N, Infeasible, PowerUndefined

from protocol_requests import make

README = Path(__file__).resolve().parents[1] / "README.md"
EPS = float(np.finfo(float).eps)


@pytest.fixture
def spec():
    return TrapSpec.from_gamma(10.0)


def bang_bang_for_duration(spec, t_f, n=DEFAULT_GRID_N):
    """The equal-step protocol that lasts t_f, as ``build`` makes it."""
    return protocols.build(spec, protocols.ProtocolParams("bang_bang", t_f, grid_n=n))


def bang_bang_na_for_duration(spec, t_f, n=DEFAULT_GRID_N):
    """The free-expansion protocol that lasts t_f, as ``build`` makes it."""
    return protocols.build(spec, protocols.ProtocolParams("bang_bang_na", t_f, grid_n=n))


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
        c = make(spec, "quintic", 2.0).curve
        b0, bf, d0, df, dd0, ddf = boundary_values(c)
        assert (b0, bf) == (1.0, 10.0)
        assert max(abs(d0), abs(df), abs(dd0), abs(ddf)) < 1e-12

    def test_midpoint_value(self, spec):
        # direct polynomial evaluation at s = 1/2: 1 + (gamma-1)/2
        c = make(spec, "quintic", 2.0).curve
        assert c.fns[0](1.0)[0] == pytest.approx(5.5, rel=1e-14)

    def test_no_expansion_is_flat(self):
        c = make(TrapSpec.from_gamma(1.0), "quintic", 2.0).curve
        assert np.max(np.abs(c.b - 1.0)) == 0.0


class TestSeptic:
    @pytest.mark.parametrize("c3,c4", [(0.0, 0.0), (78.5088, -459.7638), (-12.5, 30.0)])
    def test_boundaries_any_coefficients(self, spec, c3, c4):
        c = make(spec, "septic", 2.0, c3=c3, c4=c4).curve
        b0, bf, d0, df, dd0, ddf = boundary_values(c)
        assert b0 == 1.0
        assert bf == pytest.approx(10.0, abs=1e-10)
        assert max(abs(d0), abs(df), abs(dd0), abs(ddf)) < 1e-9

    def test_no_low_order_terms(self, spec):
        c = make(spec, "septic", 2.0, c3=5.0, c4=-3.0).curve
        assert float(c.b[0]) == 1.0
        assert float(c.bddot[0]) == 0.0


class TestQuasiOptimal:
    def test_endpoints(self, spec):
        c = make(spec, "quasi_optimal", 1.0).curve
        assert float(c.b[0]) == 1.0
        # (B+1)^2 - tf^2 = gamma^2 algebraically
        assert float(c.b[-1]) == pytest.approx(10.0, rel=1e-12)

    def test_one_sided_slopes(self, spec):
        tf = 1.0
        B = math.sqrt(101.0) - 1.0
        c = make(spec, "quasi_optimal", tf).curve
        assert c.bdot[0] == pytest.approx(B / tf, rel=1e-12)
        assert c.bdot[-1] == pytest.approx((B**2 + B - tf**2) / (10.0 * tf), rel=1e-12)

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 10.0, 1e3])
    @pytest.mark.parametrize("tf", [1e-6, 1e-2, 1.0, 1e3, 1e8, 1e15, 3e15, 1e16, 1e17, 1e20])
    def test_b_is_exact_at_every_duration(self, gamma, tf):
        # b^2 = 1 + 2 B s + (B^2 - tf^2) s^2 summed term by term cancels terms ~2 tf
        # to gamma^2 at s = 1: b(tf) read 2.236 for gamma 1.5 at tf 1e16, and 1 at 1e17
        mp = pytest.importorskip("mpmath")
        c = make(TrapSpec.from_gamma(gamma), "quasi_optimal", tf, 201).curve
        assert float(c.b[0]) == 1.0
        assert abs(float(c.b[-1]) - gamma) <= 4.0 * math.ulp(gamma)
        with mp.workdps(100):   # the sum below cancels 40 digits at tf 1e20
            T = mp.mpf(tf)
            B = mp.sqrt(T**2 + mp.mpf(gamma) ** 2) - 1
            for t, b in zip(c.grid.nodes[::10], c.b[::10]):
                s = mp.mpf(float(t)) / T
                exact = mp.sqrt(1 + 2 * B * s + (B**2 - T**2) * s**2)
                assert abs(b - exact) <= 4.0 * EPS * exact


class TestDiracImpulse:
    def test_strengths(self, spec):
        profile = make(spec, "dirac", 1.0).profile
        (t0, d0), (tf, df) = profile.impulses
        B = math.sqrt(101.0) - 1.0
        assert (t0, tf) == (0.0, 1.0)
        assert d0 == pytest.approx(-B, rel=1e-12)
        assert df == pytest.approx((B**2 + B - 1.0) / 100.0, rel=1e-12)

    @pytest.mark.parametrize("gamma", [1.0, 1.0 + 1e-9, 1.5, 10.0, 1e3])
    @pytest.mark.parametrize("tf", [1e-6, 1e-3, 1.0, 50.0, 1e8])
    def test_strengths_are_exact(self, gamma, tf):
        # the kicks are the curve's own end slopes over b: D0 = -B/tf and
        # Df = (B + B^2 - tf^2)/(gamma^2 tf), B = sqrt(tf^2 + gamma^2) - 1; B formed
        # by that difference read 8.9e-5 off at gamma 1, tf 1e-6
        mp = pytest.importorskip("mpmath")
        spec = TrapSpec.from_gamma(gamma)
        (_, d0), (_, df) = make(spec, "dirac", tf, 201).profile.impulses
        with mp.workdps(50):
            g, T = mp.mpf(spec.gamma), mp.mpf(tf)
            B = mp.sqrt(T**2 + g**2) - 1
            for got, exact in ((d0, -B / T), (df, (B + B**2 - T**2) / (g**2 * T))):
                assert abs(got - exact) <= 1e-15 * abs(exact)

    @pytest.mark.parametrize("tf", [0.1, 1.0, 30.0, 200.0])
    def test_first_impulse_always_negative(self, spec, tf):
        profile = make(spec, "dirac", tf).profile
        assert profile.impulses[0][1] < 0.0


class TestHybridCaps:
    def test_joint_continuity(self, spec):
        tf = 2.0
        c = make(spec, "hybrid", tf, tau_l=0.2 * tf, tau_s=0.3 * tf).curve
        (l0, h0), (l1, h1), (l2, h2) = c.grid.pieces
        assert abs(c.b[h0] - c.b[l1]) < 1e-12
        assert abs(c.bdot[h0] - c.bdot[l1]) < 1e-12
        assert abs(c.b[h1] - c.b[l2]) < 1e-12
        assert abs(c.bdot[h1] - c.bdot[l2]) < 1e-12

    def test_cap_boundary_conditions(self, spec):
        c = make(spec, "hybrid", 2.0, tau_l=0.2, tau_s=0.2).curve
        assert float(c.b[0]) == 1.0
        assert float(c.bdot[0]) == 0.0
        assert float(c.b[-1]) == pytest.approx(10.0, abs=1e-12)
        assert float(c.bdot[-1]) == pytest.approx(0.0, abs=1e-12)

    def test_converges_to_linear_for_small_caps(self, spec):
        tf = 2.0
        c = make(spec, "hybrid", tf, tau_l=1e-3 * tf, tau_s=1e-3 * tf).curve
        lin = 1.0 + (spec.gamma - 1.0) * c.grid.nodes / tf
        # middle segment coincides exactly; cap deviation <= 4 (gamma-1) s_l / 27
        assert np.max(np.abs(c.b - lin)) < 2e-3 * (spec.gamma - 1.0)

    def test_positive_everywhere(self, spec):
        c = make(spec, "hybrid", 1.0, tau_l=0.45, tau_s=0.45).curve
        assert np.min(c.b) > 0.0

    @pytest.mark.parametrize("tl,ts", [(0.0, 0.1), (0.1, 0.0), (0.6, 0.6)])
    def test_rejects_degenerate_caps(self, spec, tl, ts):
        with pytest.raises(ValueError):
            make(spec, "hybrid", 1.0, tau_l=tl, tau_s=ts)

    @pytest.mark.parametrize("tl,ts,cap", [(1e-300, 60.0, "launching cap tau_l = 1e-300"),
                                           (3.0, 1e-300, "stopping cap tau_s = 1e-300"),
                                           (1e-158, 60.0, "launching cap tau_l = 1e-158")])
    def test_rejects_cap_too_short_for_its_cubic(self, spec, tl, ts, cap):
        # the grid accepts a 1e-300 piece, but d/(tau/t_f)^2 is not a finite float
        with pytest.raises(ValueError, match=f"^{cap} is too short"):
            make(spec, "hybrid", 300.0, 201, tau_l=tl, tau_s=ts)

    @pytest.mark.parametrize("tl,ts", [(1e-158, 60.0), (3.0, 1e-300)])
    def test_numpy_scalar_caps_refused_as_floats(self, spec, tl, ts):
        # a numpy scalar cap used to overflow (or underflow) in numpy's scalar
        # arithmetic first, so that with floating-point errors raised the
        # FloatingPointError came instead of the ValueError
        reasons = []
        for cast in (float, np.float64):
            with np.errstate(all="raise"), pytest.raises(ValueError) as exc:
                make(spec, "hybrid", cast(300.0), 201, tau_l=cast(tl), tau_s=cast(ts))
            reasons.append(str(exc.value))
        assert reasons[0] == reasons[1] and "is too short" in reasons[0]

    @pytest.mark.parametrize("tl,ts", [(math.nan, 0.1), (0.1, math.nan)])
    def test_rejects_nan_caps(self, spec, tl, ts):
        with pytest.raises(ValueError, match="cap durations must be positive"):
            make(spec, "hybrid", 1.0, tau_l=tl, tau_s=ts)


class TestLinearBottom:
    def test_endpoints_and_frequency(self, spec):
        lb = make(spec, "linear_bottom", 2.0)
        c, p = lb.curve, lb.profile
        assert (float(c.b[0]), float(c.b[-1])) == (1.0, 10.0)
        # bottom tracking ends exactly at the final trap frequency
        assert float(p.omega2[-1]) == pytest.approx(spec.omega_f_rel**2, rel=1e-12)

    def test_exact_ermakov_solution(self, spec):
        lb = make(spec, "linear_bottom", 2.0)
        assert ermakov.ermakov_residual(lb.curve, lb.profile) < 1e-12


class TestBangBang:
    def test_extreme_point(self, spec):
        w = math.sqrt(spec.omega_f_rel)
        bb = make(spec, "bang_bang", omega1=w, omega2=w)
        assert bb.extra["t1"] == 0.0
        assert bb.curve.grid.t_f == pytest.approx(5.0 * math.pi, abs=1e-12)

    def test_extreme_point_si_milliseconds(self):
        si = TrapSpec(2.0 * math.pi * 2500.0, 2.0 * math.pi * 25.0)
        t_max = protocols.bang_bang_max_duration(si) / si.omega0
        assert t_max == pytest.approx(1e-3, abs=1e-9)

    def test_matching_continuity(self, spec):
        bb = make(spec, "bang_bang", omega1=1.0, omega2=1.0)
        (b_l, bdot_l, _, _), (b_r, bdot_r, _, _) = (fn(bb.extra["t1"]) for fn in bb.curve.fns)
        assert abs(float(b_l) - float(b_r)) < 1e-10
        assert abs(float(bdot_l) - float(bdot_r)) < 1e-10

    @pytest.mark.parametrize("gamma, w", [(22.07, 1.0000000023 / 22.07)] + [
        (gamma, w) for gamma in (1e7, 1e8, 1e20, 1e50)
        for w in (5e-7, 1e-7, 1e-8, 1e-10, 1e-15, 1e-19, 1e-20, 1e-30, 1e-49) if w * gamma > 1.5
    ])
    def test_joint_is_continuous(self, gamma, w):
        # b and bdot of both steps at t1, to 1e-12 of b and of the largest
        # |bdot|: the slopes differed by 4.2e-11 at gamma 22.07, and a t1
        # series in omega1 < 1e-6 dropped b by ~100 % at gamma >= 1e7
        bb = make(TrapSpec.from_gamma(gamma), "bang_bang", n=201, omega1=w, omega2=w)
        (b_l, bdot_l, _, _), (b_r, bdot_r, _, _) = (fn(bb.extra["t1"]) for fn in bb.curve.fns)
        assert abs(b_l - b_r) <= 1e-12 * b_r
        assert abs(bdot_l - bdot_r) <= 1e-12 * np.max(np.abs(bb.curve.bdot))

    def test_switching_times_match_mpmath(self):
        # the matching conditions at 50 digits, from the float inputs: a few
        # ulps, next to gamma = 1, at omega1 = 0 and with omega2 within 1e-13
        # of 1/gamma (snapped to the extreme point, t1 = 0).  Away from the
        # snap e = gamma^2 omega2^2 - 1 is kept at e >= 1.25: its own rounding
        # reaches t1 amplified by 1/e, whatever form evaluates the conditions
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for gamma in (1.0 + 1e-9, 1.5, 10.0, 22.07, 1e3, 1e20, 1e50):
                g = mp.mpf(gamma)
                for omega1 in (0.0, 1e-120, 0.3 / gamma, 1.0, 40.0):
                    for omega2 in (1.0 / gamma, (1.0 + 1e-13) / gamma, (1.0 - 1e-13) / gamma,
                                   1.5 / gamma, 3.0, 1e3):
                        w1, w2 = mp.mpf(omega1), mp.mpf(omega2)
                        e = g**2 * w2**2 - 1
                        if abs(e) <= 1e-12 * max(1, g**2 * w2**2):
                            ref = (0, mp.pi / 2 / w2)
                        else:
                            c = mp.sqrt((g**2 - 1) * e / (g**2 * (w2**2 + w1**2) * (1 + w1**2)))
                            s2 = w2**2 * (g**2 - 1) * (g**2 * w1**2 + 1) / ((w2**2 + w1**2) * (g**4 * w2**2 - 1))
                            ref = (mp.asinh(w1 * c) / w1 if omega1 else c, mp.asin(mp.sqrt(s2)) / w2)
                        got = protocols.bang_bang_times(TrapSpec.from_gamma(gamma), omega1, omega2)
                        for t, r in zip(got, ref):
                            assert abs(t - r) <= 4 * EPS * r, (gamma, omega1, omega2)

    def test_segment_residual(self, spec):
        bb = make(spec, "bang_bang", omega1=1.0, omega2=1.0)
        assert ermakov.ermakov_residual(bb.curve, bb.profile) < 1e-9

    def test_rejects_too_slow_second_step(self, spec):
        with pytest.raises(ValueError):
            make(spec, "bang_bang", omega1=1.0, omega2=0.05)  # below sqrt(omega_f_rel) = 0.1

    @pytest.mark.parametrize("omega1, omega2", [
        (math.nan, math.nan), (0.0, math.inf), (math.inf, 1.0), (1.0, -math.inf),
    ])
    def test_rejects_non_finite_steps(self, spec, omega1, omega2):
        # NaN fails no comparison, and an infinite step would reach the grid
        message = rf"^step frequencies must be finite, not omega1 = {omega1}, omega2 = {omega2}$"
        with pytest.raises(ValueError, match=message):
            protocols.bang_bang_times(spec, omega1, omega2)
        with pytest.raises(ValueError, match=message):
            make(spec, "bang_bang", omega1=omega1, omega2=omega2)

    @pytest.mark.parametrize("omega1, omega2, name", [
        (1e287, 1e275, "omega1"), (1.0, 1e200, "omega2"), (1e80, 1e80, "omega1"),
    ])
    def test_rejects_steps_whose_matching_conditions_overflow(self, spec, omega1, omega2, name):
        # 1e287 squared used to raise a raw OverflowError, and at 1e80 the
        # products overflowed to t1 = 0 and t2 = nan
        w = omega1 if name == "omega1" else omega2
        message = "^" + re.escape(f"{name} = {w:.6g} is too high at gamma = 10: the matching "
                                  f"conditions overflow above gamma*{name} ~ 8.188e+76") + "$"
        with pytest.raises(ValueError, match=message):
            protocols.bang_bang_times(spec, omega1, omega2)
        with pytest.raises(ValueError, match=message):
            make(spec, "bang_bang", omega1=omega1, omega2=omega2)

    def test_steps_just_below_the_overflow_edge_are_built(self, spec):
        # gamma*omega = 8e76: t1 and t2 scale as 1/omega there, as at omega = 1e75
        bb = make(spec, "bang_bang", omega1=8e75, omega2=8e75)
        assert bb.extra["t1"] == pytest.approx(2.649146182805243e-75 / 8.0, rel=1e-12)
        assert bb.extra["t2"] == pytest.approx(7.803980800603648e-76 / 8.0, rel=1e-12)
        assert float(bb.curve.b[-1]) == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("w", [0.1, 1.0])   # one uniform piece (t1 = 0), two pieces
    def test_even_grid_refused_on_either_grid(self, spec, w):
        with pytest.raises(ValueError, match="odd node count"):
            make(spec, "bang_bang", n=500, omega1=w, omega2=w)

    def test_for_duration_hits_target(self, spec):
        bb = bang_bang_for_duration(spec, 3.0)
        assert bb.curve.grid.t_f == pytest.approx(3.0, rel=1e-10)
        assert bb.extra["omega1"] == bb.extra["omega2"]
        with pytest.raises(Infeasible):
            bang_bang_for_duration(spec, 25.0)  # beyond pi*gamma/2

    @pytest.mark.parametrize("gamma", [316.0, 1000.0])
    @pytest.mark.parametrize("w_gamma", [1.0, 1.0 + 1e-7])
    def test_second_step_exact_where_b_is_near_one(self, gamma, w_gamma):
        # g = gamma^2 + a sin^2 with a ~ -gamma^2 cancelled near b = 1:
        # 5.5e-11 relative at gamma 1000, w gamma = 1 + 1e-7
        mp = pytest.importorskip("mpmath")
        w = w_gamma / gamma
        bb = make(TrapSpec.from_gamma(gamma), "bang_bang", n=2001, omega1=w, omega2=w)
        t_f = bb.extra["t1"] + bb.extra["t2"]
        lo, hi = bb.curve.grid.pieces[-1]
        worst = 0.0
        with mp.workdps(40):
            g, w2 = mp.mpf(gamma), mp.mpf(w)
            for i in range(lo, hi + 1, 7):
                s = mp.sin(w2 * (mp.mpf(t_f) - mp.mpf(float(bb.curve.grid.nodes[i]))))
                exact = mp.sqrt(g**2 * (1 - s**2) + s**2 / (g * w2) ** 2)
                worst = max(worst, float(abs(bb.curve.b[i] - exact) / exact))
        assert worst < 1e-13


class TestBangBangNA:
    def test_switch_times(self, spec):
        bb = make(spec, "bang_bang_na", beta=1.0)
        assert bb.extra["t1"] == pytest.approx(9.9, abs=1e-12)
        assert bb.extra["t2"] == pytest.approx(math.asin(math.sqrt(99.0 / 9999.0)), rel=1e-12)

    def test_curve_closes(self, spec):
        bb = make(spec, "bang_bang_na", beta=1.0)
        assert float(bb.curve.b[-1]) == pytest.approx(10.0, abs=1e-10)
        assert abs(float(bb.curve.bdot[-1])) < 1e-10

    def test_free_expansion_segment(self, spec):
        # omega1 = 0: segment 1 is b = sqrt(1 + t^2) exactly
        bb = make(spec, "bang_bang_na", beta=1.0)
        lo, hi = bb.curve.grid.pieces[0]
        t = bb.curve.grid.nodes[lo : hi + 1]
        assert np.max(np.abs(bb.curve.b[lo : hi + 1] - np.sqrt(1.0 + t**2))) < 1e-12

    def test_steep_stop_limit(self):
        # beta >> 1, gamma >> 1: t_f ~ 1/sqrt(omega0 omega_f)
        spec = TrapSpec.from_gamma(100.0)
        bb_times = protocols.bang_bang_times(spec, 0.0, 1000.0)
        assert sum(bb_times) == pytest.approx(spec.gamma, rel=0.01)

    def test_refusals_are_the_step_check_of_bang_bang_times(self, spec):
        # one check, one tolerance: beta gamma on either side of 1 - 1e-12
        # reads the same refusal, named for beta by build
        message = r"\(the stopping frequency omega2\): omega2 >= sqrt\(omega0\*omega_f\) is required for t1 >= 0 "
        for beta_gamma in (1.0 - 8e-13, 1.0 - 1.1e-12):
            beta = beta_gamma / spec.gamma
            with pytest.raises(ValueError, match=rf"^beta = {re.escape(f'{beta:.12g}')} {message}"):
                make(spec, "bang_bang_na", beta=beta)
        with pytest.raises(ValueError, match=r"^beta = 0 \(the stopping frequency omega2\): omega2 must be > 0$"):
            make(spec, "bang_bang_na", beta=0.0)

    def test_for_duration(self, spec):
        bb = bang_bang_na_for_duration(spec, 12.0)
        assert bb.curve.grid.t_f == pytest.approx(12.0, rel=1e-10)
        with pytest.raises(Infeasible):
            bang_bang_na_for_duration(spec, 9.0)  # below sqrt(gamma^2-1)


class TestForDurationPostcondition:
    HELPERS = (bang_bang_for_duration, bang_bang_na_for_duration)

    @pytest.mark.parametrize("helper, message", [
        (bang_bang_for_duration, "equal-step protocols need 0 < t_f <= 15.708"),
        (bang_bang_na_for_duration, "free-expansion protocols need 9.94987 < t_f <= 15.708"),
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
            bang_bang_na_for_duration(spec, t_f, 201)

    @pytest.mark.parametrize("helper", HELPERS)
    def test_no_expansion_refused(self, helper):
        # gamma = 1: the root search used to land on the jump and return pi/2
        with pytest.raises(Infeasible, match="gamma = 1"):
            helper(TrapSpec.from_gamma(1.0), 1.0)

    @pytest.mark.parametrize("helper", HELPERS)
    def test_no_expansion_extreme_point_kept(self, helper):
        bb = helper(TrapSpec.from_gamma(1.0), math.pi / 2.0, 101)
        assert bb.curve.grid.t_f == pytest.approx(math.pi / 2.0, rel=1e-12)

    @pytest.mark.parametrize("helper", HELPERS)
    def test_near_unit_gamma_is_met(self, helper):
        # solved in omega this was refused (a 1.1e-6 relative miss); in v
        # the duration gap is well conditioned at every gamma
        gamma = 1.0 + 1e-9
        t_f = 0.9 * math.pi * gamma / 2.0
        assert abs(helper(TrapSpec.from_gamma(gamma), t_f, 101).curve.grid.t_f - t_f) <= 1e-12 * t_f

    @pytest.mark.parametrize("helper, label", [
        (bang_bang_for_duration, "equal-step"),
        (bang_bang_na_for_duration, "free-expansion"),
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
        assert abs(helper(spec, t_f, 101).curve.grid.t_f - t_f) <= 1e-12 * t_f


    @pytest.mark.parametrize("helper", HELPERS)
    @pytest.mark.parametrize("gamma", [1000.0, 1e4])
    def test_large_gamma_durations_all_reached(self, helper, gamma):
        # the root search needs a tolerance relative to the step frequency
        # (~1/gamma); an absolute 1e-14 missed some of these by > 1e-12
        spec = TrapSpec.from_gamma(gamma)
        t_max = protocols.bang_bang_max_duration(spec)
        t_lo = 0.0 if helper is bang_bang_for_duration else math.sqrt(gamma**2 - 1.0)
        for t_f in t_lo + np.linspace(0.0, 1.0, 402)[1:-1] * (t_max - t_lo):
            assert abs(helper(spec, t_f, 3).curve.grid.t_f - t_f) <= 1e-12 * t_f


# every gamma of the acceptance scan of the duration solve, from next to 1 to next to _GAMMA_MAX
SCAN_GAMMAS = (1.0 + 1e-15, 1.0 + 1e-12, 1.0 + 1e-9, 1.0001, 1.01, 1.5, 3.0, 10.0, 22.07, 100.0,
               1e3, 1e6, 1e20, 1e50, 1e61)


@pytest.mark.parametrize("free_expansion", [False, True], ids=["equal_step", "free_expansion"])
@pytest.mark.parametrize("gamma", SCAN_GAMMAS)
def test_duration_solve_meets_every_reachable_duration(gamma, free_expansion):
    # every duration in (t_min, t_max] is met to 1e-12: evenly spaced ones,
    # log-spaced ones from 1e-12 of the range above t_min, ones just below
    # t_max and t_max itself; build returns the solve's extra, or only at
    # n = 3 next to the free-expansion limit the grid's refusal of a step
    # too short to sample
    spec = TrapSpec.from_gamma(gamma)
    t_max = protocols.bang_bang_max_duration(spec)
    family = "bang_bang_na" if free_expansion else "bang_bang"
    t_min = math.sqrt((gamma - 1.0) * (gamma + 1.0)) if free_expansion else 0.0
    span = t_max - t_min
    fracs = [*np.linspace(0.0, 1.0, 32)[1:-1], *np.geomspace(1e-12, 1.0, 11)[:-1]]
    t_fs = [t_min + f * span for f in fracs]
    t_fs += [t_max * (1.0 - m * 10.0**-k) for m in (1, 3) for k in range(3, 16)] + [t_max]
    grid_refused = 0
    for t_f in (float(t) for t in t_fs if t_min < t <= t_max):
        got = protocols.two_step_times(spec, family, t_f)
        assert abs(got["t1"] + got["t2"] - t_f) <= 1e-12 * t_f, t_f
        assert got["omega1"] == (0.0 if free_expansion else got["omega2"])
        try:
            bundle = protocols.build(spec, protocols.ProtocolParams(family, t_f, grid_n=3))
        except Infeasible as exc:
            assert free_expansion and "is too short for" in str(exc), (t_f, str(exc))
            grid_refused += 1
        else:
            assert bundle.extra == got
    assert grid_refused <= 2


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
            make(spec, "quintic", tf).curve,
            make(spec, "septic", tf, c3=78.5088, c4=-459.7638).curve,
            make(spec, "hybrid", tf, tau_l=0.1 * tf, tau_s=0.1 * tf).curve,
        ):
            assert np.max(curve.bdot) >= g1 / tf * (1.0 - 1e-12)
            assert np.max(np.abs(curve.bddot)) >= 2.0 * g1 / tf**2 * (1.0 - 1e-12)


def _shot_bundle(spec, t_f, n):
    curve, mism = protocols.constant_power_shoot(spec, t_f, n)
    return protocols.ProtocolBundle(curve, ermakov.inverse_engineer(curve), {"mismatch": mism})


def _two_step_bundle(spec, omega1, omega2, n):
    t1, t2 = protocols.bang_bang_times(spec, omega1, omega2)
    return protocols._bang_bang_bundle(spec, {"t1": t1, "t2": t2, "omega1": omega1, "omega2": omega2}, n)


def test_build_dispatch_covers_families(spec):
    def row(family, t_f, **inputs):   # the family table's maker, past build's checks
        params = protocols.ProtocolParams(family, t_f, grid_n=201, **inputs)
        return lambda: protocols._DESIGNED[family](spec, t_f, params)

    cases = [
        ("quintic", dict(t_f=2.0), row("quintic", 2.0)),
        ("septic", dict(t_f=2.0, c3=1.0, c4=-1.0), row("septic", 2.0, c3=1.0, c4=-1.0)),
        ("quasi_optimal", dict(t_f=2.0), row("quasi_optimal", 2.0)),
        ("dirac", dict(t_f=2.0), row("dirac", 2.0)),
        ("hybrid", dict(t_f=2.0, tau_l=0.2, tau_s=0.2), row("hybrid", 2.0, tau_l=0.2, tau_s=0.2)),
        ("linear_bottom", dict(t_f=2.0), row("linear_bottom", 2.0)),
        ("bang_bang", dict(omega1=1.0, omega2=1.0), lambda: _two_step_bundle(spec, 1.0, 1.0, 201)),
        ("bang_bang_na", dict(beta=1.0), lambda: _two_step_bundle(spec, 0.0, 1.0, 201)),
        ("constant_power", dict(t_f=2.0), lambda: _shot_bundle(spec, 2.0, 201)),
    ]
    assert sorted(family for family, _, _ in cases) == sorted(protocols._FAMILIES)
    for family, kwargs, direct in cases:
        bundle = protocols.build(spec, protocols.ProtocolParams(family=family, grid_n=201, **kwargs))
        assert len(bundle.curve.b) == len(bundle.profile.omega2)
        # build only checks and dispatches: the bundle of the family's own closed forms
        ref = direct()
        assert isinstance(bundle, protocols.ProtocolBundle) and isinstance(ref, protocols.ProtocolBundle)
        assert bundle.curve.grid == ref.curve.grid
        for name in ("b", "bdot", "bddot", "bdddot"):
            assert np.array_equal(getattr(bundle.curve, name), getattr(ref.curve, name)), (family, name)
        assert np.array_equal(bundle.profile.omega2, ref.profile.omega2), family
        assert np.array_equal(bundle.profile.domega2, ref.profile.domega2), family
        assert bundle.profile.impulses == ref.profile.impulses
        assert bundle.extra == ref.extra


def test_two_step_bundles_carry_their_switching_times(spec):
    for bb, steps in [(make(spec, "bang_bang", n=201, omega1=1.0, omega2=1.0), (1.0, 1.0)),
                      (make(spec, "bang_bang_na", n=201, beta=1.0), (0.0, 1.0))]:
        t1, t2 = protocols.bang_bang_times(spec, *steps)
        assert bb.extra == {"t1": t1, "t2": t2, "omega1": steps[0], "omega2": steps[1]}
        assert bb.curve.grid.t_f == t1 + t2


def test_readme_family_table_lists_exactly_the_families():
    # the README's family table names every family build takes, and only those
    table = README.read_text(encoding="utf-8").split("| family | description |\n")[1]
    rows = table.split("\n\n")[0].splitlines()[1:]
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(names) == sorted(protocols._FAMILIES)


def test_build_is_the_only_public_bundle_constructor():
    # every other public function returns something else: times, a number, a shot
    returns_bundle = [name for name, fn in vars(protocols).items()
                      if inspect.isfunction(fn) and fn.__module__ == protocols.__name__
                      and not name.startswith("_")
                      and inspect.signature(fn).return_annotation in ("ProtocolBundle", protocols.ProtocolBundle)]
    assert returns_bundle == ["build"]


def _named_edge(spec, params, what):
    """The edge that build's refusal of ``params`` names: "... below t_f ~ X"
    or "... above gamma ~ X"."""
    with pytest.raises(ValueError, match=rf"{what} ~ \S+$") as exc:
        protocols.build(spec, params)
    return float(str(exc.value).rsplit("~ ", 1)[1])


def _assert_finite_run(spec, bundle):
    """The curve, profile, energy trace and (where defined) power of a bundle
    are finite, with no float overflow or invalid operation on the way."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        c, p = bundle.curve, bundle.profile
        trace = energies.full_trace(c, p, spec)
        rows = [c.b, c.bdot, c.bddot, c.bdddot, p.omega2, p.domega2, trace.E, trace.K, trace.V]
        values = [trace.avg_E, trace.avg_K, trace.avg_V, trace.delta_delta,
                  *(s for _, s in p.impulses)]
        try:
            pw = energies.power(c, p, spec)
        except PowerUndefined:      # kicks, or gamma = 1
            assert p.impulses or spec.gamma == 1.0
        else:
            rows += [pw.P_rel]
            values += [pw.integral, pw.peak_rel]
    assert all(np.isfinite(r).all() for r in rows) and all(map(math.isfinite, values))


@pytest.mark.parametrize("gamma", [1.0, 10.0, 1e30, 2.9e61])
@pytest.mark.parametrize("family", ["quintic", "septic", "quasi_optimal", "dirac", "hybrid",
                                    "linear_bottom", "constant_power"])
def test_duration_too_short_for_the_closed_form_refused(family, gamma):
    # at t_f = 1e-200 the polynomial pieces used to divide by an underflowed
    # t_f^3 and write NaN and inf; just inside the named edge all is finite
    spec = TrapSpec.from_gamma(gamma)
    t_min = _named_edge(spec, protocols.ProtocolParams(family, 1e-200, grid_n=201), "below t_f")
    _assert_finite_run(spec, protocols.build(spec, protocols.ProtocolParams(family, 1.01 * t_min,
                                                                            grid_n=201)))


def test_hybrid_cap_too_short_for_the_closed_form_refused(spec):
    # a cap's bdddot = 6 (gamma - 1)/(tau^2 t_f) overflowed at caps far shorter
    # than t_f/10 inside the duration's own edge; just inside the cap's edge every
    # value is finite, and so are the benchmark's shortest caps, 0.02 t_f at t_f 0.1
    def request(tau_l, tau_s=1e-96):
        return protocols.ProtocolParams("hybrid", 1e-95, tau_l=tau_l, tau_s=tau_s, grid_n=201)

    with pytest.raises(ValueError, match=r"^launching cap tau_l = 1e-110 is too short for t_f = 1e-95 at "
                                         r"gamma = 10: its closed form overflows below tau ~ 2.359e-103$"):
        protocols.build(spec, request(1e-110))
    tau_min = _named_edge(spec, request(1e-110), "below tau")
    assert _named_edge(spec, request(1e-96, 1e-110), "below tau") == tau_min
    _assert_finite_run(spec, protocols.build(spec, request(1.01 * tau_min)))
    for gamma in (1.5, 100.0):
        _assert_finite_run(TrapSpec.from_gamma(gamma), protocols.build(
            TrapSpec.from_gamma(gamma), protocols.ProtocolParams("hybrid", 0.1, tau_l=0.002, tau_s=0.002)))


def test_two_step_duration_too_short_for_the_closed_form_refused():
    # the sinh segment's g'^3 used to overflow at gamma 1e50 and t_f 0.5, and
    # with given steps at gamma 2.9e61.  The edge gamma^(2/3) 8.2e-101 (1.77e-67
    # at gamma 1e50) lies below every duration the step frequencies reach, so
    # those build finite, and only a solved duration below it is refused
    spec = TrapSpec.from_gamma(1e50)
    with np.errstate(all="raise"):
        _assert_finite_run(spec, protocols.build(spec, protocols.ProtocolParams("bang_bang", 0.5,
                                                                                grid_n=201)))
    big = TrapSpec.from_gamma(2.9e61)
    _assert_finite_run(big, protocols.build(big, protocols.ProtocolParams("bang_bang", omega1=1.0,
                                                                          omega2=1.0, grid_n=201)))
    times = {"t1": 0.0, "t2": 1e-70, "omega1": 1.0, "omega2": 1.0}
    with pytest.raises(ValueError, match=r"t_f = 1e-70 is too short .* below t_f ~ 1.772e-67$"):
        protocols._bang_bang_bundle(spec, times, 201)


@pytest.mark.parametrize("family, t_f", [
    ("quintic", 5.0), ("septic", 5.0), ("hybrid", 5.0), ("linear_bottom", 5.0),
    ("constant_power", 5.0), ("quasi_optimal", 1e30), ("dirac", 1e30),
])
def test_gamma_too_large_for_the_closed_form_refused(family, t_f):
    # at gamma = 1e62, b^5 in d(W^2)/dtau used to overflow into inf and NaN averages
    g_max = _named_edge(TrapSpec.from_gamma(1e62), protocols.ProtocolParams(family, t_f, grid_n=201),
                        "above gamma")
    spec = TrapSpec.from_gamma(0.999 * g_max)
    _assert_finite_run(spec, protocols.build(spec, protocols.ProtocolParams(family, t_f, grid_n=201)))


@pytest.mark.parametrize("steps", [dict(omega1=1.0, omega2=1.0), dict(beta=1.0)])
def test_gamma_edge_holds_for_step_inputs(steps):
    family = "bang_bang" if "omega1" in steps else "bang_bang_na"
    with pytest.raises(ValueError, match="too large for a protocol: .* above gamma ~ 2.953e"):
        protocols.build(TrapSpec.from_gamma(1e62), protocols.ProtocolParams(family, **steps))


def test_a_second_step_lost_in_the_duration_is_named():
    # at gamma 2.9e61, beta = 1 gives t1 = 2.9e61 and t2 = 3.4e-62, so
    # t1 + t2 == t1; the grid used to refuse its edges instead
    message = (r"^beta = 1 \(the stopping frequency omega2\): the second step t2 = 3.44828e-62 "
               r"is lost in t1 \+ t2 = t1 = 2.9e\+61: it is below t1's float spacing$")
    with pytest.raises(ValueError, match=message):
        make(TrapSpec.from_gamma(2.9e61), "bang_bang_na", beta=1.0)


def test_bundle_docstring_names_the_extra_keys():
    doc = protocols.ProtocolBundle.__doc__
    for key in ("t1", "t2", "omega1", "omega2", "mismatch"):
        assert re.search(rf"\b{key}\b", doc), key


@pytest.mark.parametrize("ctor", [
    lambda spec: make(spec, "quintic", 25.0, 201),
    lambda spec: make(spec, "hybrid", 30.0, 201, tau_l=4.0, tau_s=6.0),
    lambda spec: make(spec, "dirac", 5.0, 201),
], ids=["quintic", "hybrid", "dirac"])
def test_closed_form_omega2_of_a_float_is_a_number(spec, ctor):
    profile = ctor(spec).profile
    value = profile.piece_callable(0)(3.0)
    assert not isinstance(value, np.ndarray)
    assert value == profile.piece_callable(0)(np.array([3.0]))[0]


@pytest.mark.parametrize("family", ["quintic", "quasi_optimal", "linear_bottom"])
def test_designed_families_carry_the_inverse_engineered_profile(spec, family):
    bundle = make(spec, family, 3.0, 201)
    redone = ermakov.inverse_engineer(bundle.curve)
    assert np.array_equal(bundle.profile.omega2, redone.omega2)
    assert np.array_equal(bundle.profile.domega2, redone.domega2)
    assert bundle.profile.impulses == () and bundle.extra == {}


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
    # shape inputs of another family: a nonzero c3/c4 outside septic, a cap outside hybrid
    ("quintic", dict(t_f=2.0, c3=5.0, c4=2.0, tau_l=1.0, tau_s=1.0),
     "quintic family does not use c3/c4/tau_l/tau_s$"),
    ("septic", dict(t_f=2.0, tau_l=1.0), "septic family does not use tau_l$"),
    ("hybrid", dict(t_f=20.0, c3=1.0), "hybrid family does not use c3$"),
    ("dirac", dict(t_f=2.0, tau_s=0.0), "dirac family does not use tau_s$"),
    ("bang_bang", dict(omega1=1.0, omega2=1.0, c4=-1.0), "bang_bang family does not use c4$"),
    ("bang_bang_na", dict(t_f=12.0, c3=-1e-300), "bang_bang_na family does not use c3$"),
    # a shape that is not a finite number, refused by the request itself: a NaN
    # used to give an all-NaN septic, and an infinite one NaN averages
    ("septic", dict(t_f=2.0, c3=math.nan), r"^c3 must be finite \(got nan\)$"),
    ("septic", dict(t_f=2.0, c4=math.inf), r"^c4 must be finite \(got inf\)$"),
    ("septic", dict(t_f=2.0, c3=-math.inf), r"^c3 must be finite \(got -inf\)$"),
])
def test_build_refuses_ignored_or_conflicting_step_inputs(spec, family, inputs, message):
    with pytest.raises(ValueError, match=message):
        protocols.build(spec, protocols.ProtocolParams(family=family, grid_n=101, **inputs))


def test_septic_shape_takes_gamma_s_place_in_the_scale_check():
    # |b| <= gamma + |c3| + |c4|, and that bound is the gamma of both scale edges:
    # c3 = 1e300 at gamma 3 and t_f 2.8e6 used to overflow
    spec = TrapSpec.from_gamma(3.0)
    with pytest.raises(ValueError, match=r"^the septic's \|b\| <= gamma \+ \|c3\| \+ \|c4\| = 1e\+300 "
                                         r"takes gamma's place: .* above gamma ~ 2.953e\+61$"):
        protocols.build(spec, protocols.ProtocolParams("septic", 2.8e6, c3=1e300))
    # just inside the edge that a shape names, every value is finite (a shape that
    # keeps its ends: c4 = 1e30 loses them to round-off and is refused for that)
    shape = dict(c4=1e14, grid_n=201)
    t_min = _named_edge(spec, protocols.ProtocolParams("septic", 1e-95, **shape), "below t_f")
    assert t_min == pytest.approx((3.0 + 1e14) ** (2.0 / 3.0) * protocols._T_PER_GAMMA, rel=1e-3)
    _assert_finite_run(spec, protocols.build(spec, protocols.ProtocolParams("septic", 1.01 * t_min,
                                                                            **shape)))


@pytest.mark.parametrize("family", protocols._FAMILIES)
def test_build_takes_a_zero_septic_shape_as_unset(spec, family):
    # every family accepts c3 = c4 = 0, the values a request without a septic shape holds
    zero = protocols.build(spec, protocols.ProtocolParams(family, 12.0, c3=-0.0, c4=0.0, grid_n=101))
    bare = protocols.build(spec, protocols.ProtocolParams(family, 12.0, grid_n=101))
    assert np.array_equal(zero.curve.b, bare.curve.b)


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
                # exact zeros of either sign, as the gamma = 1 polynomials have
                c = rng.normal(size=degree + 1)
                c[rng.random(degree + 1) < 0.5] = 0.0
                yield [-0.0 if z and rng.random() < 0.5 else v for v, z in zip(c.tolist(), c == 0.0)]
        yield [1.0, 0.0, 0.0, 0.0, -0.0, 0.0]   # quintic at gamma = 1
        yield [1.0, 0.0, 0.0, 0.0, 0.0, -0.0, 0.0, -0.0]   # septic at gamma = 1, c3 = c4 = 0
        yield [1.0, 0.0, 0.0, -0.0]   # launching cap at gamma = 1

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


def _piece(name):
    """(curve, piece index) of each closed-form piece kind at gamma 10."""
    spec = TrapSpec.from_gamma(10.0)
    return {
        "poly": lambda: (make(spec, "quintic", 3.0, 201).curve, 0),
        "septic": lambda: (make(spec, "septic", 3.0, 201, c3=7.5, c4=-20.0).curve, 0),
        "stopping_cap": lambda: (make(spec, "hybrid", 30.0, 301, tau_l=4.0, tau_s=6.0).curve, 2),
        "quasi_optimal": lambda: (make(spec, "quasi_optimal", 3.0, 201).curve, 0),
        "bang_bang_step1": lambda: (make(spec, "bang_bang", n=201, omega1=1.0, omega2=1.0).curve, 0),
        "bang_bang_step1_series": lambda: (make(spec, "bang_bang", n=201, omega1=1e-120, omega2=0.5).curve, 0),
        "bang_bang_step1_omega1_zero": lambda: (make(spec, "bang_bang_na", n=201, beta=0.5).curve, 0),
        "bang_bang_step2": lambda: (make(spec, "bang_bang", n=201, omega1=1.0, omega2=1.0).curve, 1),
    }[name]()


PIECES = ("poly", "septic", "stopping_cap", "quasi_optimal", "bang_bang_step1",
          "bang_bang_step1_series", "bang_bang_step1_omega1_zero", "bang_bang_step2")


class TestPieceContract:
    """A closed-form piece maps times t to (b, bdot, bddot, bdddot) at t."""

    @pytest.mark.parametrize("name", PIECES)
    def test_piece_on_its_nodes_is_the_stored_columns(self, name):
        curve, k = _piece(name)
        lo, hi = curve.grid.pieces[k]
        cols = curve.fns[k](curve.grid.nodes[lo : hi + 1])
        for got, stored in zip(cols, (curve.b, curve.bdot, curve.bddot, curve.bdddot), strict=True):
            assert np.all(got == stored[lo : hi + 1])

    @pytest.mark.parametrize("name", PIECES)
    def test_each_derivative_is_the_slope_of_the_one_below(self, name):
        curve, k = _piece(name)
        e0, e1 = curve.grid.edges[k], curve.grid.edges[k + 1]
        h = 1e-5 * (e1 - e0)  # truncation and round-off both below 1e-7 here
        t = np.linspace(e0 + h, e1 - h, 2001)
        below, at, above = (curve.fns[k](x) for x in (t - h, t, t + h))
        for i in range(3):
            slope = (above[i] - below[i]) / (2.0 * h)
            assert np.max(np.abs(slope - at[i + 1])) <= 1e-6 * np.max(np.abs(at[i + 1]))

    def test_septic_coef_is_the_septic_piece(self):
        # the septic search builds its rows from _septic_coef
        spec = TrapSpec.from_gamma(10.0)
        curve = make(spec, "septic", 3.0, 201, c3=7.5, c4=-20.0).curve
        piece = protocols._poly_fns(protocols._Poly(protocols._septic_coef(10.0, 7.5, -20.0)), 3.0)
        cols = piece(curve.grid.nodes)
        for got, stored in zip(cols, (curve.b, curve.bdot, curve.bddot, curve.bdddot), strict=True):
            assert np.all(got == stored)


def _exact_radicand(mp, kind, gamma, bundle):
    """The radicand g(t) of a b = sqrt(g) piece of ``bundle`` in mpmath: its
    quasi-optimal curve, or step ``kind`` 1 or 2 of its two-step protocol."""
    g, x = mp.mpf(gamma), bundle.extra
    if kind == "quasi_optimal":
        T = mp.mpf(bundle.curve.grid.t_f)
        B = mp.sqrt(T**2 + g**2) - 1
        return lambda t: 1 + 2 * B * t / T + (B**2 - T**2) * (t / T) ** 2
    if kind == 1:
        w = mp.mpf(x["omega1"])
        return lambda t: 1 + (1 + w**2) * mp.sinh(w * t) ** 2 / w**2
    w, T = mp.mpf(x["omega2"]), mp.mpf(x["t1"] + x["t2"])
    return lambda t: g**2 + (1 - g**4 * w**2) / (g * w) ** 2 * mp.sin(w * (T - t)) ** 2


# name -> (kind, gamma, t_f or omega1, omega2): each quasi-optimal case, and the
# first (1) or second (2) step of the two-step protocol at gamma 10
SQRT_PIECES = {
    **{f"quasi_optimal_{g:g}_{tf:g}": ("quasi_optimal", g, tf, None) for g, tf in
       ((1.0, 0.5), (1.5, 3.0), (10.0, 1.0), (10.0, 50.0), (1e3, 1e-2), (1e3, 1e5))},
    "bang_bang_step1_series": (1, 10.0, 9.9e-101, 0.5),   # just below the series switch 1e-100
    "bang_bang_step1_sinh": (1, 10.0, 1e-100, 0.5),       # at it
    "bang_bang_step1": (1, 10.0, 1.0, 1.0),
    "bang_bang_step2": (2, 10.0, 1.0, 1.0),
    "bang_bang_step2_slow": (2, 10.0, 1.01e-6, 0.5),
}


@pytest.mark.parametrize("name", SQRT_PIECES)
def test_sqrt_columns_match_mpmath_derivatives(name):
    """Each of b, bdot, bddot, bdddot of a b = sqrt(g) piece within 4e-15 of
    its column's largest magnitude, against mpmath's derivatives of sqrt(g)."""
    mp = pytest.importorskip("mpmath")
    kind, gamma, first, omega2 = SQRT_PIECES[name]
    spec = TrapSpec.from_gamma(gamma)
    if kind == "quasi_optimal":
        bundle, k = make(spec, "quasi_optimal", first, 201), 0
    else:
        bundle, k = make(spec, "bang_bang", n=201, omega1=first, omega2=omega2), kind - 1
    curve = bundle.curve
    lo, hi = curve.grid.pieces[k]
    t = curve.grid.nodes[lo : hi + 1 : 5]
    got = curve.fns[k](t)
    with mp.workdps(40):
        radicand = _exact_radicand(mp, kind, gamma, bundle)
        exact = np.array([[float(d) for d in mp.diffs(lambda x: mp.sqrt(radicand(x)), mp.mpf(float(x)), 3)]
                          for x in t]).T
    for j in range(4):
        scale = np.max(np.abs(exact[j]))
        assert np.max(np.abs(got[j] - exact[j])) <= 4e-15 * scale, j
