import hashlib

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from staexpand import TimeGrid, TrapSpec, energies, ermakov, protocols
from staexpand.core import (
    FrequencyProfile,
    GridMismatch,
    NonRealFrequency,
    ScalingCurve,
    TrajectoryBlowUp,
)

from rk4_reference import rk4_solve


@pytest.fixture
def spec():
    return TrapSpec.from_gamma(10.0)


def static_pair(n=201, t_f=2.0):
    grid = TimeGrid.uniform(t_f, n)
    curve = ScalingCurve(grid, np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n))
    profile = FrequencyProfile(grid, np.ones(n), np.zeros(n))
    return curve, profile


class TestResidual:
    def test_static_equilibrium(self):
        curve, profile = static_pair()
        assert ermakov.ermakov_residual(curve, profile) == 0.0

    def test_quintic_inverse_engineered(self, spec):
        c = protocols.quintic(spec, 3.0).curve
        assert ermakov.ermakov_residual(c, ermakov.inverse_engineer(c)) < 1e-10

    def test_bang_bang_closed_forms(self, spec):
        bb = protocols.bang_bang(spec, 2.0, 3.0)
        assert ermakov.ermakov_residual(bb.curve, bb.profile) < 1e-9

    def test_grid_mismatch(self, spec):
        c = protocols.quintic(spec, 3.0).curve
        other = ermakov.inverse_engineer(protocols.quintic(spec, 3.0, n=1001).curve)
        with pytest.raises(GridMismatch):
            ermakov.ermakov_residual(c, other)


class TestInverseEngineer:
    def test_static(self):
        curve, _ = static_pair()
        p = ermakov.inverse_engineer(curve)
        assert np.max(np.abs(p.omega2 - 1.0)) == 0.0

    def test_quintic_endpoint_frequencies(self, spec):
        p = ermakov.inverse_engineer(protocols.quintic(spec, 25.0).curve)
        assert float(p.omega2[0]) == pytest.approx(1.0, abs=1e-12)
        assert float(p.omega2[-1]) == pytest.approx(1e-4, rel=1e-10)

    def test_fast_quintic_has_imaginary_band(self, spec):
        p = ermakov.inverse_engineer(protocols.quintic(spec, 1.0).curve)
        assert p.has_imaginary
        assert float(np.min(p.omega2)) < 0.0


class TestForwardSolve:
    def test_equilibrium(self):
        _, profile = static_pair()
        c = ermakov.forward_solve(profile)
        assert np.max(np.abs(c.b - 1.0)) < 1e-12

    def test_round_trip_quintic(self, spec):
        c = protocols.quintic(spec, 25.0).curve
        c2 = ermakov.forward_solve(ermakov.inverse_engineer(c))
        assert np.max(np.abs(c2.b - c.b)) < 1e-6

    def test_impulse_protocol_reaches_target(self, spec):
        bundle = protocols.dirac_impulse(spec, 1.0)
        curve, profile = bundle.curve, bundle.profile
        solved = ermakov.forward_solve(profile)
        b_f = float(solved.b[-1])
        df = profile.impulses[1][1]  # the final kick stops the slope
        assert b_f == pytest.approx(10.0, abs=1e-6)
        assert abs(solved.bf_minus_dot - df * b_f) < 1e-6

    def test_impulse_jump_rule(self, spec):
        # bdot jumps by exactly -D b across a kick
        bundle = protocols.dirac_impulse(spec, 1.0)
        curve, profile = bundle.curve, bundle.profile
        solved = ermakov.forward_solve(profile)
        d0 = profile.impulses[0][1]
        assert solved.b0_plus_dot == pytest.approx(-d0 * float(solved.b[0]), rel=1e-12)
        assert profile.impulses[1][0] == solved.grid.t_f
        assert solved.bf_minus_dot == float(solved.bdot[-1])  # before the final kick

    def test_collapse_aborts_with_time(self):
        # a fast fall on a coarse grid steps straight through the 1/b^3 barrier
        grid = TimeGrid.uniform(1.0, 11)
        profile = FrequencyProfile(grid, np.zeros(11), np.zeros(11))
        with pytest.raises(TrajectoryBlowUp) as exc:
            ermakov.forward_solve(profile, b0=1.0, bdot0=-20.0)
        assert "stability limit" not in str(exc.value)  # W = 0: no step is unstable

    def test_unstable_step_is_named(self):
        # quintic gamma 3, t_f 40 has max W = 1, so 21 nodes (h = 2) exceed
        # RK4's limit h max W = sqrt(2) for b's oscillation at 2W; 41 do not
        spec = TrapSpec.from_gamma(3.0)
        profile = ermakov.inverse_engineer(protocols.quintic(spec, 40.0, 21).curve)
        with pytest.raises(TrajectoryBlowUp) as exc:
            ermakov.forward_solve(profile)
        assert str(exc.value) == (
            "scaling function collapsed toward b = 0 (t = 21): the step h = 2 gives "
            "h*max W = 2, above RK4's stability limit sqrt(2) = 1.41421; refine the grid"
        )
        assert exc.value.t == 21.0
        curve = protocols.quintic(spec, 40.0, 41).curve
        solved = ermakov.forward_solve(ermakov.inverse_engineer(curve))
        assert np.max(np.abs(solved.b - curve.b)) < 1e-3

    def test_bang_bang_profile_round_trip(self, spec):
        bb = protocols.bang_bang(spec, 1.0, 1.0)
        solved = ermakov.forward_solve(bb.profile)
        assert np.max(np.abs(solved.b - bb.curve.b)) < 1e-6


def round_trip_error(curve, profile):
    return float(np.max(np.abs(ermakov.forward_solve(profile).b - curve.b)))


def constant_power(n):
    """The constant-power shot (gamma 10, t_f 30) and its control, which
    has stored W^2 and d(W^2)/dtau samples but no closed form."""
    curve, _ = protocols.constant_power_shoot(TrapSpec.from_gamma(10.0), 30.0, n)
    profile = ermakov.inverse_engineer(curve)
    assert profile.omega2_fns is None
    return curve, profile


class TestHermiteInterpolant:
    """A piece without a closed form is read through the cubic Hermite
    interpolant of its W^2 samples and slopes."""

    def test_node_values_are_the_samples(self):
        _, profile = constant_power(501)
        assert np.all(profile.piece_callable(0)(profile.grid.nodes) == profile.omega2)

    def test_cubic_with_its_derivative_is_reproduced_at_midpoints(self):
        def w2(t):
            return 0.7 - 1.3 * t + 0.4 * t**2 - 0.05 * t**3

        def dw2(t):
            return -1.3 + 0.8 * t - 0.15 * t**2

        grid = TimeGrid.piecewise([0.0, 1.5, 4.0], 201)
        profile = FrequencyProfile(grid, w2(grid.nodes), domega2=dw2(grid.nodes))
        for k, (lo, hi) in enumerate(grid.pieces):
            x = grid.nodes[lo : hi + 1]
            mid = 0.5 * (x[:-1] + x[1:])
            err = np.max(np.abs(profile.piece_callable(k)(mid) - w2(mid)))
            assert err <= 4e-15 * np.max(np.abs(w2(x)))

    def test_constant_power_round_trip_converges_at_fourth_order(self):
        errs = [round_trip_error(*constant_power(n)) for n in (501, 1001, 2001)]
        assert errs[0] >= 8.0 * errs[1] and errs[1] >= 8.0 * errs[2], errs

    @pytest.mark.parametrize("n", [501, 1001, 2001])
    def test_constant_power_round_trip_as_close_as_a_cubic_spline(self, n):
        curve, profile = constant_power(n)
        spline = CubicSpline(profile.grid.nodes, profile.omega2)
        reference = FrequencyProfile(profile.grid, profile.omega2, spline(profile.grid.nodes, 1),
                                     omega2_fns=(spline,))
        assert round_trip_error(curve, profile) <= 1.05 * round_trip_error(curve, reference)


class TestExcitationEnergy:
    # the fictitious particle's excitation above the moving minimum of
    # U = (W^2 b^2 + 1/b^2)/2 is twice the ground-state non-adiabatic energy
    def test_static_trap_zero(self, spec):
        curve, profile = static_pair()
        e_na, avg, avg2 = energies.nonadiabatic_energy(curve, profile, spec)
        assert np.max(np.abs(e_na)) == 0.0
        assert avg == 0.0 and avg2 == 0.0

    def test_rejects_imaginary_band(self, spec):
        c = protocols.quintic(spec, 1.0).curve
        with pytest.raises(NonRealFrequency):
            energies.nonadiabatic_energy(c, ermakov.inverse_engineer(c), spec)

    def test_nonnegative_for_real_frequency(self, spec):
        c = protocols.quintic(spec, 50.0).curve
        e_na, _, _ = energies.nonadiabatic_energy(c, ermakov.inverse_engineer(c), spec)
        assert float(np.min(e_na)) >= 0.0


# --- fast integrators against the generic closure RK4 ----------------------


def reference_forward_solve(profile, b0=1.0, bdot0=0.0):
    """forward_solve written as a closure right-hand side for rk4_solve."""
    grid = profile.grid
    b, bdot = np.empty(len(grid)), np.empty(len(grid))
    state = np.array([float(b0), float(bdot0)])
    for ti, s in profile.impulses:
        if ti == 0.0:   # a profile holds kicks at t = 0 and t_f only
            state[1] -= s * state[0]
    b0_plus = float(state[1])
    for k, (lo, hi) in enumerate(grid.pieces):
        om = profile.piece_callable(k)

        def rhs(t, y, om=om):
            if y[0] < 1e-9:
                raise TrajectoryBlowUp("collapse", float(t))
            return np.array([y[1], 1.0 / y[0] ** 3 - float(om(t)) * y[0]])

        nodes = grid.nodes[lo : hi + 1]
        traj = rk4_solve(rhs, state, nodes)
        b[lo : hi + 1], bdot[lo : hi + 1] = traj[:, 0], traj[:, 1]
        state = traj[-1].copy()
    return b, bdot, b0_plus


def reference_shoot(spec, t_f, n):
    source = 2.0 * (1.0 - spec.omega_f_rel) / t_f

    def rhs(t, y):
        b, b1, b2 = y
        if b < 1e-9:
            raise TrajectoryBlowUp("collapse", float(t))
        return np.array([b1, b2, (source + b2 * b1 - 4.0 * b1 / b**3) / b])

    traj = rk4_solve(rhs, [1.0, 0.0, 0.0], TimeGrid.uniform(t_f, n).nodes)
    b, b1, b2 = traj.T
    return b, b1, b2, (source + b2 * b1 - 4.0 * b1 / b**3) / b


def _profiles(n):
    spec = TrapSpec.from_gamma(10.0)
    cp, _ = protocols.constant_power_shoot(spec, 30.0, n)
    lb = protocols.linear_bottom(spec, 20.0, n)
    return {
        "quintic": (protocols.quintic(spec, 25.0, n).profile, 0.0),
        "septic": (protocols.septic(spec, 25.0, 4.0, -3.0, n).profile, 0.0),
        "hybrid": (protocols.hybrid_caps(spec, 30.0, 4.0, 6.0, n).profile, 0.0),
        "dirac": (protocols.dirac_impulse(spec, 5.0, n).profile, 0.0),
        "bang_bang": (protocols.bang_bang(spec, 1.0, 1.0, n).profile, 0.0),
        "linear_bottom": (lb.profile, float(lb.curve.bdot[0])),
        "constant_power": (ermakov.inverse_engineer(cp), 0.0),  # Hermite path: no closed form
    }


class TestFastIntegratorsMatchReference:
    @pytest.mark.parametrize("n", [501, 2001])
    def test_forward_solve(self, n):
        for name, (profile, bdot0) in _profiles(n).items():
            if name == "bang_bang":
                assert profile.grid.n_pieces == 2
            if name == "constant_power":
                assert profile.omega2_fns is None
            b_ref, bdot_ref, b0_plus = reference_forward_solve(profile, 1.0, bdot0)
            got = ermakov.forward_solve(profile, 1.0, bdot0)
            for x, ref in ((got.b, b_ref), (got.bdot, bdot_ref)):
                err = np.max(np.abs(x - ref))
                assert err <= 1e-12 * np.max(np.abs(ref)), (name, err)
            assert got.b0_plus_dot == b0_plus
            assert abs(got.bf_minus_dot - bdot_ref[-1]) <= 1e-12 * np.max(np.abs(bdot_ref))
            bddot = 1.0 / got.b**3 - profile.omega2 * got.b
            assert np.array_equal(got.bddot, bddot)
            bdddot = -3.0 * got.bdot / got.b**4 - profile.domega2 * got.b - profile.omega2 * got.bdot
            assert np.array_equal(got.bdddot, bdddot)

    @pytest.mark.parametrize(
        "gamma, t_f, n", [(10.0, 30.0, 501), (10.0, 30.0, 2001), (7.7, 31.7, 501), (1.0, 5.0, 201)]
    )
    def test_shoot_bit_identical(self, gamma, t_f, n):
        spec = TrapSpec.from_gamma(gamma)
        curve, mism = protocols.constant_power_shoot(spec, t_f, n)
        b, b1, b2, b3 = reference_shoot(spec, t_f, n)
        for x, ref in ((curve.b, b), (curve.bdot, b1), (curve.bddot, b2), (curve.bdddot, b3)):
            assert np.array_equal(x, ref)
        assert mism == protocols.ShootingMismatch(
            float(b[-1] - spec.gamma), float(b1[-1]), float(b2[-1])
        )

    @staticmethod
    def _blowup_times(solve, reference):
        with pytest.raises(TrajectoryBlowUp) as ref:
            reference()
        with pytest.raises(TrajectoryBlowUp) as got:
            solve()
        return got.value.t, ref.value.t

    @pytest.mark.parametrize("n, bdot0", [(3, -4.0), (11, -20.0), (11, -15.0), (11, -8.0), (21, -15.0)])
    def test_collapse_time(self, n, bdot0):
        # free fall onto the 1/b^3 barrier, caught at a mid or end stage
        grid = TimeGrid.uniform(1.0, n)
        profile = FrequencyProfile(grid, np.zeros(n), np.zeros(n))
        got, ref = self._blowup_times(
            lambda: ermakov.forward_solve(profile, 1.0, bdot0),
            lambda: reference_forward_solve(profile, 1.0, bdot0),
        )
        assert got == ref

    @pytest.mark.parametrize("gamma, t_f, n", [(100.0, 1000.0, 3), (100.0, 1000.0, 201), (1000.0, 30.0, 11)])
    def test_shoot_collapse_time(self, gamma, t_f, n):
        spec = TrapSpec.from_gamma(gamma)
        got, ref = self._blowup_times(
            lambda: protocols.constant_power_shoot(spec, t_f, n),
            lambda: reference_shoot(spec, t_f, n),
        )
        assert got == ref

    @pytest.mark.parametrize("w2", [-1e4, -1e6, np.nan])
    def test_non_finite_time(self, w2):
        # a deep imaginary band overflows b (b**3 first, past ~5.6e102);
        # a NaN control poisons the state on the first step
        grid = TimeGrid.uniform(10.0, 201)
        profile = FrequencyProfile(grid, np.full(201, w2), np.zeros(201),
                                   omega2_fns=(lambda t: w2 + 0.0 * t,))
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = self._blowup_times(
                lambda: ermakov.forward_solve(profile),
                lambda: reference_forward_solve(profile),
            )
        assert got == ref


# float.hex of b[-1] and bdot[-1], and the SHA-256 of b.tobytes() + bdot.tobytes(),
# of forward_solve on each _profiles(501) control
FORWARD_SOLVE_PINS = {
    "quintic": ("0x1.3fffffe747e16p+3", "-0x1.1d92e23290000p-30",
                "0d7f4f2797abd4ae513aa22f93a6bbcd7266d73fde31041e7a4fa449fcc0622f"),
    "septic": ("0x1.4000000aee67bp+3", "0x1.9ed6b63c00000p-34",
               "e09bed76f11d69eb5de8abc18bb7f952d23c358be7bc446746e01b350b779a28"),
    "hybrid": ("0x1.4000017b0a439p+3", "-0x1.b1d67af800000p-26",
               "fbfb17b4b4b1b0d3cbec5eb8e7c9998f1d9de2dcd40b289f20ad9cc6593d7dd2"),
    "dirac": ("0x1.3fffffff06518p+3", "0x1.c6c1b47385d87p+0",
              "8976e46153f9862a243000cee91dcb3e86d3377c0d11243686438869f5207d61"),
    "bang_bang": ("0x1.400000002c8d4p+3", "0x1.cc291c0000000p-34",
                  "56d8557bb6e2d2a15c47765221e2a40705b3e88133d540952a061826d6bcd2fa"),
    "linear_bottom": ("0x1.3ffffffffffe0p+3", "0x1.ccccccccccccdp-2",
                      "6e8d459d653358d744942112dc97dc2ac1af4c7dc7c95db5b8553659dbe1fe3b"),
    "constant_power": ("0x1.d4396307a28cbp+1", "0x1.a635f7947ab53p-2",
                       "19c485ab0b438801fd635eee07c9f0165d1be963d61b18eb6323292e243d026f"),
}


class TestForwardSolveReadsTheProfile:
    """Node W^2 comes from the stored samples, midpoint W^2 from one call of
    the piece's callable, and the result keeps its bits."""

    @pytest.mark.parametrize("name", sorted(FORWARD_SOLVE_PINS))
    def test_bits_are_pinned(self, name):
        profile, bdot0 = _profiles(501)[name]
        got = ermakov.forward_solve(profile, 1.0, bdot0)
        digest = hashlib.sha256(got.b.tobytes() + got.bdot.tobytes()).hexdigest()
        assert (float(got.b[-1]).hex(), float(got.bdot[-1]).hex(), digest) == FORWARD_SOLVE_PINS[name]

    def test_each_closed_form_is_called_once(self):
        grid = TimeGrid.piecewise([0.0, 1.0, 2.5, 4.0], 201)
        calls = [0] * grid.n_pieces

        def counting(k):
            def w2(t):
                calls[k] += 1
                return 1.0 + 0.0 * t
            return w2

        n = len(grid)
        profile = FrequencyProfile(grid, np.ones(n), np.zeros(n),
                                   omega2_fns=tuple(counting(k) for k in range(grid.n_pieces)))
        solved = ermakov.forward_solve(profile)
        assert calls == [1, 1, 1]
        assert np.max(np.abs(solved.b - 1.0)) < 1e-12

    @pytest.mark.parametrize("ctor", [
        lambda spec: protocols.quintic(spec, 25.0, 501),
        lambda spec: protocols.hybrid_caps(spec, 30.0, 4.0, 6.0, 501),
    ], ids=["quintic", "hybrid"])
    def test_polynomial_pieces_are_not_differentiated_per_solve(self, spec, ctor, monkeypatch):
        profile = ctor(spec).profile
        calls = []
        monkeypatch.setattr(protocols._Poly, "deriv", lambda self, m: calls.append(m))
        ermakov.forward_solve(profile)
        assert calls == []

