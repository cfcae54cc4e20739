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
    curve = ScalingCurve(grid, np.ones(n), np.zeros(n), np.zeros(n))
    profile = FrequencyProfile(grid, np.ones(n))
    return curve, profile


class TestResidual:
    def test_static_equilibrium(self):
        curve, profile = static_pair()
        assert ermakov.ermakov_residual(curve, profile) == 0.0

    def test_quintic_inverse_engineered(self, spec):
        c = protocols.quintic(spec, 3.0)
        assert ermakov.ermakov_residual(c, ermakov.inverse_engineer(c)) < 1e-10

    def test_bang_bang_closed_forms(self, spec):
        bb = protocols.bang_bang(spec, 2.0, 3.0)
        assert ermakov.ermakov_residual(bb.curve, bb.profile) < 1e-9

    def test_grid_mismatch(self, spec):
        c = protocols.quintic(spec, 3.0)
        other = ermakov.inverse_engineer(protocols.quintic(spec, 3.0, n=1001))
        with pytest.raises(GridMismatch):
            ermakov.ermakov_residual(c, other)


class TestInverseEngineer:
    def test_static(self):
        curve, _ = static_pair()
        p = ermakov.inverse_engineer(curve)
        assert np.max(np.abs(p.omega2 - 1.0)) == 0.0

    def test_quintic_endpoint_frequencies(self, spec):
        p = ermakov.inverse_engineer(protocols.quintic(spec, 25.0))
        assert float(p.omega2[0]) == pytest.approx(1.0, abs=1e-12)
        assert float(p.omega2[-1]) == pytest.approx(1e-4, rel=1e-10)

    def test_fast_quintic_has_imaginary_band(self, spec):
        p = ermakov.inverse_engineer(protocols.quintic(spec, 1.0))
        assert p.has_imaginary
        assert float(np.min(p.omega2)) < 0.0

    def test_finite_difference_fallback(self, spec):
        # samples-only curve: central differences give omega^2 to O(h^2)
        c = protocols.quintic(spec, 25.0)
        bare = ScalingCurve(c.grid, c.b, c.bdot)  # no bddot, no fns
        p_fd = ermakov.inverse_engineer(bare)
        p = ermakov.inverse_engineer(c)
        assert np.max(np.abs(p_fd.omega2 - p.omega2)) < 1e-3


class TestForwardSolve:
    def test_equilibrium(self):
        _, profile = static_pair()
        c = ermakov.forward_solve(profile)
        assert np.max(np.abs(c.b - 1.0)) < 1e-12

    def test_round_trip_quintic(self, spec):
        c = protocols.quintic(spec, 25.0)
        c2 = ermakov.forward_solve(ermakov.inverse_engineer(c))
        assert np.max(np.abs(c2.b - c.b)) < 1e-6

    def test_impulse_protocol_reaches_target(self, spec):
        curve, profile = protocols.dirac_impulse(spec, 1.0)
        solved = ermakov.forward_solve(profile)
        b_f = float(solved.b[-1])
        df = profile.impulses[1][1]  # the final kick stops the slope
        assert b_f == pytest.approx(10.0, abs=1e-6)
        assert abs(solved.bf_minus_dot - df * b_f) < 1e-6

    def test_impulse_jump_rule(self, spec):
        # bdot jumps by exactly -D b across a kick
        curve, profile = protocols.dirac_impulse(spec, 1.0)
        solved = ermakov.forward_solve(profile)
        d0 = profile.impulses[0][1]
        assert solved.b0_plus_dot == pytest.approx(-d0 * float(solved.b[0]), rel=1e-12)
        assert profile.impulses[1][0] == solved.grid.t_f
        assert solved.bf_minus_dot == float(solved.bdot[-1])  # before the final kick

    def test_collapse_aborts_with_time(self):
        # a fast fall on a coarse grid steps straight through the 1/b^3 barrier
        grid = TimeGrid.uniform(1.0, 11)
        profile = FrequencyProfile(grid, np.zeros(11))
        with pytest.raises(TrajectoryBlowUp):
            ermakov.forward_solve(profile, b0=1.0, bdot0=-20.0)

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
    assert profile.omega2_fns is None and profile.domega2 is not None
    return curve, profile


class TestHermiteInterpolant:
    """A piece without a closed form is read through the cubic Hermite
    interpolant of its W^2 samples and slopes."""

    def test_node_values_are_the_samples(self, spec):
        _, profile = constant_power(501)
        assert np.all(profile.piece_callable(0)(profile.grid.nodes) == profile.omega2)
        # bare samples of a piecewise control: one slope estimate per piece
        hybrid = ermakov.inverse_engineer(protocols.hybrid_caps(spec, 30.0, 4.0, 6.0, 501))
        bare = FrequencyProfile(hybrid.grid, hybrid.omega2)
        for k, (lo, hi) in enumerate(bare.grid.pieces):
            om = bare.piece_callable(k)
            assert np.all(om(bare.grid.nodes[lo : hi + 1]) == bare.omega2[lo : hi + 1])
            assert om(bare.grid.nodes[hi]) == bare.omega2[hi]
        assert len(bare._splines) == bare.grid.n_pieces

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
        reference = FrequencyProfile(profile.grid, profile.omega2, omega2_fns=(spline,))
        assert round_trip_error(curve, profile) <= 1.05 * round_trip_error(curve, reference)

    def test_bare_samples_round_trip(self, spec):
        curve = protocols.quintic(spec, 25.0, 2001)
        bare = FrequencyProfile(curve.grid, ermakov.inverse_engineer(curve).omega2)
        assert round_trip_error(curve, bare) < 1e-6


class TestExcitationEnergy:
    # the fictitious particle's excitation above the moving minimum of
    # U = (W^2 b^2 + 1/b^2)/2 is twice the ground-state non-adiabatic energy
    def test_static_trap_zero(self, spec):
        curve, profile = static_pair()
        e_na, avg, avg2 = energies.nonadiabatic_energy(curve, profile, spec)
        assert np.max(np.abs(e_na)) == 0.0
        assert avg == 0.0 and avg2 == 0.0

    def test_rejects_imaginary_band(self, spec):
        c = protocols.quintic(spec, 1.0)
        with pytest.raises(NonRealFrequency):
            energies.nonadiabatic_energy(c, ermakov.inverse_engineer(c), spec)

    def test_nonnegative_for_real_frequency(self, spec):
        c = protocols.quintic(spec, 50.0)
        e_na, _, _ = energies.nonadiabatic_energy(c, ermakov.inverse_engineer(c), spec)
        assert float(np.min(e_na)) >= 0.0


# --- fast integrators against the generic closure RK4 ----------------------


def reference_forward_solve(profile, b0=1.0, bdot0=0.0):
    """forward_solve written as a closure right-hand side for rk4_solve."""
    grid = profile.grid
    tol = 1e-9 * (1.0 + grid.t_f)

    def kick(state, t):
        for ti, s in profile.impulses:
            if abs(ti - t) <= tol:
                state[1] -= s * state[0]

    b, bdot = np.empty(len(grid)), np.empty(len(grid))
    state = np.array([float(b0), float(bdot0)])
    kick(state, 0.0)
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
        if k + 1 < grid.n_pieces:
            kick(state, float(nodes[-1]))
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
    lb_curve, lb_profile = protocols.linear_bottom(spec, 20.0, n)
    return {
        "quintic": (ermakov.inverse_engineer(protocols.quintic(spec, 25.0, n)), 0.0),
        "septic": (ermakov.inverse_engineer(protocols.septic(spec, 25.0, 4.0, -3.0, n)), 0.0),
        "hybrid": (ermakov.inverse_engineer(protocols.hybrid_caps(spec, 30.0, 4.0, 6.0, n)), 0.0),
        "dirac": (protocols.dirac_impulse(spec, 5.0, n)[1], 0.0),
        "bang_bang": (protocols.bang_bang(spec, 1.0, 1.0, n).profile, 0.0),
        "linear_bottom": (lb_profile, float(lb_curve.bdot[0])),
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
        profile = FrequencyProfile(grid, np.zeros(n))
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
        profile = FrequencyProfile(grid, np.full(201, w2), omega2_fns=(lambda t: w2 + 0.0 * t,))
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = self._blowup_times(
                lambda: ermakov.forward_solve(profile),
                lambda: reference_forward_solve(profile),
            )
        assert got == ref
