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

from protocol_requests import make
from rk4_reference import ermakov_rk4_solve, rk4_solve


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
        c = make(spec, "quintic", 3.0).curve
        assert ermakov.ermakov_residual(c, ermakov.inverse_engineer(c)) < 1e-10

    def test_bang_bang_closed_forms(self, spec):
        bb = make(spec, "bang_bang", omega1=2.0, omega2=3.0)
        assert ermakov.ermakov_residual(bb.curve, bb.profile) < 1e-9

    def test_grid_mismatch(self, spec):
        c = make(spec, "quintic", 3.0).curve
        other = ermakov.inverse_engineer(make(spec, "quintic", 3.0, 1001).curve)
        with pytest.raises(GridMismatch):
            ermakov.ermakov_residual(c, other)


class TestInverseEngineer:
    def test_static(self):
        curve, _ = static_pair()
        p = ermakov.inverse_engineer(curve)
        assert np.max(np.abs(p.omega2 - 1.0)) == 0.0

    def test_quintic_endpoint_frequencies(self, spec):
        p = ermakov.inverse_engineer(make(spec, "quintic", 25.0).curve)
        assert float(p.omega2[0]) == pytest.approx(1.0, abs=1e-12)
        assert float(p.omega2[-1]) == pytest.approx(1e-4, rel=1e-10)

    def test_fast_quintic_has_imaginary_band(self, spec):
        p = ermakov.inverse_engineer(make(spec, "quintic", 1.0).curve)
        assert p.has_imaginary
        assert float(np.min(p.omega2)) < 0.0


class TestForwardSolve:
    def test_equilibrium(self):
        _, profile = static_pair()
        c = ermakov.forward_solve(profile)
        assert np.max(np.abs(c.b - 1.0)) < 1e-12

    def test_round_trip_quintic(self, spec):
        c = make(spec, "quintic", 25.0).curve
        c2 = ermakov.forward_solve(ermakov.inverse_engineer(c))
        assert np.max(np.abs(c2.b - c.b)) < 1e-6

    def test_impulse_protocol_reaches_target(self, spec):
        bundle = make(spec, "dirac", 1.0)
        curve, profile = bundle.curve, bundle.profile
        solved = ermakov.forward_solve(profile)
        b_f = float(solved.b[-1])
        df = profile.impulses[1][1]  # the final kick stops the slope
        assert b_f == pytest.approx(10.0, abs=1e-6)
        assert abs(solved.bdot[-1] - df * b_f) < 1e-6

    def test_impulse_jump_rule(self, spec):
        # bdot jumps by exactly -D b across a kick
        bundle = make(spec, "dirac", 1.0)
        curve, profile = bundle.curve, bundle.profile
        solved = ermakov.forward_solve(profile)
        d0 = profile.impulses[0][1]
        assert solved.bdot[0] == pytest.approx(-d0 * float(solved.b[0]), rel=1e-12)
        assert profile.impulses[1][0] == solved.grid.t_f  # bdot[-1] is before the final kick

    @pytest.mark.parametrize("n, bdot0", [(3, -4.0), (11, -20.0), (11, -15.0), (11, -8.0), (21, -15.0)])
    def test_free_fall_is_exact(self, n, bdot0):
        # with W = 0, z = 1 + (bdot0 + i) t, so b^2 = (1 + bdot0 t)^2 + t^2
        # (1 - 40 t + 401 t^2 for bdot0 = -20): RK4 is exact on a line
        grid = TimeGrid.uniform(1.0, n)
        profile = FrequencyProfile(grid, np.zeros(n), np.zeros(n))
        solved = ermakov.forward_solve(profile, 1.0, bdot0)
        t = grid.nodes
        b = np.sqrt((1.0 + bdot0 * t) ** 2 + t**2)
        bdot = ((1.0 + bdot0 * t) * bdot0 + t) / b
        assert np.max(np.abs(solved.b / b - 1.0)) < 1e-12
        assert np.max(np.abs(solved.bdot - bdot)) < 1e-12 * np.max(np.abs(bdot))

    def test_unstable_step_is_named(self):
        # quintic gamma 3, t_f 40 has max W = 1 (W^2 = 1 at t = 0), so 21 nodes
        # (h = 2) exceed the step limit h max|W| = sqrt(2) and are refused
        # before any work; 41 nodes are not
        spec = TrapSpec.from_gamma(3.0)
        profile = ermakov.inverse_engineer(make(spec, "quintic", 40.0, 21).curve)
        with pytest.raises(TrajectoryBlowUp) as exc:
            ermakov.forward_solve(profile)
        assert str(exc.value) == (
            "the step h = 2 gives h*max|W| = 2, above RK4's stability limit "
            "sqrt(2) = 1.41421; refine the grid (t = 0)"
        )
        assert exc.value.t == 0.0
        curve = make(spec, "quintic", 40.0, 41).curve
        solved = ermakov.forward_solve(ermakov.inverse_engineer(curve))
        assert np.max(np.abs(solved.b - curve.b)) < 1e-3

    @pytest.mark.parametrize("b0", [0.0, -1.0, np.inf, np.nan])
    def test_start_must_be_positive(self, b0):
        _, profile = static_pair()
        with pytest.raises(ValueError, match="b0 must be positive and finite"):
            ermakov.forward_solve(profile, b0=b0)

    def test_bang_bang_profile_round_trip(self, spec):
        bb = make(spec, "bang_bang", omega1=1.0, omega2=1.0)
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
        c = make(spec, "quintic", 1.0).curve
        with pytest.raises(NonRealFrequency):
            energies.nonadiabatic_energy(c, ermakov.inverse_engineer(c), spec)

    def test_nonnegative_for_real_frequency(self, spec):
        c = make(spec, "quintic", 50.0).curve
        e_na, _, _ = energies.nonadiabatic_energy(c, ermakov.inverse_engineer(c), spec)
        assert float(np.min(e_na)) >= 0.0


# --- fast integrators against the per-step reference loops ----------------


def reference_forward_solve(profile, b0=1.0, bdot0=0.0):
    """forward_solve as the per-step loop ermakov_rk4_solve on each piece:
    b = |u + i w| from u = b0, u' = bdot0 (after the t = 0 kicks), w = 0
    and w' = 1/b0."""
    grid = profile.grid
    v0 = float(bdot0)
    for ti, s in profile.impulses:
        if ti == 0.0:   # a profile holds kicks at t = 0 and t_f only
            v0 -= s * b0
    rows = np.empty((len(grid), 4))
    state = (b0, v0, 0.0, 1.0 / b0)
    for k, (lo, hi) in enumerate(grid.pieces):
        rows[lo : hi + 1] = ermakov_rk4_solve(profile.piece_callable(k), state, grid.nodes[lo : hi + 1])
        state = rows[hi]
    u, du, w, dw = rows.T
    b = np.hypot(u, w)
    return b, (u * du + w * dw) / b, v0


def reference_shoot(spec, t_f, n):
    source = 2.0 * (1.0 - spec.omega_f_rel) / t_f

    def rhs(t, y):
        b, b1, b2 = y
        if b < 1e-9:
            raise TrajectoryBlowUp("collapse", float(t))
        return np.array([b1, b2, (source + b2 * b1 - 4.0 * b1 / (b * b * b)) / b])

    traj = rk4_solve(rhs, [1.0, 0.0, 0.0], TimeGrid.uniform(t_f, n).nodes)
    b, b1, b2 = traj.T
    return b, b1, b2, (source + b2 * b1 - 4.0 * b1 / (b * b * b)) / b


def _profiles(n):
    spec = TrapSpec.from_gamma(10.0)
    cp, _ = protocols.constant_power_shoot(spec, 30.0, n)
    lb = make(spec, "linear_bottom", 20.0, n)
    return {
        "quintic": (make(spec, "quintic", 25.0, n).profile, 0.0),
        "septic": (make(spec, "septic", 25.0, n, c3=4.0, c4=-3.0).profile, 0.0),
        "hybrid": (make(spec, "hybrid", 30.0, n, tau_l=4.0, tau_s=6.0).profile, 0.0),
        "dirac": (make(spec, "dirac", 5.0, n).profile, 0.0),
        "bang_bang": (make(spec, "bang_bang", n=n, omega1=1.0, omega2=1.0).profile, 0.0),
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
            assert got.bdot[0] == b0_plus
            assert abs(got.bdot[-1] - bdot_ref[-1]) <= 1e-12 * np.max(np.abs(bdot_ref))
            b3 = got.b * got.b * got.b
            bddot = 1.0 / b3 - profile.omega2 * got.b
            assert np.array_equal(got.bddot, bddot)
            bdddot = (-3.0 * got.bdot / (b3 * got.b) - profile.domega2 * got.b
                      - profile.omega2 * got.bdot)
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
        # a deep imaginary band has h |W| = 5 or 50 on this grid and is refused
        # at its first step; a NaN control passes that test and poisons the
        # state on the first step
        grid = TimeGrid.uniform(10.0, 201)
        profile = FrequencyProfile(grid, np.full(201, w2), np.zeros(201),
                                   omega2_fns=(lambda t: w2 + 0.0 * t,))
        if np.isnan(w2):
            got, ref = self._blowup_times(
                lambda: ermakov.forward_solve(profile),
                lambda: reference_forward_solve(profile),
            )
            assert got == ref == 0.05
            return
        with pytest.raises(TrajectoryBlowUp) as exc:
            ermakov.forward_solve(profile)
        hw = 0.05 * np.sqrt(-w2)
        assert str(exc.value) == (
            f"the step h = 0.05 gives h*max|W| = {hw:g}, above RK4's stability limit "
            "sqrt(2) = 1.41421; refine the grid (t = 0)"
        )

    def test_overflow_time(self):
        # W^2 = -1 passes the step test (h |W| = 0.5), and b ~ e^t / sqrt(2)
        # overflows near t = ln(2^1024) + ln(sqrt(2)) = 710.1
        grid = TimeGrid.uniform(1000.0, 2001)
        profile = FrequencyProfile(grid, np.full(2001, -1.0), np.zeros(2001),
                                   omega2_fns=(lambda t: -1.0 + 0.0 * t,))
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = self._blowup_times(
                lambda: ermakov.forward_solve(profile),
                lambda: reference_forward_solve(profile),
            )
        assert 709.5 <= got <= ref <= got + 1.0


# float.hex of b[-1] and bdot[-1], and the SHA-256 of b.tobytes() + bdot.tobytes(),
# of forward_solve on each _profiles(501) control
FORWARD_SOLVE_PINS = {
    "quintic": ("0x1.40000003e6282p+3", "0x1.e148640000000p-33",
                "39a104ff4cc221f6b32545470aa9c0bb76d14ebb7ed270b68733561ed4425011"),
    "septic": ("0x1.400000023642ep+3", "0x1.2728068000000p-32",
               "11527b0a10cf4c31f6106112849e9216a3bcfdcfb225576f85caab645a79c154"),
    "hybrid": ("0x1.40000055f08a1p+3", "0x1.3f0fa28000000p-31",
               "e8279d40b927e48f780c3725723ba7457a1d09d65399e5d2864e8dd9392e2fd2"),
    "dirac": ("0x1.3ffffffba0cefp+3", "0x1.c6c1b46edfa7ap+0",
              "d7e3a2815b9dd366ab67c8a009f83e66ec9c0537a91761a438b281a786f7d8b3"),
    "bang_bang": ("0x1.3fffffffda213p+3", "0x1.97fb300000000p-34",
                  "37adedc84f1efb99ab58f782f711169129971ec0d4cc1d305bfb430c44196d3a"),
    "linear_bottom": ("0x1.3fffffca341dfp+3", "0x1.cccccc5a8aafap-2",
                      "85f19903e904b63b7ac4e0a72fcb08fd6280f8773015ca2dd2d29dea4c1fa4c1"),
    "constant_power": ("0x1.d4395f92afc01p+1", "0x1.a635f0f18b036p-2",
                       "fdab0f8718173d72d6ec6393202f40c0c77844b8a6167ab86653a96108959d5e"),
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
        lambda spec: make(spec, "quintic", 25.0, 501),
        lambda spec: make(spec, "hybrid", 30.0, 501, tau_l=4.0, tau_s=6.0),
    ], ids=["quintic", "hybrid"])
    def test_polynomial_pieces_are_not_differentiated_per_solve(self, spec, ctor, monkeypatch):
        profile = ctor(spec).profile
        calls = []
        monkeypatch.setattr(protocols._Poly, "deriv", lambda self, m: calls.append(m))
        ermakov.forward_solve(profile)
        assert calls == []

