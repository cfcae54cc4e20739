import math

import numpy as np
import pytest

from scipy.optimize import brentq, minimize

from staexpand import TimeGrid, TrapSpec, numerics, optimize, protocols
from staexpand.core import GridMismatch, Infeasible, TrajectoryBlowUp
from staexpand.numerics import (
    _brent_root,
    integrate,
    nelder_mead_2d,
    second_derivative,
)

from rk4_reference import rk4_solve


def test_integrate_constant():
    g = TimeGrid.uniform(1.0, 11)
    assert integrate(np.ones(11), g) == pytest.approx(1.0, abs=1e-15)


def test_integrate_quadratic_against_antiderivative():
    g = TimeGrid.uniform(1.0, 101)
    t = g.nodes
    assert integrate(t**2, g) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_integrate_sine_against_antiderivative():
    g = TimeGrid.uniform(math.pi, 1001)
    assert integrate(np.sin(g.nodes), g) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("coeffs", [(1.0, -2.0, 0.5, 3.0), (0.0, 1.0, 4.0, -7.0)])
def test_simpson_exact_for_cubics(coeffs):
    # Simpson integrates polynomials of degree <= 3 exactly
    a0, a1, a2, a3 = coeffs
    g = TimeGrid.uniform(2.0, 21)
    t = g.nodes
    y = a0 + a1 * t + a2 * t**2 + a3 * t**3
    exact = a0 * 2.0 + a1 * 2.0**2 / 2 + a2 * 2.0**3 / 3 + a3 * 2.0**4 / 4
    assert integrate(y, g) == pytest.approx(exact, rel=1e-14)


def test_integrate_piecewise_splits_at_joints():
    # |t - 0.5| has a kink; a joint-aligned grid integrates it exactly
    g = TimeGrid.piecewise([0.0, 0.5, 1.0], n=41)
    y = np.abs(g.nodes - 0.5)
    assert integrate(y, g) == pytest.approx(0.25, rel=1e-14)


def test_integrate_length_mismatch():
    g = TimeGrid.uniform(1.0, 11)
    with pytest.raises(GridMismatch):
        integrate(np.ones(10), g)


def test_rk4_exponential_decay():
    g = TimeGrid.uniform(1.0, 1001)
    traj = rk4_solve(lambda t, y: -y, [1.0], g.nodes)
    assert traj[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_rk4_zero_rhs_is_constant():
    g = TimeGrid.uniform(3.0, 31)
    traj = rk4_solve(lambda t, y: np.zeros_like(y), [2.5, -1.0], g.nodes)
    assert np.all(traj == traj[0])


def test_rk4_ermakov_equilibrium():
    # b'' = 1/b^3 - b has the fixed point b = 1
    g = TimeGrid.uniform(20.0, 2001)
    traj = rk4_solve(lambda t, y: np.array([y[1], 1.0 / y[0] ** 3 - y[0]]), [1.0, 0.0], g.nodes)
    assert np.max(np.abs(traj[:, 0] - 1.0)) < 1e-10


def test_rk4_fourth_order_convergence():
    def err(n):
        nodes = np.linspace(0.0, 1.0, n)
        traj = rk4_solve(lambda t, y: -y, [1.0], nodes)
        return abs(traj[-1, 0] - math.exp(-1.0))

    ratio = err(11) / err(21)
    assert 10.0 < ratio < 24.0  # ~16 for a 4th-order method


def test_rk4_blowup_reports_time():
    with np.errstate(over="ignore"), pytest.raises(TrajectoryBlowUp):
        rk4_solve(lambda t, y: y**2, [1.0], np.linspace(0.0, 5.0, 101))


def test_nelder_mead_bowl():
    res = nelder_mead_2d(lambda x, y: x**2 + y**2, (1.0, 1.0))
    assert res.converged
    assert abs(res.x[0]) < 1e-6 and abs(res.x[1]) < 1e-6


def test_nelder_mead_rosenbrock():
    res = nelder_mead_2d(
        lambda x, y: (1.0 - x) ** 2 + 100.0 * (y - x**2) ** 2, (-1.2, 1.0)
    )
    assert res.x[0] == pytest.approx(1.0, abs=1e-4)
    assert res.x[1] == pytest.approx(1.0, abs=1e-4)


def test_second_derivative_on_polynomial():
    g = TimeGrid.uniform(1.0, 201)
    y = g.nodes**3
    d2 = second_derivative(y, g)
    assert np.max(np.abs(d2 - 6.0 * g.nodes)) < 1e-3


# ---------------------------------------------------------------------------
# The Brent root and Nelder-Mead ports return SciPy's bits (compared with ==).

ROOT_FAMILIES = (
    lambda c: (lambda x: x**3 - c),
    lambda c: (lambda x: 1e-3 * math.tanh(x - c)),
    lambda c: (lambda x: math.exp(x) - c - 1.0),
    lambda c: (lambda x: math.sin(3.0 * x * c)),
    lambda c: (lambda x: math.copysign(abs(x - c) ** 0.1, x - c)),
    lambda c: (lambda x: 1.0 / (x - c) if x != c else 1.0),
    lambda c: (lambda x: (x - c) ** 21),  # never converges at xtol 1e-300 in 100 iterations
)


def root_outcome(solver, f, a, b, xtol):
    try:
        return "root", solver(f, a, b, xtol=xtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def test_brent_root_matches_brentq_on_random_brackets():
    rng = np.random.default_rng(20)
    kinds = set()
    for _ in range(300):
        f = ROOT_FAMILIES[rng.integers(len(ROOT_FAMILIES))](float(rng.uniform(-2.0, 3.0)))
        a, b = float(rng.uniform(-5.0, 0.5)), float(rng.uniform(0.5, 6.0))
        if rng.random() < 0.5:
            a, b = b, a
        xtol = float(10.0 ** rng.uniform(-300.0, -1.0))
        ours = root_outcome(_brent_root, f, a, b, xtol)
        assert repr(ours) == repr(root_outcome(brentq, f, a, b, xtol)), (a, b, xtol)
        kinds.add(ours[0])
    assert kinds == {"root", "RuntimeError", "ValueError"}


@pytest.mark.parametrize("c, xtol, a, b", [(0.1, 0.1, 0.0, 4.0), (0.1, 0.2, 0.0, 2.0), (2.0, 0.5, -1.0, 3.0)])
def test_brent_root_matches_brentq_at_coarse_tolerance(c, xtol, a, b):
    # brackets where the step test's "- delta" margin decides the step
    f = lambda x: x**3 - c  # noqa: E731
    assert repr(_brent_root(f, a, b, xtol=xtol)) == repr(brentq(f, a, b, xtol=xtol))


def test_brent_root_matches_brentq_on_the_duration_solves(monkeypatch):
    solves = []

    def recording(f, a, b, xtol):
        w = _brent_root(f, a, b, xtol=xtol)
        solves.append((f, a, b, xtol, w))
        return w

    monkeypatch.setattr(numerics, "_brent_root", recording)
    rng = np.random.default_rng(7)
    for gamma in np.exp(rng.uniform(math.log(1.0001), math.log(1000.0), 30)):
        spec = TrapSpec.from_gamma(float(gamma))
        t_max = protocols.bang_bang_max_duration(spec)
        for build in (protocols.bang_bang_for_duration, protocols.bang_bang_na_for_duration):
            for frac in rng.uniform(0.02, 0.999, 2):
                try:
                    build(spec, float(frac * t_max), 51)
                except Infeasible:  # refusals still made their root solve
                    pass
    assert len(solves) > 60
    for f, a, b, xtol, w in solves:
        assert repr(w) == repr(brentq(f, a, b, xtol=xtol))


def test_brent_root_refusals_read_like_brentq():
    with pytest.raises(ValueError, match=r"^The function value at x=0\.5 is NaN; solver cannot continue\.$"):
        _brent_root(lambda x: math.nan if x == 0.5 else x, -1.0, 0.5, xtol=1e-12)
    with pytest.raises(ValueError, match="f\\(a\\) and f\\(b\\) must have different signs"):
        _brent_root(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12)
    with pytest.raises(RuntimeError, match=r"^Failed to converge after 100 iterations\.$"):
        _brent_root(lambda x: x**21, -1.0, 2.0, xtol=1e-300)
    assert _brent_root(lambda x: x, 0.0, 2.0, xtol=1e-12) == 0.0


def scipy_nelder_mead(f, start, rel_tol=1e-8, max_iter=10_000):
    """What nelder_mead_2d returned when it called SciPy."""
    start = np.asarray(start, dtype=float)
    f0 = f(start[0], start[1])
    res = minimize(
        lambda p: f(p[0], p[1]),
        start,
        method="Nelder-Mead",
        options={
            "xatol": rel_tol * (1.0 + float(np.max(np.abs(start)))),
            "fatol": 1e-12 * (1.0 + abs(f0)) if np.isfinite(f0) else 1e-12,
            "maxiter": max_iter,
            "maxfev": 4 * max_iter,
        },
    )
    return tuple(float(v) for v in res.x), float(res.fun), bool(res.success), int(res.nit)


def assert_same_as_scipy(f, start, rel_tol=1e-8, max_iter=10_000):
    ours = nelder_mead_2d(f, start, rel_tol, max_iter)
    assert (ours.x, ours.fx, ours.converged, ours.iterations) == scipy_nelder_mead(f, start, rel_tol, max_iter)
    return ours


@pytest.mark.parametrize("t_f", [230.0, 1000.0])
def test_nelder_mead_matches_scipy_on_the_cap_search(t_f):
    spec = TrapSpec.from_gamma(10.0)
    _, seed = optimize.best_cap_seed(spec, t_f, 501)
    res = assert_same_as_scipy(lambda tl, ts: optimize._hybrid_avg_ena(spec, t_f, tl, ts, 501), seed)
    assert res.converged


def test_nelder_mead_matches_scipy_on_the_septic_power_search():
    spec = TrapSpec.from_gamma(10.0)
    assert_same_as_scipy(optimize._septic_peak(spec, 30.0, 201), (0.0, 0.0), 1e-6, 2000)


def test_nelder_mead_matches_scipy_when_cut_short():
    rosen = lambda x, y: (1.0 - x) ** 2 + 100.0 * (y - x**2) ** 2  # noqa: E731
    assert not assert_same_as_scipy(rosen, (-1.2, 1.0), max_iter=5).converged
    assert_same_as_scipy(rosen, (0.0, 0.0))
    assert_same_as_scipy(lambda x, y: abs(x - 3.0) + (math.inf if y > 1.0 else y * y), (2.0, 0.5))
