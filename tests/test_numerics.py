import math

import numpy as np
import pytest

from scipy.optimize import brentq

from staexpand import TimeGrid, TrapSpec, numerics, protocols
from staexpand.core import GridMismatch, Infeasible, TrajectoryBlowUp
from staexpand.numerics import (
    _brent_root,
    _gauss_legendre,
    _minimax_step,
    graded_gauss_legendre,
    integrate,
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


# ---------------------------------------------------------------------------
# The Brent root port returns SciPy's bits (compared with ==).

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
        for family in ("bang_bang", "bang_bang_na"):
            for frac in rng.uniform(0.02, 0.999, 2):
                try:
                    protocols.build(spec, protocols.ProtocolParams(family, float(frac * t_max), grid_n=51))
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


def test_gauss_legendre_matches_numpy_leggauss():
    for m in (1, 2, 16, 32, 128):
        x, w = np.polynomial.legendre.leggauss(m)
        nodes, weights = _gauss_legendre(m)
        assert np.abs(nodes - (x + 1.0) / 2.0).max() < 1e-15
        assert np.abs(weights - w / 2.0).max() < 1e-14
    nodes, weights = _gauss_legendre(32)   # exact to degree 63
    assert float(np.dot(weights, nodes**63)) == pytest.approx(1.0 / 64.0, rel=1e-13)


@pytest.mark.parametrize("width", [1.0, 1e-6, 1e-30, 1e-60])
def test_graded_gauss_legendre_resolves_a_layer_at_zero(width):
    # a Lorentzian of the given width at s = 0: its integral atan(1/width)
    # needs the grading to reach the layer.  The default 12 levels end near
    # 3e-8, and below that no node of either rule sees a narrower layer, so
    # the value misses it and the estimate cannot tell
    value, estimate = graded_gauss_legendre(lambda s: width / (width**2 + s * s), width)
    exact = math.atan(1.0 / width)
    assert abs(value - exact) <= 4e-16 * exact and estimate <= 4e-16 * exact
    if width < 1e-10:
        value, estimate = graded_gauss_legendre(lambda s: width / (width**2 + s * s))
        assert value < 1e-3 * exact and estimate < 1e-3 * exact


def test_graded_gauss_legendre_is_exact_for_polynomials():
    value, estimate = graded_gauss_legendre(lambda s: 9.0 * s**8 - 4.0 * s**3)
    assert abs(value) <= 1e-15 and estimate <= 1e-15


def _model(rows, hess, d1, d2):
    h11, h12, h22 = hess
    return (max(f + g1 * d1 + g2 * d2 for f, g1, g2 in rows)
            + 0.5 * (h11 * d1 * d1 + 2.0 * h12 * d1 * d2 + h22 * d2 * d2))


def test_minimax_step_finds_a_vertex_of_three_rows():
    # three planes through 0 at (0.3, -0.1), and 0 = (g_1 + g_2/2 + g_3/2)/2
    rows = [(-0.3, 1.0, 0.0), (0.4, -1.0, 1.0), (0.2, -1.0, -1.0), (-5.0, 0.5, 0.5)]
    d1, d2, value, weights = _minimax_step(rows, (0.0, 0.0, 0.0), (1.0, 1.0))
    assert (d1, d2) == pytest.approx((0.3, -0.1), abs=1e-15) and value == pytest.approx(0.0, abs=1e-15)
    assert dict(weights) == pytest.approx({0: 0.5, 1: 0.25, 2: 0.25}, abs=1e-15)


def test_minimax_step_is_the_least_model_value_in_the_box():
    """Against a 401 x 401 scan of the box, over definite, indefinite and
    zero Hessians; the weights are multipliers of rows tied at the step,
    and where the step is inside the box with a definite Hessian, they
    make the model stationary there."""
    rng = np.random.default_rng(20261021)
    inside = 0
    for trial in range(60):
        rows = [tuple(v) for v in rng.uniform(-1.0, 1.0, (int(rng.integers(1, 7)), 3)).tolist()]
        a = rng.uniform(-1.0, 1.0, (2, 2))
        hess = [a @ a.T, a + a.T, np.zeros((2, 2))][trial % 3]
        hess = (float(hess[0, 0]), float(hess[0, 1]), float(hess[1, 1]))
        box = tuple(rng.uniform(0.05, 2.0, 2).tolist())
        d1, d2, value, weights = _minimax_step(rows, hess, box)
        assert abs(d1) <= box[0] and abs(d2) <= box[1]
        assert value == _model(rows, hess, d1, d2)
        grid1, grid2 = np.meshgrid(np.linspace(-box[0], box[0], 401), np.linspace(-box[1], box[1], 401))
        top = np.max([f + g1 * grid1 + g2 * grid2 for f, g1, g2 in rows], axis=0)
        scan = top + 0.5 * (hess[0] * grid1**2 + 2.0 * hess[1] * grid1 * grid2 + hess[2] * grid2**2)
        assert value <= float(scan.min()) + 1e-12
        lams = dict(weights)
        assert all(lam >= 0.0 for lam in lams.values()) and sum(lams.values()) == pytest.approx(1.0, abs=1e-14)
        peak = max(f + g1 * d1 + g2 * d2 for f, g1, g2 in rows)
        for a_, lam in lams.items():
            f, g1, g2 = rows[a_]
            if lam > 1e-9:
                assert f + g1 * d1 + g2 * d2 == pytest.approx(peak, abs=1e-12)
        if trial % 3 == 0 and abs(d1) < box[0] and abs(d2) < box[1]:
            inside += 1
            s1 = hess[0] * d1 + hess[1] * d2 + sum(lam * rows[a_][1] for a_, lam in lams.items())
            s2 = hess[1] * d1 + hess[2] * d2 + sum(lam * rows[a_][2] for a_, lam in lams.items())
            assert abs(s1) < 1e-12 and abs(s2) < 1e-12
    assert inside >= 5

