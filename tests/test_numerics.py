import math

import numpy as np
import pytest

from staexpand import TimeGrid
from staexpand.core import GridMismatch, TrajectoryBlowUp
from staexpand.numerics import (
    integrate,
    nelder_mead_2d,
    rk4_solve,
    second_derivative,
)


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
