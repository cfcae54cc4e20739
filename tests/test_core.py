import math

import numpy as np
import pytest

from staexpand import TimeGrid, TrapSpec
from staexpand.core import FrequencyProfile, GridMismatch, ScalingCurve


def test_trap_spec_gamma():
    spec = TrapSpec(omega0=2.0 * math.pi * 2500.0, omega_f=2.0 * math.pi * 25.0)
    assert spec.gamma == pytest.approx(10.0, rel=1e-14)
    assert spec.omega_f_rel == pytest.approx(0.01, rel=1e-14)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega0=-1.0, omega_f=1.0),
        dict(omega0=1.0, omega_f=0.0),
        dict(omega0=1.0, omega_f=2.0),  # compression, not expansion
        dict(omega0=1.0, omega_f=0.5, n=-1),
    ],
)
def test_trap_spec_rejects(kwargs):
    with pytest.raises(ValueError):
        TrapSpec(**kwargs)


def test_from_gamma_reproduces_gamma():
    spec = TrapSpec.from_gamma(10.0)
    assert spec.gamma == pytest.approx(10.0, rel=1e-15)


def test_uniform_grid_basics():
    g = TimeGrid.uniform(2.5, 101)
    assert len(g) == 101
    assert g.nodes[0] == 0.0
    assert g.t_f == 2.5
    assert g.pieces == ((0, 100),)
    with pytest.raises(ValueError):
        TimeGrid.uniform(2.5, 100)  # even node count
    with pytest.raises(ValueError):
        TimeGrid.uniform(-1.0, 101)


def test_piecewise_grid_duplicates_joints():
    g = TimeGrid.piecewise([0.0, 0.3, 1.0], n=101)
    (lo0, hi0), (lo1, hi1) = g.pieces
    assert g.nodes[hi0] == g.nodes[lo1] == 0.3
    assert lo1 == hi0 + 1
    # each piece uniform with even interval count
    for lo, hi in g.pieces:
        d = np.diff(g.nodes[lo : hi + 1])
        assert (hi - lo) % 2 == 0
        assert np.allclose(d, d[0])


def test_grid_rejects_even_node_count_piece():
    with pytest.raises(ValueError, match="odd node count"):
        TimeGrid(np.linspace(0.0, 1.0, 4), ((0, 3),))
    with pytest.raises(ValueError, match="odd node count"):
        TimeGrid(np.array([0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 2.5]), ((0, 2), (3, 6)))


@pytest.mark.parametrize("t_f", [1e-9, 1.0, 3e5, 1e12])
def test_grid_rejects_perturbed_node(t_f):
    g = TimeGrid.uniform(t_f, 101)
    nodes = g.nodes.copy()
    nodes[37] += 1e-6 * (nodes[38] - nodes[37])  # a step 1e-6 off uniform
    with pytest.raises(ValueError, match="uniformly"):
        TimeGrid(nodes, g.pieces)
    with pytest.raises(ValueError, match="uniformly"):
        TimeGrid(-g.nodes, g.pieces)  # uniform but decreasing


@pytest.mark.parametrize("w2_min, imaginary", [(-1e-13, False), (-1e-11, True), (np.nan, True)])
def test_has_imaginary_tolerates_round_off_only(w2_min, imaginary):
    g = TimeGrid.uniform(1.0, 5)
    profile = FrequencyProfile(g, np.array([1.0, 0.5, w2_min, 0.5, 1.0]))
    assert profile.has_imaginary is imaginary


def test_scaling_curve_rejects_nonpositive_b():
    g = TimeGrid.uniform(1.0, 5)
    with pytest.raises(ValueError):
        ScalingCurve(g, np.array([1.0, 0.5, 0.0, 0.5, 1.0]), np.zeros(5))


def test_scaling_curve_shape_check():
    g = TimeGrid.uniform(1.0, 5)
    with pytest.raises(GridMismatch):
        ScalingCurve(g, np.ones(4), np.zeros(4))
