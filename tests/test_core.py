import math

import numpy as np
import pytest

from staexpand import TimeGrid, TrapSpec, core
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
        TimeGrid((0.0, 1.0), (3,))
    with pytest.raises(ValueError, match="odd node count"):
        TimeGrid((0.0, 1.0, 2.5), (2, 3))
    for m in (0, -2):
        with pytest.raises(ValueError, match="odd node count"):
            TimeGrid((0.0, 1.0), (m,))
    with pytest.raises(ValueError, match="one interval count per piece"):
        TimeGrid((0.0, 1.0, 2.5), (2,))
    with pytest.raises(TypeError):
        TimeGrid((0.0, 1.0), (2.0,))  # counts are integers


@pytest.mark.parametrize("t_f", [1e-9, 1.0, 3e5, 1e12])
def test_grid_rejects_perturbed_node(t_f):
    """Nodes are derived from the edges and cannot be changed afterwards,
    so a non-uniform or decreasing grid cannot be made."""
    g = TimeGrid.uniform(t_f, 101)
    with pytest.raises(ValueError, match="read-only"):
        g.nodes[37] += 1e-6 * (g.nodes[38] - g.nodes[37])
    with pytest.raises(ValueError, match="increase strictly"):
        TimeGrid((0.0, -t_f), (100,))  # uniform but decreasing
    h = np.diff(g.nodes)
    assert np.all(h > 0.0) and np.max(np.abs(h - t_f / 100)) <= 4.0 * np.finfo(float).eps * t_f


@pytest.mark.parametrize(
    "edges, message",
    [
        ((1.0, 2.0), "start at 0"),
        ((), "start at 0"),
        ((0.0,), "start at 0"),
        ((0.0, 1.0, 1.0), "increase strictly"),
        ((0.0, 2.0, 1.0), "increase strictly"),
        ((0.0, math.nan), "increase strictly"),
        ((0.0, math.nan, 1.0), "increase strictly"),
        ((0.0, math.inf), "finite t_f"),
        ((0.0, 1.0, math.inf), "finite t_f"),
    ],
)
def test_grid_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        TimeGrid(edges, (2,) * max(len(edges) - 1, 1))
    with pytest.raises(ValueError, match=message):
        TimeGrid.piecewise(edges, 101)


def test_grid_rejects_too_short_step():
    # a step of 2 at t = 1e16 is below 4 eps |t_hi| = 8.9
    with pytest.raises(ValueError, match="too short"):
        TimeGrid((0.0, 1e16, 1e16 + 4), (32, 2))
    with pytest.raises(ValueError, match="too short"):
        TimeGrid.piecewise((0.0, 1e16, 1e16 + 4), 101)
    TimeGrid((0.0, 1e16, 1e16 + 20), (32, 2))  # step 10 passes


def test_piecewise_checks_its_edges_once(monkeypatch):
    """``piecewise`` checks the edges, and the grid it builds takes them as
    checked: one check does work, and the grid equals the one built from
    plain edges."""
    checked, passes = core._checked_edges, []

    def counted(edges):
        out = checked(edges)
        if out is not edges:
            passes.append(edges)
        return out

    monkeypatch.setattr(core, "_checked_edges", counted)
    g = TimeGrid.piecewise([0.0, 0.3, 1.0], 101)
    assert passes == [[0.0, 0.3, 1.0]]
    plain = TimeGrid((0.0, 0.3, 1.0), g.intervals)
    assert g == plain and g.edges == (0.0, 0.3, 1.0) and np.array_equal(g.nodes, plain.nodes)


@pytest.mark.parametrize("n", [2000, 2, 1, 0, -1, -7])
def test_piecewise_refuses_the_node_counts_uniform_refuses(n):
    with pytest.raises(ValueError) as uniform:
        TimeGrid.uniform(1.0, n)
    with pytest.raises(ValueError) as piecewise:
        TimeGrid.piecewise([0.0, 0.3, 1.0], n)
    assert str(piecewise.value) == str(uniform.value)


def test_nodes_are_the_per_piece_linspace_bit_for_bit():
    """Each piece is numpy's linspace arithmetic (e0 + k step, the last node
    e1), so the nodes equal the concatenated np.linspace calls, signs of
    zero included, over edges from 1e-6 to 1e12."""
    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(400):
        k = int(rng.integers(1, 5))
        edges = [0.0, *np.unique(np.exp(rng.uniform(np.log(1e-6), np.log(1e12), k))).tolist()]
        intervals = tuple(2 * int(m) for m in rng.integers(1, 1200, len(edges) - 1))
        try:
            g = TimeGrid(edges, intervals)
        except ValueError as exc:   # a piece below 4 eps |t_hi| per step
            assert "too short" in str(exc)
            continue
        ref = np.concatenate([np.linspace(e0, e1, m + 1)
                              for e0, e1, m in zip(g.edges[:-1], g.edges[1:], intervals)])
        assert np.array_equal(g.nodes.view(np.int64), ref.view(np.int64))
        checked += 1
    assert checked >= 300
    neg = TimeGrid((-0.0, 1.0), (4,)).nodes   # a -0.0 start gives +0.0, as linspace does
    assert np.array_equal(neg.view(np.int64), np.linspace(-0.0, 1.0, 5).view(np.int64))


def test_grid_is_its_edges_and_counts():
    g = TimeGrid.piecewise([0.0, 0.3, 1.0], n=201)
    assert g.edges == (0.0, 0.3, 1.0) and g.intervals == (60, 140)
    assert g.pieces == ((0, 60), (61, 201))
    assert np.array_equal(g.nodes, np.concatenate([np.linspace(0.0, 0.3, 61), np.linspace(0.3, 1.0, 141)]))
    assert g == TimeGrid((0, 0.3, 1), (60, 140)) and hash(g) == hash(TimeGrid((0, 0.3, 1), (60, 140)))
    assert g != TimeGrid((0.0, 0.3, 1.0), (62, 140))
    assert g != TimeGrid.uniform(1.0, 201)
    assert "nodes" not in repr(g)


@pytest.mark.parametrize("w2_min, imaginary", [(-1e-13, False), (-1e-11, True), (np.nan, True)])
def test_has_imaginary_tolerates_round_off_only(w2_min, imaginary):
    g = TimeGrid.uniform(1.0, 5)
    profile = FrequencyProfile(g, np.array([1.0, 0.5, w2_min, 0.5, 1.0]), np.zeros(5))  # slope unread
    assert profile.has_imaginary is imaginary


def test_scaling_curve_rejects_nonpositive_b():
    g = TimeGrid.uniform(1.0, 5)
    with pytest.raises(ValueError):
        ScalingCurve(g, np.array([1.0, 0.5, 0.0, 0.5, 1.0]), np.zeros(5), np.zeros(5), np.zeros(5))


def test_scaling_curve_shape_check():
    g = TimeGrid.uniform(1.0, 5)
    with pytest.raises(GridMismatch):
        ScalingCurve(g, np.ones(4), np.zeros(4), np.zeros(4), np.zeros(4))
    with pytest.raises(GridMismatch, match="bdddot has 4 samples for 5 nodes"):
        ScalingCurve(g, np.ones(5), np.zeros(5), np.zeros(5), np.zeros(4))
    with pytest.raises(GridMismatch, match="domega2"):
        FrequencyProfile(g, np.ones(5), np.zeros(4))


def test_records_carry_every_derivative():
    # a curve is b and three derivatives, a profile W^2 and its slope: none is estimated
    g = TimeGrid.uniform(1.0, 5)
    with pytest.raises(TypeError):
        ScalingCurve(g, np.ones(5), np.zeros(5))
    with pytest.raises(TypeError):
        ScalingCurve(g, np.ones(5), np.zeros(5), np.zeros(5))
    with pytest.raises(TypeError):
        FrequencyProfile(g, np.ones(5))


@pytest.mark.parametrize("t", [1.0, 1e-12, -1e-12, 2.0 - 1e-12])
def test_profile_refuses_a_kick_away_from_the_ends(t):
    # kicks sit at t = 0 and t_f, where the energy bookkeeping books them
    g = TimeGrid.piecewise([0.0, 1.0, 2.0], 201)
    n = len(g)
    FrequencyProfile(g, np.ones(n), np.zeros(n), ((0.0, 0.3), (2.0, -0.3)))
    with pytest.raises(ValueError, match="kicks sit at t = 0 or t_f"):
        FrequencyProfile(g, np.ones(n), np.zeros(n), ((t, 0.3),))


def test_profile_refuses_a_closed_form_count_other_than_the_pieces():
    g = TimeGrid.piecewise([0.0, 1.0, 2.0], 201)
    n = len(g)
    one = lambda t: 1.0 + 0.0 * t  # noqa: E731
    FrequencyProfile(g, np.ones(n), np.zeros(n), omega2_fns=(one, one))
    for fns in ((one,), (one, one, one), ()):
        with pytest.raises(ValueError, match="one closed form per grid piece"):
            FrequencyProfile(g, np.ones(n), np.zeros(n), omega2_fns=fns)

