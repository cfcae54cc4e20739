"""Invariants of the paper as properties over the parameter space, with
every protocol taken from ``protocols.build``.

gamma is drawn log-uniform in [1, 1e3] and t_f log-uniform in [0.1, 1e3];
grids have 201-501 nodes.  Tolerances come from the methods:

* Simpson quadrature and RK4 are O(h^4).  A result that should equal an
  exact value may miss it by its own error, estimated by Richardson
  extrapolation from a second build on 2n - 1 nodes: with r the
  fine-to-coarse step ratio and d the difference of the two results, the
  coarse result misses by about |d| / (1 - r^4).  The check allows ten
  times that estimate.
* Round-off: 1e-12 of the quantity's scale (a few ulps per sample over at
  most 1001 nodes), or more where the samples show more at their known
  ends b(0) = 1 and b(t_f) = gamma; for quadratures also the error of the
  step that ``numerics.integrate`` reads off the node spacing.
"""
import math

import numpy as np
import pytest

from staexpand import TrapSpec, energies, ermakov, numerics, protocols
from staexpand.core import Infeasible, PowerUndefined, TrajectoryBlowUp

hyp = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SAFETY = 10.0
ROUNDOFF = 1e-12
SETTINGS = hyp.settings(max_examples=25, derandomize=True, deadline=None, database=None)

log_gammas = st.floats(0.0, 3.0)
log_durations = st.floats(-1.0, 3.0)
grid_sizes = st.integers(100, 250).map(lambda k: 2 * k + 1)
# step frequencies above their minimum 1/gamma, by up to a factor 1e3
log_step_factors = st.floats(0.0, 3.0)
draws = hyp.given(log_gamma=log_gammas, log_tf=log_durations, u=log_step_factors, n=grid_sizes)


def complete_requests(gamma, t_f, u, n):
    """Requests of every family with vanishing boundary slopes (impulse
    protocols after their kicks).  Two-step protocols exist at gamma = 1
    only at their extreme point, so they join for gamma > 1."""
    P = protocols.ProtocolParams
    reqs = [P(fam, t_f, grid_n=n) for fam in ("quintic", "septic", "hybrid", "dirac")]
    if gamma > 1.0:
        w = 10.0**u / gamma
        reqs += [P("bang_bang", omega1=w, omega2=w, grid_n=n), P("bang_bang_na", beta=w, grid_n=n)]
    return reqs


def refined(params):
    """The same request on 2n - 1 nodes."""
    return protocols.ProtocolParams(**{**vars(params), "grid_n": 2 * params.grid_n - 1})


def with_refined(spec, params):
    """The request built on n and on 2n - 1 nodes."""
    return protocols.build(spec, params), protocols.build(spec, refined(params))


def simpson_error(values, grid, values_fine, grid_fine):
    """Richardson estimate of what ``numerics.integrate`` misses on the
    coarse grid, piece by piece.  A piece at the grid's 32-interval
    minimum on both grids is not refined; its own samples at step 2h
    stand in for the finer rule there."""
    total = 0.0
    for (lo, hi), (f_lo, f_hi) in zip(grid.pieces, grid_fine.pieces):
        y, m = values[lo : hi + 1], hi - lo
        h = (grid.nodes[hi] - grid.nodes[lo]) / m
        if f_hi - f_lo > m:
            r = m / (f_hi - f_lo)
            fine = numerics.simpson_uniform(values_fine[f_lo : f_hi + 1], r * h)
            total += abs(numerics.simpson_uniform(y, h) - fine) / (1.0 - r**4)
        else:
            coarse = numerics.simpson_uniform(y[::2], 2.0 * h)
            total += abs(numerics.simpson_uniform(y, h) - coarse) / 15.0
    return total


def step_roundoff(abs_values, grid):
    """``numerics.integrate`` takes each piece's step from its first node
    spacing, which ``TimeGrid`` lets differ from the exact step by
    4 eps t_hi: a relative 4 eps t_hi / h of the piece's integral of |f|,
    which is at most h times its sum."""
    eps = np.finfo(float).eps
    return sum(4.0 * eps * grid.nodes[hi] * float(np.sum(abs_values[lo : hi + 1]))
               for lo, hi in grid.pieces)


def sample_roundoff(curve, gamma):
    """Relative round-off of the samples: a few ulps, unless the samples
    show more where their exact value is known, b(0) = 1 and b(t_f) = gamma
    (squared quantities carry twice that)."""
    return max(ROUNDOFF, 2.0 * abs(curve.b[0] - 1.0), 2.0 * abs(curve.b[-1] / gamma - 1.0))


def quadrature_allowance(coarse, fine, integrand, scale, gamma):
    """How far the integral of ``integrand(bundle)`` on the coarse bundle's
    grid may miss its exact value."""
    grid, values = coarse.curve.grid, integrand(coarse)
    richardson = simpson_error(values, grid, integrand(fine), fine.curve.grid)
    floor = sample_roundoff(coarse.curve, gamma) * scale + step_roundoff(np.abs(values), grid)
    return SAFETY * richardson + floor


def joint_mismatch(curve):
    """How far b bdot, continuous in the exact protocol, jumps between the
    duplicated rows of each interior joint of the samples."""
    bb = curve.b * curve.bdot
    pieces = curve.grid.pieces
    return sum(abs(bb[hi] - bb[lo]) for (_, hi), (lo, _) in zip(pieces[:-1], pieces[1:]))


@SETTINGS
@draws
def test_equipartition_of_complete_protocols(log_gamma, log_tf, u, n):
    # K - V = c d(b bdot)/dt integrates to the boundary term, which the kicks
    # of impulse protocols cancel and which vanishes for the others, plus
    # whatever jump the samples of b bdot make at a joint
    gamma = 10.0**log_gamma
    spec = TrapSpec.from_gamma(gamma)

    def k_minus_v(bundle):
        tr = energies.instantaneous(bundle.curve, bundle.profile, spec)
        return tr.K - tr.V

    for params in complete_requests(gamma, 10.0**log_tf, u, n):
        coarse, fine = with_refined(spec, params)
        curve, profile = coarse.curve, coarse.profile
        tr = energies.averages(energies.instantaneous(curve, profile, spec), curve, spec, profile)
        scale = numerics.integrate(np.abs(tr.K) + np.abs(tr.V), curve.grid)
        c = (2 * spec.n + 1) / 4.0
        allowance = (quadrature_allowance(coarse, fine, k_minus_v, scale, gamma)
                     + c * joint_mismatch(curve)) / curve.grid.t_f
        assert abs(tr.avg_K - tr.avg_V) <= allowance, params


@SETTINGS
@draws
def test_power_integral_is_the_energy_change(log_gamma, log_tf, u, n):
    gamma = 10.0**log_gamma
    spec = TrapSpec.from_gamma(gamma)

    def power(bundle):
        return energies.power(bundle.curve, bundle.profile, spec).P

    for params in complete_requests(gamma, 10.0**log_tf, u, n):
        coarse = protocols.build(spec, params)
        curve, profile = coarse.curve, coarse.profile
        if profile.impulses or gamma == 1.0:
            # a kick makes the power a squared delta; gamma = 1 has no energy change
            with pytest.raises(PowerUndefined):
                energies.power(curve, profile, spec)
            continue
        pw = energies.power(curve, profile, spec)
        b, b1, b2, b3 = curve.b, curve.bdot, curve.bddot, curve.bdddot
        # the terms of dW^2/dt = -4 b1/b^5 - b3/b + b2 b1/b^2 set its round-off
        terms = (2 * spec.n + 1) / 4.0 * b**2 * (
            4.0 * np.abs(b1) / b**5 + np.abs(b3) / b + np.abs(b2 * b1) / b**2
        )
        # the integral is a difference of the end energies (n + 1/2)(1 + omega_f/omega0)
        ends = (spec.n + 0.5) * (1.0 + spec.omega_f_rel)
        scale = numerics.integrate(terms, curve.grid) + sum(abs(s) for _, s in pw.steps) + ends
        fine = protocols.build(spec, refined(params))
        allowance = quadrature_allowance(coarse, fine, power, scale, gamma)
        assert abs(pw.integral - pw.integral_expected) <= allowance, params


def relative_misses(bundle):
    """|b_forward / b_designed - 1| per node after forward-solving the control."""
    curve = bundle.curve
    # kicks at t = 0 are applied by the solver; otherwise start on the curve's slope
    bdot0 = 0.0 if bundle.profile.impulses else float(curve.bdot[0])
    return np.abs(ermakov.forward_solve(bundle.profile, 1.0, bdot0).b / curve.b - 1.0)


@SETTINGS
@draws
def test_forward_inverse_round_trip(log_gamma, log_tf, u, n):
    gamma, t_f = 10.0**log_gamma, 10.0**log_tf
    spec = TrapSpec.from_gamma(gamma)
    P = protocols.ProtocolParams
    reqs = complete_requests(gamma, t_f, u, n) + [
        P(fam, t_f, grid_n=n) for fam in ("quasi_optimal", "linear_bottom", "constant_power")
    ]
    for params in reqs:
        try:
            coarse, fine = with_refined(spec, params)
        except TrajectoryBlowUp:
            # the constant-power shot may collapse toward b = 0: its typed failure
            assert params.family == "constant_power"
            continue
        grid = coarse.curve.grid
        # near rest b'' ~ -4 (b - 1): the trap's own oscillation, lambda = 2
        h_lambda = 2.0 * max((grid.nodes[hi] - grid.nodes[lo]) / (hi - lo) for lo, hi in grid.pieces)
        try:
            miss, miss_fine = relative_misses(coarse), relative_misses(fine)
        except TrajectoryBlowUp:
            # RK4 is unstable for that oscillation outside |h lambda| < 2 sqrt(2)
            assert h_lambda > 2.0 * math.sqrt(2.0), params
            continue
        r = max((c1 - c0) / (f1 - f0) for (c0, c1), (f0, f1) in zip(grid.pieces, fine.curve.grid.pieces))
        if h_lambda > 1.0 or r == 1.0:
            # No h^4 estimate: RK4's error is h^4-dominated only once
            # h lambda << 1 (its next term is (h lambda)/6 of the leading
            # one), and a piece held at the grid's 32-interval minimum on
            # both grids is not refined at all.
            assert np.all(np.isfinite(miss)), params
            continue
        m_c, m_f = float(np.max(miss)), float(np.max(miss_fine))
        # the solve starts from b = 1 exactly, so the design's own sample
        # error stays in the miss on every grid
        floor = sample_roundoff(coarse.curve, gamma)
        assert m_c <= SAFETY * abs(m_c - m_f) / (1.0 - r**4) + floor, params


@hyp.settings(max_examples=60, derandomize=True, deadline=None, database=None)
@hyp.given(log_gamma=log_gammas, frac=st.floats(0.0, 1.0, exclude_min=True), n=grid_sizes)
@hyp.example(log_gamma=math.log10(1.0 + 1e-9), frac=0.9, n=201)
@hyp.example(log_gamma=0.0, frac=1.0, n=201)
@hyp.example(log_gamma=0.0, frac=0.5, n=201)
def test_for_duration_helpers_hit_the_duration_or_raise(log_gamma, frac, n):
    gamma = 10.0**log_gamma
    spec = TrapSpec.from_gamma(gamma)
    t_max = protocols.bang_bang_max_duration(spec)
    for helper, t_min in (
        (protocols.bang_bang_for_duration, 0.0),
        (protocols.bang_bang_na_for_duration, math.sqrt(gamma**2 - 1.0)),
    ):
        t_f = t_min + frac * (t_max - t_min)
        try:
            bb = helper(spec, t_f, n)
        except Infeasible:
            continue
        assert abs(bb.t1 + bb.t2 - t_f) <= 1e-12 * t_f
