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

The grid contract all of these rest on is a property over durations
1e-9 to 1e15.  The last property spans the whole scale every family is
built at: gamma log-uniform in [1, 2.95e61] and t_f in [1e-300, 1e300],
where each request gives finite numbers or a typed refusal, and so does
every septic shape c3, c4 of magnitude 1e-300 to 1e300, NaN or infinite,
and every pair of hybrid caps from 1e-300 to t_f/2, for t_f in
[1e-100, 1e100].  Last, fig1's quintic rows (the virial form) are held to
the built quintic's Simpson average from the scale edge to t_f = 1e4, and
to mpmath at gamma up to 2.9e61.
"""
import math
import re

import numpy as np
import pytest

from staexpand import TimeGrid, TrapSpec, cli, energies, ermakov, numerics, protocols
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
        return energies._power_samples(spec, bundle.profile.domega2, bundle.curve.b)

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
        assert abs(pw.integral - (spec.n + 0.5) * (spec.omega_f_rel - 1.0)) <= allowance, params


def assert_control_recovered(profile, solved):
    """Inverse engineering the solved curve gives back W^2 and d(W^2)/dtau
    to a few eps of the terms each is a difference of."""
    b, b1, b2, b3 = solved.b, solved.bdot, solved.bddot, solved.bdddot
    back = ermakov.inverse_engineer(solved)
    eps = np.finfo(float).eps
    w2_terms = 1.0 / b**4 + np.abs(b2 / b)
    dw2_terms = 4.0 * np.abs(b1) / b**5 + np.abs(b3 / b) + np.abs(b2 * b1) / b**2
    assert np.all(np.abs(back.omega2 - profile.omega2) <= 8.0 * eps * w2_terms)
    assert np.all(np.abs(back.domega2 - profile.domega2) <= 8.0 * eps * dw2_terms)


def max_step_hw(profile):
    """The largest h sqrt(max |W^2|) over the steps of every piece, with W^2
    read at each step's two ends and its midpoint."""
    grid, worst = profile.grid, 0.0
    for k, (lo, hi) in enumerate(grid.pieces):
        x = grid.nodes[lo : hi + 1]
        h = x[1:] - x[:-1]
        ends = np.abs(profile.omega2[lo : hi + 1])
        mid = np.abs(np.broadcast_to(profile.piece_callable(k)(x[:-1] + 0.5 * h), h.shape))
        worst = max(worst, float(np.max(h * np.sqrt(np.maximum(np.maximum(ends[:-1], ends[1:]), mid)))))
    return worst


def relative_misses(bundle):
    """|b_forward / b_designed - 1| per node after forward-solving the
    control, whose inverse engineering must give the control back."""
    curve, profile = bundle.curve, bundle.profile
    # kicks at t = 0 are applied by the solver; otherwise start on the curve's slope
    bdot0 = 0.0 if profile.impulses else float(curve.bdot[0])
    solved = ermakov.forward_solve(profile, 1.0, bdot0)
    assert_control_recovered(profile, solved)
    return np.abs(solved.b / curve.b - 1.0)


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
            # forward_solve refuses a step with h max|W| above sqrt(2)
            assert max_step_hw(coarse.profile) > math.sqrt(2.0), params
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
    for family, t_min in (("bang_bang", 0.0), ("bang_bang_na", math.sqrt(gamma**2 - 1.0))):
        t_f = t_min + frac * (t_max - t_min)
        try:
            bb = protocols.build(spec, protocols.ProtocolParams(family, t_f, grid_n=n))
        except Infeasible as exc:
            # only the named refusals: out of range, gamma = 1, no bracket, and
            # a stopping step too short to sample (or to add to t1) next to t_min
            assert re.search(r"protocols need|without expansion \(gamma = 1\)|could not bracket|free-expansion "
                             r"protocol for t_f = .*(is too short for|is lost in t1 \+ t2)", str(exc)), str(exc)
            continue
        assert abs(bb.extra["t1"] + bb.extra["t2"] - t_f) <= 1e-12 * t_f


EPS = np.finfo(float).eps


@hyp.settings(max_examples=200, derandomize=True, deadline=None, database=None)
@hyp.given(
    log_tf=st.floats(-9.0, 15.0),
    cuts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    n=st.integers(1, 1000).map(lambda k: 2 * k + 1),
)
@hyp.example(log_tf=16.0, cuts=[1.0 - 4e-16], n=3)  # a last piece of a few ulps
def test_grid_pieces_are_uniform_by_construction(log_tf, cuts, n):
    """Every grid has odd node counts, duplicated joint rows, and strictly
    increasing nodes spaced (e1 - e0)/m to within 4 eps |e1| per piece;
    piecewise refuses only where some piece is shorter than that."""
    t_f = 10.0**log_tf
    edges = [0.0] + sorted({t_f * c for c in cuts} - {0.0, t_f}) + [t_f]
    try:
        grids = [TimeGrid.uniform(t_f, n), TimeGrid.piecewise(edges, n)]
    except ValueError as exc:
        assert "too short" in str(exc)
        assert any((e1 - e0) / max(n, 34) <= max(4 * EPS * e1, np.finfo(float).tiny)
                   for e0, e1 in zip(edges[:-1], edges[1:]))
        return
    for grid in grids:
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == grid.t_f == t_f
        for k, ((lo, hi), e0, e1, m) in enumerate(zip(grid.pieces, grid.edges[:-1], grid.edges[1:],
                                                        grid.intervals)):
            assert hi - lo == m and m % 2 == 0 and m >= 2
            assert grid.nodes[lo] == e0 and grid.nodes[hi] == e1
            d = np.diff(grid.nodes[lo : hi + 1])
            assert np.all(d > 0.0) and np.max(np.abs(d - (e1 - e0) / m)) <= 4 * EPS * abs(e1)
            if k:
                assert lo == grid.pieces[k - 1][1] + 1


# what build, full_trace and power may raise instead of a result: build's
# ValueError (NonRealFrequency and PowerUndefined are ValueErrors), Infeasible
# and TrajectoryBlowUp; a float overflow, NaN or division by zero is a fault
TYPED_ERRORS = (ValueError, Infeasible, TrajectoryBlowUp)


@pytest.mark.parametrize("family", protocols._FAMILIES)
@hyp.settings(max_examples=100, derandomize=True, deadline=None, database=None)
@hyp.given(log_gamma=st.floats(0.0, math.log10(2.95e61)), log_tf=st.floats(-300.0, 300.0),
           n=st.sampled_from((3, 101)))
# quasi_optimal's b^2 peaks near t_f/2 past gamma^2: g^2.5 used to overflow here
@hyp.example(log_gamma=44.88843224435358, log_tf=129.50310658948706, n=33)
@hyp.example(log_gamma=60.46982201597816, log_tf=134.51191494122838, n=33)
def test_every_family_is_finite_or_refused_over_the_whole_scale(family, log_gamma, log_tf, n):
    spec = TrapSpec.from_gamma(10.0**log_gamma)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert_finite_or_refused(spec, protocols.ProtocolParams(family, 10.0**log_tf, grid_n=n))


def assert_finite_or_refused(spec, params):
    """build, full_trace and power of the request give finite values, or
    build or full_trace raises one of ``TYPED_ERRORS``; returns the bundle,
    or None where it is refused."""
    try:
        bundle = protocols.build(spec, params)
        c, p = bundle.curve, bundle.profile
        trace = energies.full_trace(c, p, spec)
    except TYPED_ERRORS:
        return None
    rows = [c.b, c.bdot, c.bddot, c.bdddot, p.omega2, p.domega2, trace.E, trace.K, trace.V]
    values = [trace.avg_E, trace.avg_K, trace.avg_V, trace.delta_delta, *(d for _, d in p.impulses)]
    if trace.Ena is not None:
        rows.append(trace.Ena)
        values.append(trace.avg_Ena)
    try:
        pw = energies.power(c, p, spec)
    except TYPED_ERRORS:
        pass
    else:
        rows += [pw.P_rel]
        values += [pw.integral, pw.peak_rel]
    assert all(np.isfinite(r).all() for r in rows) and all(map(math.isfinite, values))
    return bundle


def test_every_hybrid_cap_is_finite_or_refused():
    # one cap log-uniform in [1e-300, t_f/2], the other in [1e-6, 1/2] t_f (a
    # stopping cap below ~4 eps t_f is refused by the grid): a launching cap
    # far shorter than t_f/10 used to give bdddot = inf and a non-finite
    # d(W^2)/dt with only a RuntimeWarning.  numpy draws, not hypothesis: its
    # floats crowd the ends of each range, where every cap is refused
    rng = np.random.default_rng(20261022)
    built = 0
    for k in range(300):
        log_tf = rng.uniform(-100.0, 100.0)
        spec = TrapSpec.from_gamma(10.0 ** rng.uniform(0.0, math.log10(2.95e61)))
        short = 10.0 ** rng.uniform(-300.0, log_tf - math.log10(2.0))
        other = 10.0 ** (log_tf + rng.uniform(-6.0, -math.log10(2.0)))
        tau_l, tau_s = (short, other) if k % 2 else (other, short)
        params = protocols.ProtocolParams("hybrid", 10.0**log_tf, tau_l=float(tau_l), tau_s=float(tau_s),
                                          grid_n=int(rng.choice((3, 101))))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            built += assert_finite_or_refused(spec, params) is not None
    assert built >= 50


# a septic shape input: a magnitude 1e-300 to 1e300 of either sign, or a non-finite value
septic_shapes = st.one_of(
    st.tuples(st.floats(-300.0, 300.0), st.sampled_from((1.0, -1.0))).map(lambda e: e[1] * 10.0 ** e[0]),
    st.sampled_from((math.nan, math.inf, -math.inf)),
)


@hyp.settings(max_examples=200, derandomize=True, deadline=None, database=None)
@hyp.given(c3=septic_shapes, c4=septic_shapes, log_gamma=st.floats(0.0, 3.0),
           log_tf=st.floats(-1.0, 7.0), n=st.sampled_from((3, 101)))
def test_every_septic_shape_is_finite_or_refused(c3, c4, log_gamma, log_tf, n):
    # a NaN shape used to give an all-NaN curve, an infinite one NaN averages,
    # and c3 = 1e300 an overflow; the request refuses the non-finite ones by
    # name.  Underflow is allowed: at gamma = 1 a tiny shape's bdot^2 rounds to 0.
    # Every shape that builds keeps its ends: c3 = 1e20 used to end at b = 1 for gamma 3
    spec, t_f = TrapSpec.from_gamma(10.0**log_gamma), 10.0**log_tf
    g = spec.gamma
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            params = protocols.ProtocolParams("septic", t_f, c3=c3, c4=c4, grid_n=n)
        except ValueError as exc:
            assert not math.isfinite(c3 if str(exc).startswith("c3") else c4)
            return
        bundle = assert_finite_or_refused(spec, params)
    if bundle is not None:
        c = bundle.curve
        assert max(abs(c.b[-1] - g) / g, abs(c.bdot[-1]) * t_f / g, abs(c.bddot[-1]) * t_f**2 / g) <= 1e-9


@hyp.settings(max_examples=50, derandomize=True, deadline=None, database=None)
@hyp.given(log_gamma=st.floats(math.log10(1.5), 2.0), log_tf=st.floats(-1.0, math.log10(200.0)),
           u=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_benchmark_septic_shapes_build(log_gamma, log_tf, u):
    # the benchmark's draws: |c3|, |c4| <= gamma - 1, kept where b >= 1/2 at 101 points
    gamma = 10.0**log_gamma
    c3, c4 = ((gamma - 1.0) * x for x in u)
    s = np.linspace(0.0, 1.0, 101)
    hyp.assume(np.polynomial.polynomial.polyval(s, protocols._septic_coef(gamma, c3, c4)).min() >= 0.5)
    bundle = protocols.build(TrapSpec.from_gamma(gamma),
                             protocols.ProtocolParams("septic", 10.0**log_tf, c3=c3, c4=c4))
    assert np.isfinite(bundle.profile.omega2).all()


@SETTINGS
@hyp.given(log_gamma=log_gammas, u=st.floats(0.0, 1.0))
@hyp.example(log_gamma=0.0, u=0.5)
@hyp.example(log_gamma=3.0, u=0.0)
def test_fig1_quintic_row_is_the_built_quintics_average(log_gamma, u):
    # the two paths of the quintic's avg_E: the sweep row's virial form, one
    # graded quadrature, and Simpson's average of E on the built 2001 nodes,
    # for t_f log-uniform from the scale edge to 1e4.  Simpson misses by up
    # to a few percent more than its Richardson estimate (the h^6 term of a
    # degree-8 integrand), so the estimate counts SAFETY times, as above
    spec = TrapSpec.from_gamma(10.0**log_gamma)
    edge = spec.gamma ** (2.0 / 3.0) * protocols._T_PER_GAMMA
    t_f = edge * (1e4 / edge) ** u
    bound = energies.lower_bound_avg_energy(spec, t_f).value
    row, reason = cli._sweep_row("fig1", spec, t_f, "quintic", 2001, bound, cli._quintic_virial_terms(spec))
    assert reason == "" and row >= bound * (1.0 - 1e-14)
    coarse, fine = with_refined(spec, protocols.ProtocolParams("quintic", t_f))

    def energy(bundle):
        return energies.instantaneous(bundle.curve, bundle.profile, spec).E

    curve = coarse.curve
    avg_e = energies.averages(energies.instantaneous(curve, coarse.profile, spec), curve, spec,
                              coarse.profile).avg_E
    richardson = simpson_error(energy(coarse), curve.grid, energy(fine), fine.curve.grid) / t_f
    assert abs(row - avg_e) <= SAFETY * richardson + 1e-15 * row, (spec.gamma, t_f)


def quintic_inv_b2_reference(mp, gamma):
    """The integral of 1/b^2 over the quintic's s in [0, 1], split at
    4^k times its boundary layer's width (10 gamma)^(-1/3)."""
    g = mp.mpf(gamma)
    layer = (10 * g) ** (-mp.mpf(1) / 3)
    splits = [layer * 4**k for k in range(-6, 40) if layer * 4**k < 1]
    return mp.quad(lambda s: 1 / (1 + (g - 1) * s**3 * (10 - 15 * s + 6 * s**2)) ** 2, [0, *splits, 1])


@pytest.mark.parametrize("gamma", [1.0, 1.0 + 1e-9, 1.5, 10.0, 1e4, 1e8, 1e20, 1e40, 2.9e61])
def test_fig1_quintic_column_against_mpmath(gamma):
    # the graded rule's own estimate and its value, 1e-14 relative, up to
    # gamma's largest value, where the boundary layer is ~1e-21 wide; the
    # rows are ((2n+1)/2)((10/7)(gamma-1)^2/t_f^2 + I) for n = 0
    mp = pytest.importorskip("mpmath")
    spec = TrapSpec.from_gamma(gamma)
    b = protocols._Poly(protocols._quintic_coef(gamma))
    slope = b.deriv(1)
    terms = cli._quintic_virial_terms(spec)
    for (value, estimate), term in zip(
            (numerics.graded_gauss_legendre(lambda s: slope(s) ** 2),
             numerics.graded_gauss_legendre(lambda s: 1.0 / b(s) ** 2, (10.0 * gamma) ** (-1.0 / 3.0))),
            terms):
        assert value == term and estimate <= 1e-14 * value
    with mp.workdps(30):
        inv_b2 = quintic_inv_b2_reference(mp, gamma)
        edge = spec.gamma ** (2.0 / 3.0) * protocols._T_PER_GAMMA
        for t_f in (edge, 1e-3, 1.0, 1e3 * gamma, 1e100):
            bound = energies.lower_bound_avg_energy(spec, t_f).value
            row, reason = cli._sweep_row("fig1", spec, t_f, "quintic", 2001, bound, terms)
            ref = (mp.mpf(10) / 7 * (mp.mpf(gamma) - 1) ** 2 / mp.mpf(t_f) ** 2 + inv_b2) / 2
            assert reason == "" and abs(row - ref) <= 1e-14 * ref, t_f
            if gamma == 1.0:
                assert row == 0.5
