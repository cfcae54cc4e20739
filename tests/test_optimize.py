import math

import numpy as np
import pytest
from scipy.optimize import minimize

from staexpand import TrapSpec, energies, ermakov, numerics, optimize, protocols
from staexpand.core import Infeasible, PowerUndefined, TimeGrid

from protocol_requests import make


@pytest.fixture
def spec():
    return TrapSpec.from_gamma(10.0)


class TestOptimizeCaps:
    def test_result_feasible_and_above_bound(self, spec):
        res = optimize.optimize_caps(spec, 300.0, n_grid=1001)
        assert math.isfinite(res.objective)
        bound = energies.na_lower_bound(spec, 300.0)
        assert res.objective > bound          # the bound is approached, not reached
        assert res.objective < 2.0 * bound    # but not by much at slow protocols
        assert res.objective <= res.baseline

    def test_returned_caps_reproduce_objective(self, spec):
        res = optimize.optimize_caps(spec, 300.0, n_grid=1001)
        curve = make(spec, "hybrid", 300.0, 1001, tau_l=res.params[0], tau_s=res.params[1]).curve
        profile = ermakov.inverse_engineer(curve)
        assert float(np.min(profile.omega2)) >= -1e-12
        _, avg, _ = energies.nonadiabatic_energy(curve, profile, spec)
        assert avg == pytest.approx(res.objective, rel=1e-9)

    def test_infeasible_below_threshold(self, spec):
        with pytest.raises(Infeasible):
            optimize.optimize_caps(spec, 50.0, n_grid=501)

    def test_objective_non_increasing_in_duration(self, spec):
        # allow a whisker of optimizer noise between neighbouring basins
        taus = [250.0, 350.0, 500.0]
        vals = [optimize.optimize_caps(spec, t, n_grid=1001).objective for t in taus]
        assert vals[0] * 1.02 > vals[1]
        assert vals[1] * 1.02 > vals[2]

    def test_deterministic(self, spec):
        a = optimize.optimize_caps(spec, 300.0, n_grid=501)
        b = optimize.optimize_caps(spec, 300.0, n_grid=501)
        assert a.params == b.params and a.objective == b.objective

    def test_gamma_1_keeps_the_best_seed(self):
        # every cap has zero excess over the line: a tie, which the best seed wins
        res = optimize.optimize_caps(TrapSpec.from_gamma(1.0), 300.0, 501)
        assert res.params == (3.0, 3.0) and res.objective == res.baseline == 0.0

    def test_excited_mode_rejected(self):
        with pytest.raises(ValueError):
            optimize.optimize_caps(TrapSpec.from_gamma(10.0, n=1), 300.0)

    @pytest.mark.parametrize("t_f", [math.nan, math.inf, 0.0, -5.0])
    def test_invalid_duration_is_refused_as_invalid(self, spec, t_f):
        """Not reported as infeasible: the same ValueError as building the hybrid protocol."""
        for search in (optimize.optimize_caps, optimize.best_cap_seed):
            _same_error(
                ValueError,
                lambda: make(spec, "hybrid", t_f, 301, tau_l=1.0, tau_s=1.0).curve,
                lambda: search(spec, t_f, 301),
            )

    @pytest.mark.parametrize("n_grid", [500, 2, 1, 0, -1, -7])
    def test_grid_size_is_refused_as_for_a_uniform_grid(self, spec, n_grid):
        with pytest.raises(ValueError, match="odd node count >= 3"):
            optimize.optimize_caps(spec, 500.0, n_grid)


def _dense_cap_min_omega2(spec, t_f, tau, launching, points=4001):
    """min W^2 over one cap of duration tau, on `points` points of the cap
    polynomial of ``_hybrid_pieces`` (the other cap kept short)."""
    other = 1e-4 * t_f
    _, (p_l, _, p_s) = protocols._hybrid_pieces(spec, t_f, *((tau, other) if launching else (other, tau)), 3)
    p = p_l if launching else p_s
    x = np.linspace(0.0, tau / t_f, points)
    return float(np.min(ermakov._omega2(p(x), p.deriv(2)(x) / t_f**2)))


def _gl128():
    x, w = np.polynomial.legendre.leggauss(128)
    return (x + 1.0) / 2.0, w / 2.0


def _exact_avg_ena(spec, t_f, caps):
    """Ena_L plus both caps' excesses by 128-point Gauss-Legendre."""
    excess = [optimize._Cap(spec.gamma, t_f, launching, *_gl128()).excess(tau)
              for launching, tau in zip((True, False), caps)]
    return energies.na_lower_bound(spec, t_f) + (excess[0] + excess[1]) / t_f


def _scipy_nelder_mead(f, start, f_start, rel_tol):
    """SciPy's Nelder-Mead on f(x, y) from ``start``, stopping within
    xatol = rel_tol (1 + max|start|) and fatol = 1e-12 (1 + |f(start)|)."""
    res = minimize(lambda p: f(float(p[0]), float(p[1])), np.asarray(start, dtype=float),
                   method="Nelder-Mead",
                   options={"xatol": rel_tol * (1.0 + max(map(abs, start))),
                            "fatol": 1e-12 * (1.0 + abs(f_start)) if math.isfinite(f_start) else 1e-12,
                            "maxiter": 10_000, "maxfev": 40_000})
    return tuple(float(v) for v in res.x), float(res.fun), bool(res.success), int(res.nit)


def _nelder_mead_on_the_grid(spec, t_f, n):
    """Caps from the 2-D refinement the search ran before: Nelder-Mead on
    the grid objective from the best seed, which bounds it."""
    best_f, best_p = optimize.best_cap_seed(spec, t_f, n)
    x, fx, _, _ = _scipy_nelder_mead(
        lambda tl, ts: optimize._hybrid_avg_ena(spec, t_f, tl, ts, n), best_p, best_f, 1e-8)
    return x if math.isfinite(fx) and fx <= best_f else best_p


class TestCapSearchOffTheGrid:
    @pytest.mark.parametrize("gamma, t_f", [
        (1.5, 3.0), (1.5, 30.0), (3.0, 10.0), (3.0, 100.0),
        # short protocols: the launching cap has an upper edge too
        (10.0, 20.0), (10.0, 24.0), (10.0, 100.0), (10.0, 300.0),
        (100.0, 300.0), (100.0, 1000.0), (100.0, 1e4),
    ])
    def test_cap_intervals_match_a_dense_scan(self, gamma, t_f):
        spec = TrapSpec.from_gamma(gamma)
        limit = 0.999 * t_f
        taus = np.linspace(0.0, limit, 102)[1:-1]
        for launching in (True, False):
            real = np.array([_dense_cap_min_omega2(spec, t_f, tau, launching) >= 0.0 for tau in taus])
            if not real.any():   # gamma 100 below t_f ~ 2300: no stopping cap is real
                assert gamma == 100.0 and t_f < 2000.0 and not launching
                continue
            cap = optimize._Cap(gamma, t_f, launching, *numerics._gauss_legendre(32))
            lo, hi = cap.interval(float(taus[real][real.sum() // 2]), limit)
            assert np.array_equal((taus >= lo) & (taus <= hi), real)
            if launching and (gamma, t_f) in ((10.0, 20.0), (10.0, 24.0), (100.0, 300.0)):
                assert hi < limit
            edges = [(lo, -1.0)] + ([(hi, 1.0)] if hi < limit else [])
            for edge, out in edges:
                assert _dense_cap_min_omega2(spec, t_f, edge * (1.0 + out * 1e-6), launching) < 0.0
                assert _dense_cap_min_omega2(spec, t_f, edge * (1.0 - out * 1e-6), launching) >= 0.0

    @pytest.mark.parametrize("gamma, t_f, binds", [
        (1.2, 2.2, True), (1.2, 3.4, True), (1.2, 30.0, False),
        (1.5, 4.0, True), (1.5, 8.0, True), (1.5, 100.0, False),
        (3.0, 20.0, True), (3.0, 23.0, True), (3.0, 50.0, False), (3.0, 1000.0, False),
        (10.0, 230.0, False), (10.0, 300.0, False), (10.0, 1000.0, False),
    ])
    def test_no_worse_than_nelder_mead_on_the_grid(self, gamma, t_f, binds):
        spec = TrapSpec.from_gamma(gamma)
        res = optimize.optimize_caps(spec, t_f, 2001)
        assert res.converged and res.objective <= res.baseline
        tau_l, tau_s = res.params
        assert tau_l + tau_s < 0.999 * t_f     # _hybrid_avg_ena's strict joint limit
        assert (tau_l + tau_s > 0.999 * t_f * (1.0 - 1e-14)) == binds
        reference = _exact_avg_ena(spec, t_f, _nelder_mead_on_the_grid(spec, t_f, 2001))
        assert _exact_avg_ena(spec, t_f, res.params) <= reference * (1.0 + 1e-12)

    @pytest.mark.parametrize("gamma, t_f, caps", [
        (10.0, 300.0, (2.77, 221.1)), (10.0, 30.0, (3.0, 25.0)),
        (1.5, 4.0, (1.5, 2.4)), (3.0, 1000.0, (2.8, 100.0)),
    ])
    def test_cap_excess_is_the_converged_full_path(self, gamma, t_f, caps):
        """Simpson on 32001 nodes converges on the Gauss-Legendre value, from
        9e-9 away on the default 2001 nodes at gamma 10, t_f 300."""
        spec = TrapSpec.from_gamma(gamma)
        assert _full_cap_objective(spec, t_f, *caps, 32001) == pytest.approx(
            _exact_avg_ena(spec, t_f, caps), rel=1e-10)

    def test_a_seed_real_on_the_grid_only_is_returned_unrefined(self, spec, monkeypatch):
        """W^2(0) = 1 - 4(gamma - 1)/(t_f tau_l) is -1e-13 just below
        tau_l = 0.12: real to the grid's round-off tolerance, not off it."""
        caps = (0.12 * (1.0 - 1e-13), 60.0)
        value = optimize._hybrid_avg_ena(spec, 300.0, *caps, 501)
        monkeypatch.setattr(optimize, "best_cap_seed", lambda *args: (value, caps))
        res = optimize.optimize_caps(spec, 300.0, 501)
        assert math.isfinite(value) and res.params == caps and res.objective == res.baseline == value
        assert (res.iterations, res.converged) == (0, False)


@pytest.fixture(scope="module")
def fig4():
    spec = TrapSpec(2.0 * math.pi * 2500.0, 2.0 * math.pi * 25.0)
    t_f = spec.omega0 * 8e-3
    return spec, t_f


class TestOptimizeSepticPower:

    def test_beats_quintic_and_respects_floor(self, fig4):
        spec, t_f = fig4
        quintic = make(spec, "quintic", t_f, 4001).curve
        q_peak = energies.power(quintic, ermakov.inverse_engineer(quintic), spec).peak_rel
        res = optimize.optimize_septic_power(spec, t_f)
        assert res.objective <= q_peak
        assert res.objective >= 1.0
        assert res.objective <= res.baseline

    def test_reference_coefficients_also_beat_quintic(self, fig4):
        spec, t_f = fig4
        quintic = make(spec, "quintic", t_f, 4001).curve
        q_peak = energies.power(quintic, ermakov.inverse_engineer(quintic), spec).peak_rel
        ref = make(spec, "septic", t_f, 4001, c3=78.5088, c4=-459.7638).curve
        ref_peak = energies.power(ref, ermakov.inverse_engineer(ref), spec).peak_rel
        assert ref_peak <= q_peak

    def test_lands_near_reference_basin(self, fig4):
        # not required, but the search from (0,0) does find the published basin
        spec, t_f = fig4
        res = optimize.optimize_septic_power(spec, t_f)
        ref = make(spec, "septic", t_f, 4001, c3=78.5088, c4=-459.7638).curve
        ref_peak = energies.power(ref, ermakov.inverse_engineer(ref), spec).peak_rel
        assert res.objective == pytest.approx(ref_peak, rel=1e-3)

    @pytest.mark.parametrize("point, n, peak", [((10.0, 30.0), 5, "0.808657"), ("fig4", 3, "0.080857")], ids=str)
    def test_peak_below_the_floor_is_refused(self, fig4, point, n, peak):
        # a grid too coarse to see the maxima read these impossible peaks
        spec, t_f = fig4 if point == "fig4" else (TrapSpec.from_gamma(point[0]), point[1])
        with pytest.raises(ValueError, match=rf"^n_grid = {n} is too coarse: the septic peak {peak} lies below"):
            optimize.optimize_septic_power(spec, t_f, n)

    def test_septic_shapes_give_the_same_node_rows(self, fig4, monkeypatch):
        # the shape columns derived from _septic_coef equal the hand copy they
        # replace, and so do the rows built from them, bit for bit
        hand = ([0, 0, 0, 1, 0, -6, 8, -3], [0, 0, 0, 0, 1, -3, 3, -1])
        assert optimize._SEPTIC_SHAPES == hand
        for spec, t_f in (fig4, (TrapSpec.from_gamma(10.0), 30.0)):
            derived = optimize._SepticPeaks(spec, t_f, 4001)
            monkeypatch.setattr(optimize, "_SEPTIC_SHAPES", hand)
            copied = optimize._SepticPeaks(spec, t_f, 4001)
            monkeypatch.undo()
            assert derived.blocks[:3].tobytes() == copied.blocks[:3].tobytes()
            assert derived(78.5, -459.8) == copied(78.5, -459.8)

    def test_deterministic(self, fig4):
        spec, t_f = fig4
        a = optimize.optimize_septic_power(spec, t_f, n_grid=801)
        b = optimize.optimize_septic_power(spec, t_f, n_grid=801)
        assert a.params == b.params and a.objective == b.objective

    # the 64001-node peak at the shape that Nelder-Mead on the 4001-node
    # sampled peak returned (its last version, before the minimax search)
    NELDER_MEAD_TRUE_PEAKS = {
        "fig4": "0x1.0f0affa372365p+1",
        (10.0, 30.0): "0x1.0bc8cf1d8d4cbp+2",
        (1.5, 3.0): "0x1.400daeb25ee4fp+1",
        (100.0, 300.0): "0x1.eec392b5cc87ap+2",
        (3.0, 1.0): "0x1.72df195a5d7c0p+6",
        (2.0, 7.0): "0x1.f39315e3213b7p+0",   # a ridge: 12 random restarts reach 1.8505
    }

    @pytest.mark.parametrize("point", list(NELDER_MEAD_TRUE_PEAKS), ids=str)
    def test_true_peak_no_higher_than_nelder_mead(self, fig4, point):
        spec, t_f = fig4 if point == "fig4" else (TrapSpec.from_gamma(point[0]), point[1])
        res = optimize.optimize_septic_power(spec, t_f)
        assert res.converged
        true_peak = _full_septic_peak(spec, t_f, *res.params, 64001)
        assert true_peak <= float.fromhex(self.NELDER_MEAD_TRUE_PEAKS[point])
        if point == (2.0, 7.0):
            assert true_peak <= 1.8505

    @pytest.mark.parametrize("gamma, t_f, shape", [
        (10.0, 30.0, (27.5, 80.4)), (1.5, 3.0, (4.0, -0.9)), (100.0, 300.0, (0.0, 0.0)), (3.0, 1.0, (27.0, -46.0)),
    ])
    def test_polished_peaks_are_the_local_maxima(self, gamma, t_f, shape):
        """The rows are the local maxima of a 64001-node scan of |P_rel|,
        in order, each at or within 1e-8 above its scanned value, and their
        gradients and Hessians match central differences of the rows'
        values and gradients."""
        spec = TrapSpec.from_gamma(gamma)
        peaks = optimize._SepticPeaks(spec, t_f, 4001)
        rows = peaks(*shape)
        fine = np.abs(_full_septic_power(spec, t_f, *shape, 64001).P_rel)
        tops = [i for i in range(len(fine)) if fine[i] == fine[max(i - 1, 0) : i + 2].max()]
        assert len(rows) == len(tops)
        for row, i in zip(rows, tops):
            assert fine[i] <= row[0] * (1.0 + 1e-12) and row[0] <= fine[i] * (1.0 + 1e-8)
        h = 1e-4
        for j in (0, 1):
            step = np.array([h, 0.0] if j == 0 else [0.0, h])
            up, down = peaks(*(shape + step)), peaks(*(shape - step))
            for row, hi, lo in zip(rows, up, down):
                assert row[1 + j] == pytest.approx((hi[0] - lo[0]) / (2 * h), rel=1e-6, abs=1e-9 * row[0])
                for k in (0, 1):   # H[j][k] from the gradients
                    assert row[3 + j + k] == pytest.approx((hi[1 + k] - lo[1 + k]) / (2 * h), rel=1e-5, abs=1e-9)


def _full_cap_objective(spec, t_f, tau_l, tau_s, n):
    """The cap objective through the public path: protocol, profile, energy report."""
    curve = make(spec, "hybrid", t_f, n, tau_l=tau_l, tau_s=tau_s).curve
    profile = ermakov.inverse_engineer(curve)
    if profile.has_imaginary:
        return math.inf
    return energies.nonadiabatic_energy(curve, profile, spec)[1]


def _full_septic_power(spec, t_f, c3, c4, n):
    b = protocols.build(spec, protocols.ProtocolParams("septic", t_f, c3, c4, grid_n=n))
    return energies.power(b.curve, b.profile, spec)


def _full_septic_peak(spec, t_f, c3, c4, n):
    return _full_septic_power(spec, t_f, c3, c4, n).peak_rel


def _fused_septic_peak(spec, t_f, n):
    """The sampled peak of ``optimize._SepticPeaks.power``, +inf where b <= 0."""
    peaks = optimize._SepticPeaks(spec, t_f, n)

    def peak(c3, c4):
        p = peaks.power(c3, c4)
        return math.inf if p is None else float(np.maximum.reduce(np.abs(p)))

    return peak


def _public_kernel_septic_peak(spec, t_f, n):
    """The septic evaluator on the public power kernels: the same affine node
    rows as ``optimize._septic_peak``, then ``ermakov._domega2`` and
    ``energies._power_samples``, and max |P / scale|."""
    x = TimeGrid.uniform(t_f, n).nodes / t_f
    scale = energies._energy_change(spec) / t_f
    r0, r3, r4, rows, work = blocks = np.empty((5, 4, len(x)))
    basis = protocols._septic_coef(spec.gamma, 0.0, 0.0), [0, 0, 0, 1, 0, -6, 8, -3], [0, 0, 0, 0, 1, -3, 3, -1]
    for coef, block in zip(basis, blocks):
        for j, row in enumerate(block):
            np.divide(protocols._Poly(coef).deriv(j)(x, out=row), t_f**j, out=row)
    b = rows[0]

    def peak(c3, c4):
        np.add(r0, np.multiply(r3, c3, out=rows), out=rows)
        np.add(rows, np.multiply(r4, c4, out=work), out=rows)
        if not np.minimum.reduce(b) > 0.0:
            return math.inf
        power = energies._power_samples(spec, ermakov._domega2(*rows), b)
        return float(np.maximum.reduce(np.abs(np.divide(power, scale, out=power), out=power)))

    return peak


def _same_error(exc_type, full, fast):
    """Both calls raise exc_type, of the same class and with the same message."""
    with pytest.raises(exc_type) as a:
        full()
    with pytest.raises(exc_type) as b:
        fast()
    assert type(a.value) is type(b.value) and str(a.value) == str(b.value)


class TestObjectivesMatchFullPath:
    """The search objectives skip what they do not return; they must still
    return the full path's bits, so the searches take the same steps."""

    def test_cap_objective_equals_full_path(self):
        rng = np.random.default_rng(20260513)
        finite = infinite = 0
        for _ in range(150):
            gamma = 1.0 if rng.random() < 0.1 else float(np.exp(rng.uniform(0.0, np.log(300.0))))
            t_f = float(np.exp(rng.uniform(np.log(5.0), np.log(3000.0))))
            fl, fs = np.exp(rng.uniform(np.log(1e-3), np.log(0.7), 2))
            if fl + fs >= 0.999:
                continue
            n = int(rng.choice([301, 501, 2001]))
            spec = TrapSpec.from_gamma(gamma)
            tau_l, tau_s = fl * t_f, fs * t_f   # np.float64, as Nelder-Mead passes them
            fast = optimize._hybrid_avg_ena(spec, t_f, tau_l, tau_s, n)
            assert type(fast) is float
            assert fast == _full_cap_objective(spec, t_f, float(tau_l), float(tau_s), n)
            if math.isinf(fast):
                infinite += 1
            else:
                finite += 1
        assert finite >= 20 and infinite >= 20   # both branches are exercised

        under = 0.999 * 300.0 - 8.0
        while 8.0 + under >= 0.999 * 300.0:
            under = math.nextafter(under, 0.0)
        edges = {   # (gamma, mode n, t_f, tau_l, tau_s, grid n)
            "caps_at_32_intervals": (10.0, 0, 1000.0, 10.0, 60.0, 301),
            "caps_just_under_0.999_t_f": (10.0, 0, 300.0, 8.0, under, 2001),
            "imaginary_launching_cap": (10.0, 0, 300.0, 0.05, 200.0, 2001),
            "gamma_1": (1.0, 0, 50.0, 5.0, 10.0, 501),
            "excited_mode_imaginary_caps": (10.0, 1, 100.0, 0.05, 5.0, 301),
        }
        for name, (gamma, mode, t_f, tau_l, tau_s, n) in edges.items():
            spec = TrapSpec.from_gamma(gamma, n=mode)
            fast = optimize._hybrid_avg_ena(spec, t_f, tau_l, tau_s, n)
            assert fast == _full_cap_objective(spec, t_f, tau_l, tau_s, n), name
            grid = protocols._hybrid_pieces(spec, t_f, tau_l, tau_s, n)[0]
            omega2 = make(spec, "hybrid", t_f, n, tau_l=tau_l, tau_s=tau_s).profile.omega2
            cap_min = [float(omega2[lo : hi + 1].min()) for lo, hi in grid.pieces[::2]]
            if name == "caps_at_32_intervals":
                assert grid.intervals[0] == grid.intervals[2] == 32 and math.isfinite(fast)
            elif name == "caps_just_under_0.999_t_f":
                assert grid.intervals[1] == 32 and math.isfinite(fast)
            elif name == "imaginary_launching_cap":
                assert cap_min[0] < -1e-12 <= cap_min[1] and fast == math.inf
            elif name == "gamma_1":
                assert fast == 0.0
            else:   # +inf at an imaginary cap, before the ground-state refusal
                assert min(cap_min) < -1e-12 and fast == math.inf

    def test_cap_objective_is_inf_exactly_where_imaginary(self, spec):
        # at t_f = 100 the stopping cap turns imaginary below tau_s ~ 44.5
        for tau_s in (5.0, 40.0, 44.0, 45.0, 60.0, 90.0):
            curve = make(spec, "hybrid", 100.0, 501, tau_l=5.0, tau_s=tau_s).curve
            imaginary = ermakov.inverse_engineer(curve).has_imaginary
            assert math.isinf(optimize._hybrid_avg_ena(spec, 100.0, 5.0, tau_s, 501)) == imaginary

    def test_cap_too_short_for_its_grid_raises_as_the_full_path(self, spec):
        for caps in ((3.0, 1e-13), (50.0, 2e-14)):
            _same_error(
                ValueError,
                lambda: _full_cap_objective(spec, 300.0, *caps, 501),
                lambda: optimize._hybrid_avg_ena(spec, 300.0, *caps, 501),
            )

    def test_cap_too_short_for_its_cubic_raises_as_the_full_path(self, spec):
        # (tau/t_f)^2 underflows to 0 (1e-300) or d/(tau/t_f)^2 overflows (1e-158)
        for caps in ((1e-300, 60.0), (3.0, 1e-300), (1e-158, 60.0)):
            _same_error(
                ValueError,
                lambda: _full_cap_objective(spec, 300.0, *caps, 501),
                lambda: optimize._hybrid_avg_ena(spec, 300.0, *caps, 501),
            )

    def test_cap_objective_refuses_a_too_long_protocol_as_the_full_path(self, spec):
        # t_f^3 overflows past ~5.6e102; the objective itself forms only t_f^2
        for t_f in (5.7e102, 1e160):
            _same_error(
                ValueError,
                lambda: _full_cap_objective(spec, t_f, 0.1 * t_f, 0.2 * t_f, 301),
                lambda: optimize._hybrid_avg_ena(spec, t_f, 0.1 * t_f, 0.2 * t_f, 301),
            )
        with pytest.raises(ValueError, match=r"t_f\^3 overflows above t_f ~ 5.644e\+102"):
            optimize.optimize_caps(spec, 1e160, 301)

    def test_cap_objective_refuses_an_excited_mode_as_the_full_path(self):
        excited = TrapSpec.from_gamma(10.0, n=1)
        _same_error(
            ValueError,
            lambda: _full_cap_objective(excited, 300.0, 3.0, 60.0, 301),
            lambda: optimize._hybrid_avg_ena(excited, 300.0, 3.0, 60.0, 301),
        )
        assert optimize._hybrid_avg_ena(excited, 100.0, 5.0, 5.0, 301) == math.inf

    @staticmethod
    def _septic_draws():
        """(spec, t_f, n, shapes) over gamma, t_f, grid size and mode."""
        rng = np.random.default_rng(20260514)
        for _ in range(40):
            gamma = float(np.exp(rng.uniform(np.log(1.01), np.log(300.0))))
            t_f = float(np.exp(rng.uniform(np.log(1.0), np.log(500.0))))
            n = int(rng.choice([201, 801, 4001]))
            shapes = [(0.0, 0.0), *rng.uniform(-30.0, 30.0, (3, 2)).tolist()]
            for mode in (0, 1, 2):   # the ground state and two excited modes
                yield TrapSpec.from_gamma(gamma, n=mode), t_f, n, shapes

    def test_septic_evaluator_equals_full_path(self):
        # the affine node rows and the fused power form round differently
        # from one Horner pass and the public kernels: within 1e-12 of the
        # peak at every node, (0, 0) included
        for spec, t_f, n, shapes in self._septic_draws():
            peaks = optimize._SepticPeaks(spec, t_f, n)
            for c3, c4 in shapes:
                public = _full_septic_power(spec, t_f, c3, c4, n)
                assert np.max(np.abs(peaks.power(c3, c4) - public.P_rel)) <= 1e-12 * public.peak_rel

    def test_septic_search_reports_the_full_path(self):
        # the ground state only: P_rel does not depend on the mode
        for spec, t_f, n, _ in self._septic_draws():
            if spec.n:
                continue
            res = optimize.optimize_septic_power(spec, t_f, n)
            assert res.baseline == _full_septic_peak(spec, t_f, 0.0, 0.0, n)
            assert res.objective == _full_septic_peak(spec, t_f, *res.params, n)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_septic_search_at_the_longest_duration(self, n):
        # the last t_f whose t_f^3 is finite, and the first the t_f^3 check refuses
        spec = TrapSpec.from_gamma(10.0, n=n)
        longest = float.fromhex("0x1.428a2f98d728ap+341")
        res = optimize.optimize_septic_power(spec, longest, 201)
        assert res.baseline == _full_septic_peak(spec, longest, 0.0, 0.0, 201)
        assert res.objective == _full_septic_peak(spec, longest, *res.params, 201)
        too_long = math.nextafter(longest, math.inf)
        _same_error(
            ValueError,
            lambda: _full_septic_peak(spec, too_long, 0.0, 0.0, 201),
            lambda: optimize.optimize_septic_power(spec, too_long, 201),
        )
        with pytest.raises(ValueError, match=r"t_f\^3 overflows"):
            optimize.optimize_septic_power(spec, too_long, 201)

    def test_septic_search_raises_as_the_full_path(self, spec):
        # gamma = 1 has no energy change to normalize the power by
        flat = TrapSpec.from_gamma(1.0)
        _same_error(
            PowerUndefined,
            lambda: _full_septic_peak(flat, 30.0, 0.0, 0.0, 201),
            lambda: optimize.optimize_septic_power(flat, 30.0, 201),
        )
        for t_f, n in ((math.nan, 201), (-5.0, 201), (0.0, 201), (30.0, 500), (30.0, 1)):
            _same_error(
                ValueError,
                lambda: _full_septic_peak(spec, t_f, 0.0, 0.0, n),
                lambda: optimize.optimize_septic_power(spec, t_f, n),
            )

    def test_septic_evaluator_penalizes_a_non_positive_b(self, spec):
        # b dips below zero for a strongly negative c3: the full path refuses
        # the curve, the search's evaluator gives no peaks there
        with pytest.raises(ValueError, match="scaling function must stay positive"):
            _full_septic_peak(spec, 30.0, -1e4, 0.0, 201)
        peaks = optimize._SepticPeaks(spec, 30.0, 201)
        assert peaks.power(-1e4, 0.0) is None and peaks(-1e4, 0.0) is None

    def test_septic_search_steps_over_a_non_positive_b(self, monkeypatch):
        """A step onto a shape with b <= 0 is rejected, the trust region
        shrinks to a quarter, and the search goes on to the same optimum."""
        spec = TrapSpec.from_gamma(1000.0)
        plain = optimize.optimize_septic_power(spec, 1e5, 201)
        step, boxes = numerics._minimax_step, []

        def first_step_too_far(rows, hess, box):
            boxes.append(box)
            d3, d4, model, weights = step(rows, hess, box)
            return (-1e4, 0.0, model, weights) if len(boxes) == 1 else (d3, d4, model, weights)

        monkeypatch.setattr(numerics, "_minimax_step", first_step_too_far)
        res = optimize.optimize_septic_power(spec, 1e5, 201)
        assert optimize._SepticPeaks(spec, 1e5, 201)(-1e4, 0.0) is None
        assert boxes[1] == (boxes[0][0] / 4.0, boxes[0][1] / 4.0)
        assert res.converged and 1.0 <= res.objective < res.baseline
        assert res.objective == _full_septic_peak(spec, 1e5, *res.params, 201)
        assert res.objective == pytest.approx(plain.objective, rel=1e-9)

    def test_fused_power_form_takes_the_same_search_steps(self, fig4):
        # the fused form rounds differently from the public kernels, so the
        # final values may differ in their last bits; SciPy's Nelder-Mead
        # simplex must not
        spec4 = fig4[0]
        cases = [(spec4, spec4.omega0 * t, 801) for t in np.geomspace(5e-3, 12e-3, 6)]
        cases += [(TrapSpec.from_gamma(10.0), 30.0, 201), (TrapSpec.from_gamma(1000.0), 1e5, 201)]
        for spec, t_f, n in cases:
            start = _full_septic_peak(spec, t_f, 0.0, 0.0, n)
            public, fused = (
                _scipy_nelder_mead(peak, (0.0, 0.0), start, 1e-6)
                for peak in (_public_kernel_septic_peak(spec, t_f, n), _fused_septic_peak(spec, t_f, n))
            )
            assert fused[0] == public[0] and fused[3] == public[3], (t_f, n)
            assert fused[2] and public[2]
            assert fused[1] == pytest.approx(public[1], rel=1e-12, abs=0.0)


class TestSearchesPinned:
    """Both searches, pinned bit for bit."""

    def test_cap_search(self, spec):
        res = optimize.optimize_caps(spec, 300.0, 501)
        assert [x.hex() for x in res.params] == ["0x1.629ab1bb8967dp+1", "0x1.ba3e189eecf9ap+7"]
        assert res.objective.hex() == "0x1.1a1801a1f0b9ap-12"
        assert res.baseline.hex() == "0x1.3faebff7ab2f4p-12"
        assert (res.iterations, res.converged) == (29, True)

    def test_septic_power_search(self, fig4):
        spec, t_f = fig4
        res = optimize.optimize_septic_power(spec, t_f, 801)
        assert [x.hex() for x in res.params] == ["0x1.3a08ff49c41e0p+6", "-0x1.cbc38ebcb3c77p+8"]
        assert res.objective.hex() == "0x1.0f0ae3457cb06p+1"
        assert res.baseline.hex() == "0x1.eb5f8dcaf8ce4p+1"
        assert (res.iterations, res.converged) == (11, True)

    def test_cap_search_on_the_benchmark_grid(self, spec):
        res = optimize.optimize_caps(spec, 300.0, 2001)
        # the caps come off the grid: the same as on 501 nodes, where only the value differs
        assert [x.hex() for x in res.params] == ["0x1.629ab1bb8967dp+1", "0x1.ba3e189eecf9ap+7"]
        assert res.objective.hex() == "0x1.1a1801a1cd15ap-12"
        assert res.baseline.hex() == "0x1.3faebfebf8d76p-12"
        assert (res.iterations, res.converged) == (29, True)

    def test_septic_power_search_on_the_benchmark_grid(self, fig4):
        spec, t_f = fig4
        res = optimize.optimize_septic_power(spec, t_f, 4001)
        # the shape on 801 nodes to 2e-11: the search minimizes the continuous peak
        assert [x.hex() for x in res.params] == ["0x1.3a08ff49d0982p+6", "-0x1.cbc38ebcca953p+8"]
        assert res.objective.hex() == "0x1.0f0af8eeae8a7p+1"
        assert res.baseline.hex() == "0x1.eb6002675d105p+1"
        assert (res.iterations, res.converged) == (11, True)

    def test_short_cap_protocol_has_no_feasible_seed(self, spec):
        with pytest.raises(Infeasible, match="no real-frequency cap protocol found at t_f = 100"):
            optimize.best_cap_seed(spec, 100.0, 501)
