"""Output checks of every op against the independent oracle.

A check raises ``CheckFailed`` with the measured error and its limit.
Tolerances follow the discretization error of the method at the grid
used; each limit below states its reason:

* Same-node comparisons (the oracle's closed forms and its own Simpson
  evaluated on the program's nodes) differ only by round-off: 1e-9
  relative to the quantity's scale.
* A quadrature against an exact value (equipartition, the bound, the
  power integral) may miss by its Simpson error.  The oracle estimates
  that error by halving every interval, |S(h) - S(h/2)| = (15/16) err(h)
  for an O(h^4) rule, and the check allows ten times the estimate.
* The program's quadrature bound uses a grid the oracle does not see;
  its limit is ``oracle.bound_tolerance``.
* RK4 round trips are O(h^4): ``ROUNDTRIP_TOL`` at 501 nodes scaled by
  h^4, and the error must shrink by at least 8 per grid doubling
  wherever the finer error is above the round-off floor.
"""
from __future__ import annotations

import hashlib
import math
import os

import numpy as np

import oracle

SAME_NODES = 1e-9
RICHARDSON_SAFETY = 10.0
ROUNDOFF = 1e-12
# Worst measured round-trip max|db|/b at 501 nodes is 1.6e-6 (dirac,
# gamma ~ 5, t_f ~ 40) over gamma in [1.5, 20], t_f in [2, 50]; the limit
# keeps a factor 12 and scales as h^4.
ROUNDTRIP_TOL_501 = 2e-5
ROUNDTRIP_FLOOR = 1e-10
COMPLETE = ("quintic", "septic", "hybrid", "dirac", "bang_bang", "bang_bang_na")


class CheckFailed(AssertionError):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def close(name: str, got, want, tol: float = SAME_NODES) -> None:
    err = rel_err(got, want)
    expect(err <= tol, f"{name}: relative error {err:.3e} > {tol:.1e}")


# ------------------------------------------------------------------ design

class Quadrature:
    """Oracle averages of one curve on the program's grid, with error estimates."""

    def __init__(self, fns, nodes, pieces, t_f):
        self.t_f = t_f
        self.coarse = (nodes, pieces, oracle.sample(fns, nodes, pieces))
        fine_nodes, fine_pieces = oracle.refined_pieces(nodes, pieces)
        self.fine = (fine_nodes, fine_pieces, oracle.sample(fns, fine_nodes, fine_pieces))

    def average(self, integrand) -> tuple[float, float]:
        """(average on the program's nodes, estimated error of that average)."""
        vals = []
        for nodes, pieces, arrays in (self.coarse, self.fine):
            vals.append(oracle.integrate_pieces(integrand(*arrays), nodes, pieces) / self.t_f)
        return vals[0], abs(vals[0] - vals[1]) * 16.0 / 15.0


def _oracle_params(op, bundle):
    params = dict(op)
    if op["family"] in ("bang_bang", "bang_bang_na"):
        x = bundle.extra
        params.update(omega1=x["omega1"], omega2=x["omega2"], t1=x["t1"])
    return params


def check_design(op: dict, res: dict) -> None:
    gamma, t_f, mode = op["gamma"], op["t_f"], op["mode"]
    if op["family"] == "bound_report":
        check_bound_report(gamma, t_f, mode, res["report"])
        return
    fam = op["family"]
    bundle, trace = res["bundle"], res["trace"]
    curve, profile = bundle.curve, bundle.profile
    grid = curve.grid
    if fam in ("bang_bang", "bang_bang_na"):
        achieved = bundle.extra["t1"] + bundle.extra["t2"]
        expect(abs(achieved - t_f) <= 1e-12 * t_f,
               f"requested t_f = {t_f!r}, achieved {achieved!r}")
    expect(abs(grid.t_f - t_f) <= 1e-12 * t_f, f"grid ends at {grid.t_f!r}, not {t_f!r}")

    fns = oracle.shape(fam, gamma, t_f, _oracle_params(op, bundle))
    quad = Quadrature(fns, grid.nodes, grid.pieces, t_f)
    b, b1, b2, _ = quad.coarse[2]
    close("b", curve.b, b)
    close("bdot", curve.bdot, b1)
    close("bddot", curve.bddot, b2)
    def w2_of(b, b2):   # the bottom-tracking line sets W = 1/b^2 itself
        return 1.0 / b**4 if fam == "linear_bottom" else oracle.omega2_of(b, b2)

    close("omega2", profile.omega2, w2_of(b, b2))
    kicks = 0.0
    if fam == "dirac":
        kicks = oracle.dirac_kick_energy(gamma, t_f, mode)
        (t0, d0), (t1, d1) = profile.impulses
        a, bb = oracle.quasi_optimal_AB(gamma, t_f)
        close("kick strengths", [d0, d1], [-bb / t_f, (a + bb) / (gamma**2 * t_f)])

    avg_k, err_k = quad.average(lambda b, b1, b2, b3: oracle.energies_at(b, b1, w2_of(b, b2), mode)[1])
    avg_v, err_v = quad.average(lambda b, b1, b2, b3: oracle.energies_at(b, b1, w2_of(b, b2), mode)[2])
    avg_e = avg_k + avg_v + kicks
    close("avg_K", trace.avg_K, avg_k)
    close("avg_V", trace.avg_V, avg_v + kicks)
    close("avg_E", trace.avg_E, avg_e)

    exact = oracle.E_nL(gamma, t_f, mode)
    close("lower_bound_avg_energy", res["bound"].value, exact, oracle.bound_tolerance(2001))
    if fam in COMPLETE:
        slack = RICHARDSON_SAFETY * (err_k + err_v) / avg_e + 1e-12
        virial = abs(trace.avg_K - trace.avg_V) / trace.avg_E
        expect(virial <= slack, f"equipartition |K - V|/E = {virial:.3e} > {slack:.3e}")
        margin = RICHARDSON_SAFETY * (err_k + err_v) + 1e-12 * exact
        if fam == "dirac":
            expect(abs(trace.avg_E - exact) <= margin,
                   f"dirac avg_E - E_nL = {trace.avg_E - exact:.3e}, limit {margin:.3e}")
        else:
            expect(trace.avg_E >= exact - margin, f"avg_E {trace.avg_E!r} below E_nL {exact!r}")
    if fam in ("bang_bang", "bang_bang_na"):
        x = bundle.extra
        energy = oracle.bang_bang_segment_energies(gamma, x["omega1"], x["omega2"], mode)
        for (lo, hi), e, step in zip(grid.pieces[::-1], energy[::-1], ("second", "first")):
            # on an imaginary step E is a small difference of large terms
            scale = float(np.max(trace.K[lo : hi + 1] + np.abs(trace.V[lo : hi + 1])))
            err = float(np.max(np.abs(trace.E[lo : hi + 1] - e)))
            expect(err <= SAME_NODES * scale, f"{step}-step energy off by {err:.3e} (terms {scale:.3e})")

    if res["na"] is not None:
        _, avg_na, _ = res["na"]
        want, err = quad.average(lambda b, b1, b2, b3: oracle.ena_at(b, b1, w2_of(b, b2)))
        # Ena is a difference of terms of order 1/b^2: round-off scales with them
        size, _ = quad.average(lambda b, b1, b2, b3: b1**2 + np.abs(w2_of(b, b2)) * b**2 + 1.0 / b**2)
        close("avg_Ena", avg_na, want, SAME_NODES * (1.0 + size / max(abs(want), 1e-300)))
        bound_na = oracle.Ena_L(gamma, t_f)
        margin = RICHARDSON_SAFETY * err + ROUNDOFF * size
        if fam == "linear_bottom":   # rides the minimum: equality
            expect(abs(avg_na - bound_na) <= margin, f"linear avg_Ena - Ena_L = {avg_na - bound_na:.3e}")
        else:
            expect(avg_na >= bound_na - margin, f"avg_Ena {avg_na!r} below Ena_L {bound_na!r}")

    pw = res["power"]
    if pw is not None:
        expect(math.isfinite(pw.peak_rel) and bool(np.all(np.isfinite(pw.P_rel))),
               f"power: peak_rel = {pw.peak_rel!r} is not finite")
        if fam in COMPLETE:
            want = oracle.power_expected(gamma, mode)
            c = (2 * mode + 1) / 4.0
            p_of = lambda b, b1, b2, b3: c * oracle.domega2_of(b, b1, b2, b3) * b**2   # noqa: E731
            _, err = quad.average(p_of)
            # P and the frequency-step terms swing far above their sum for
            # short, wide expansions: allow round-off on their magnitudes too
            size, _ = quad.average(lambda *a: np.abs(p_of(*a)))
            size = size * t_f + sum(abs(e) for _, e in pw.steps) + abs(want)
            margin = RICHARDSON_SAFETY * err * t_f + ROUNDOFF * size
            expect(abs(pw.integral - want) <= margin,
                   f"power integral {pw.integral!r} vs {want!r}, limit {margin:.3e}")


def check_bound_report(gamma, t_f, mode, rep) -> None:
    wf = 1.0 / gamma**2
    tn = 2 * mode + 1
    exact = oracle.E_nL(gamma, t_f, mode)
    close("E_nL", rep.E_nL.value, exact, oracle.bound_tolerance(2001))
    if rep.E_nL.closed_form_valid:
        close("E_nL closed form", rep.E_nL.closed_form, exact, 1e-10)
    close("Ena_L", rep.Ena_L, oracle.Ena_L(gamma, t_f), 1e-14)
    close("tf_max", rep.tf_max, math.pi * gamma / 2.0, 1e-14)
    close("E_min", rep.E_min, tn * (1.0 + wf) / 4.0, 1e-14)
    close("E_nL_small_tf", rep.E_nL_small_tf, tn * gamma**2 / (2.0 * t_f**2), 1e-14)
    close("free expansion", [rep.free_expansion_tf, rep.free_expansion_avg_E], [gamma, mode + 0.5], 1e-14)


# ------------------------------------------------------------------ search

def check_caps(op: dict, res: dict) -> None:
    gamma, t_f, n = op["gamma"], op["t_f"], op["n"]
    feasible = oracle.caps_seed_feasible(gamma, t_f, n)
    if "infeasible" in res:
        expect(not feasible, f"optimize_caps refused t_f = {t_f!r}, a seed is feasible")
        return
    r = res["result"]
    expect(feasible, f"optimize_caps accepted t_f = {t_f!r}, no seed is feasible")
    tau_l, tau_s = r.params
    expect(oracle.cap_min_omega2(gamma, t_f, tau_l, tau_s, n) >= -1e-12, "result has an imaginary band")
    close("seed baseline", r.baseline, oracle.caps_seed_baseline(gamma, t_f, n))
    close("objective", r.objective, oracle.cap_avg_ena(gamma, t_f, tau_l, tau_s, n))
    expect(r.objective <= r.baseline, f"objective {r.objective!r} above baseline {r.baseline!r}")
    floor = oracle.Ena_L(gamma, t_f)
    expect(r.objective >= floor * (1.0 - 1e-9), f"objective {r.objective!r} below Ena_L {floor!r}")


def check_septic_power(op: dict, res: dict) -> None:
    spec, r, n, t_f = res["spec"], res["result"], op["n"], op["t_f"]
    gamma = spec.gamma
    close("baseline peak", r.baseline, float(np.max(np.abs(oracle.septic_power_rel(gamma, t_f, 0.0, 0.0, n)))))
    peak = float(np.max(np.abs(oracle.septic_power_rel(gamma, t_f, *r.params, n))))
    close("optimized peak", r.objective, peak)
    expect(r.objective <= r.baseline, f"peak {r.objective!r} above baseline {r.baseline!r}")
    expect(r.objective >= 1.0, f"peak {r.objective!r} below the mean-value floor 1")


def check_threshold(op: dict, res: dict) -> None:
    thr, gamma, n = res["threshold"], op["gamma"], op["n"]
    step = (op["hi"] - op["lo"]) / 2**20
    expect(op["lo"] < thr <= op["hi"], f"threshold {thr!r} outside the bracket")
    expect(oracle.caps_seed_feasible(gamma, thr, n), f"no seed feasible at the threshold {thr!r}")
    expect(not oracle.caps_seed_feasible(gamma, thr - 2.0 * step, n),
           f"a seed is feasible below the threshold {thr!r}")


# --------------------------------------------------------------- roundtrip

def roundtrip_tol(n: int) -> float:
    return ROUNDTRIP_TOL_501 * (500.0 / (n - 1)) ** 4


def check_roundtrip(op: dict, res: dict) -> tuple[float, tuple[int, ...]]:
    """Checks one solve; returns what ``check_convergence`` compares across
    the case's three grids: the round-trip error and the interval count of
    every grid piece."""
    curve = res["curve"]
    expect(bool(np.all(np.isfinite(curve.b))), "curve has non-finite samples")
    if op["family"] == "constant_power":
        b, b1, b2, b3 = curve.b, curve.bdot, curve.bddot, curve.bdddot
        wf = 1.0 / op["gamma"] ** 2
        p_rel = op["t_f"] / (2.0 * (wf - 1.0)) * oracle.domega2_of(b, b1, b2, b3) * b**2
        close("constant relative power", p_rel, np.ones_like(p_rel))
        close("start from rest", [b[0], b1[0], b2[0]], [1.0, 0.0, 0.0], 1e-15)
    err = float(np.max(np.abs(res["redone"].b - curve.b) / curve.b))
    tol = roundtrip_tol(op["n"])
    expect(err <= tol, f"round trip max|db|/b = {err:.3e} > {tol:.3e}")
    return err, tuple(hi - lo for lo, hi in curve.grid.pieces)


def check_convergence(results: list) -> None:
    """Round-trip errors over grids 501, 1001, 2001 shrink as RK4's h^4."""
    for (coarse, m_coarse), (fine, m_fine) in zip(results[:-1], results[1:]):
        # a short piece keeps its minimum interval count: not a doubling there
        doubled = all(mf >= 2 * mc - 2 for mc, mf in zip(m_coarse, m_fine))
        if doubled and fine > ROUNDTRIP_FLOOR:
            expect(coarse / fine >= 8.0, f"error ratio {coarse / fine:.2f} < 8 per grid doubling")


# --------------------------------------------------------------------- cli

def _read_csv(path: str):
    meta, header, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def _summary(meta, key):
    for line in meta:
        if line.startswith(f"# summary {key} = "):
            return line
    raise CheckFailed(f"summary line {key!r} missing")


def _num(text: str) -> float:
    return float(text.split("=", 1)[1].split()[0])


def _cli_args(argv):
    return {argv[i][2:].replace("-", "_"): argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _pieces_from_t(t):
    """Pieces of a CSV grid: interior switching times appear on two rows."""
    pieces, lo = [], 0
    for i in range(1, len(t)):
        if t[i] == t[i - 1]:
            pieces.append((lo, i - 1))
            lo = i
    pieces.append((lo, len(t) - 1))
    return tuple(pieces)


def _cli_shape(args, t, pieces):
    fam = args["family"]
    gamma, t_f = float(args["gamma"]), float(args["tf_dimensionless"])
    if fam not in ("quintic", "septic", "hybrid", "quasi_optimal", "dirac", "linear_bottom"):
        return None
    params = {k: float(args[k]) for k in ("c3", "c4", "tau_l", "tau_s") if k in args}
    return oracle.sample(oracle.shape(fam, gamma, t_f, params), t, pieces)


def check_cli_table(argv, path) -> int:
    """Checks a protocol or energy table; returns its data row count."""
    args = _cli_args(argv)
    meta, header, rows = _read_csv(path)
    cols = {name: np.array([float(r[i]) if r[i] else np.nan for r in rows])
            for i, name in enumerate(header)}
    t = cols["t"]
    gamma, t_f, grid = float(args["gamma"]), float(args["tf_dimensionless"]), int(args["grid"])
    fam = args["family"]
    expect(len(rows) >= grid - 2 and abs(t[-1] - t_f) <= 1e-11 * t_f and t[0] == 0.0,
           f"{len(rows)} rows ending at t = {t[-1]!r} for t_f = {t_f!r}")
    pieces = _pieces_from_t(t)
    arrays = _cli_shape(args, t, pieces)
    if argv[0] == "protocol":
        expect(bool(np.all((cols["omega2"] < 0) == (cols["omega2_negative"] == 1))), "omega2_negative flag")
        if arrays is not None:
            b, b1, b2, _ = arrays
            close("b column", cols["b"], b)
            close("bdot column", cols["bdot"], b1)
            close("bddot column", cols["bddot"], b2)
        else:
            close("b(0)", cols["b"][0], 1.0, 1e-11)
            if fam != "constant_power":   # the shot's far end is not pinned
                close("b(t_f)", cols["b"][-1], gamma, 1e-8)
        return len(rows)
    mode = 0
    avg_k, avg_v = _num(_summary(meta, "avg_K")), _num(_summary(meta, "avg_V"))
    avg_e = _num(_summary(meta, "avg_E"))
    close("avg_E = avg_K + avg_V", avg_e, avg_k + avg_v, 1e-10)
    bound_line = _summary(meta, "bound E_nL")
    close("E_nL", _num(bound_line), oracle.E_nL(gamma, t_f, mode), oracle.bound_tolerance(grid) + 1e-11)
    if arrays is not None:
        b, b1, b2, _ = arrays
        w2 = 1.0 / b**4 if fam == "linear_bottom" else oracle.omega2_of(b, b2)
        e, _, _ = oracle.energies_at(b, b1, w2, mode)
        close("E column", cols["E"], e)
    if fam in COMPLETE:
        _summary(meta, "virial |K/V - 1|")   # the virial line is printed for complete protocols
    return len(rows)


def check_fig1(out_dir: str) -> int:
    rows_total = 0
    omega0 = 2.0 * math.pi * 2500.0
    gamma = 10.0
    for family in ("quintic", "bang_bang", "bound"):
        _, header, rows = _read_csv(os.path.join(out_dir, f"fig1_{family}.csv"))
        expect(header == ["t_f", "avg_E", "E_nL", "reason"] and len(rows) == 132, f"fig1 {family} layout")
        for t_s, value, bound, reason in rows:
            t_f = float(t_s) * omega0
            exact = oracle.E_nL(gamma, t_f, 0)
            close(f"fig1 {family} bound column", float(bound), exact, oracle.bound_tolerance(2001) + 1e-11)
            expect(value != "" and float(value) >= float(bound) * (1.0 - oracle.bound_tolerance(2001)),
                   f"fig1 {family} row at t_f = {t_s} below its bound ({reason})")
        rows_total += len(rows)
    return rows_total


def check_fig4(path: str) -> int:
    meta, header, rows = _read_csv(path)
    data = np.array([[float(x) for x in r] for r in rows])
    s, q, sp = data[:, 0], data[:, 1], data[:, 2]
    h = s[1] - s[0]
    for name, col in (("quintic", q), ("septic", sp)):
        # 4001 nodes and 12 printed digits: Simpson and rounding stay below 1e-9
        close(f"integral of P_rel ({name})", oracle.simpson(col, h), 1.0, 1e-9)
    peak_q, peak_s = float(np.max(np.abs(q))), float(np.max(np.abs(sp)))
    expect(1.0 <= peak_s <= peak_q, f"septic peak {peak_s} vs quintic {peak_q}")
    return len(rows)


def output_digest(out: str) -> tuple[str, int]:
    """(sha256 over the output file or directory, total bytes)."""
    paths = [os.path.join(out, f) for f in sorted(os.listdir(out))] if os.path.isdir(out) else [out]
    h, size = hashlib.sha256(), 0
    for p in paths:
        with open(p, "rb") as fh:
            data = fh.read()
        h.update(os.path.basename(p).encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def check_cli(op: dict, res: dict) -> int:
    """First run of an argv: content checks; returns the data row count."""
    expect(res["code"] == 0, f"exit code {res['code']}")
    argv, out = op["argv"], res["out"]
    if argv[0] == "sweep":
        return check_fig1(out)
    if argv[0] == "power":
        return check_fig4(out)
    return check_cli_table(argv, out)


CHECKERS = {
    "design": check_design,
    "caps": check_caps,
    "septic_power": check_septic_power,
    "threshold": check_threshold,
}
