"""Per-layer metrics from a traced pass, named ``<workload>.<layer>.<metric>``.

Each workload reports the layers its end-to-end metrics depend on (the
table in README.md says which end-to-end metric each one should move).
Counts repeat exactly for a given seed; times are self times (span
minus child spans), drift-corrected with the factor of their block.
"""
from __future__ import annotations

from collections import Counter

from tracer import Tracer

OBJECTIVE_LAYERS = ("protocols", "ermakov", "energies")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanStats:
    def __init__(self, tr: Tracer):
        self.tr = tr
        self.dur = [d * f for d, f in zip(tr.durations(), tr.factors)]
        self.self_ = [d * f for d, f in zip(tr.self_times(), tr.factors)]
        self.calls = Counter(tr.names)

    def self_ms(self, pred) -> float:
        return 1e3 * sum(s for n, s in zip(self.tr.names, self.self_) if pred(n))

    def where(self, pred_name, pred_ancestor=None):
        tr = self.tr
        return [i for i, n in enumerate(tr.names)
                if pred_name(n) and (pred_ancestor is None or tr.has_ancestor(i, pred_ancestor))]


def _is(name):
    return lambda n: n == name


def _outer_protocol(tr: Tracer, i: int) -> bool:
    p = tr.parents[i]
    return _layer(tr.names[i]) == "protocols" and (p < 0 or _layer(tr.names[p]) != "protocols")


def design(st: SpanStats, extra: dict) -> dict:
    tr, c = st.tr, st.calls
    return {
        "core.grid_builds": (c["core.grid_validate"], "count"),
        "core.grid_validate_ms": (st.self_ms(_is("core.grid_validate")), "ms"),
        "numerics.integrate.calls": (c["numerics.integrate"], "count"),
        "numerics.integrate.self_ms": (st.self_ms(_is("numerics.integrate")), "ms"),
        "ermakov.inverse_engineer.calls": (c["ermakov.inverse_engineer"], "count"),
        "ermakov.inverse_engineer.self_ms": (st.self_ms(_is("ermakov.inverse_engineer")), "ms"),
        "protocols.build.calls": (sum(_outer_protocol(tr, i) for i in range(len(tr.names))), "count"),
        "protocols.build.self_ms": (st.self_ms(lambda n: _layer(n) == "protocols"), "ms"),
        "protocols.bang_bang_times.calls": (c["protocols.bang_bang_times"], "count"),
        "energies.averages.self_ms": (st.self_ms(_is("energies.averages")), "ms"),
        "energies.nonadiabatic_energy.calls": (c["energies.nonadiabatic_energy"], "count"),
        "energies.nonadiabatic_energy.self_ms": (st.self_ms(_is("energies.nonadiabatic_energy")), "ms"),
        "energies.power.self_ms": (st.self_ms(_is("energies.power")), "ms"),
        "energies.lower_bound_avg_energy.calls": (c["energies.lower_bound_avg_energy"], "count"),
        "energies.lower_bound_avg_energy.self_ms":
            (st.self_ms(_is("energies.lower_bound_avg_energy")), "ms"),
    }


def search(st: SpanStats, extra: dict) -> dict:
    tr, c = st.tr, st.calls
    in_opt = lambda n: _layer(n) == "optimize"   # noqa: E731
    in_caps = _is("optimize.optimize_caps")
    in_thr = _is("verify.na_feasibility_threshold")
    evals = [i for i in st.where(lambda n: _layer(n) == "protocols", in_opt) if _outer_protocol(tr, i)]
    # the objective's own calls: library spans entered straight from the search code
    tops = [i for i in st.where(lambda n: _layer(n) in OBJECTIVE_LAYERS, in_opt)
            if _layer(tr.names[tr.parents[i]]) not in OBJECTIVE_LAYERS]
    hybrid = len(st.where(_is("protocols.hybrid_caps"), in_caps))
    thr = st.where(in_thr)
    return {
        "ermakov.inverse_engineer.calls": (c["ermakov.inverse_engineer"], "count"),
        "ermakov.inverse_engineer.self_ms": (st.self_ms(_is("ermakov.inverse_engineer")), "ms"),
        "protocols.build.calls": (sum(_outer_protocol(tr, i) for i in range(len(tr.names))), "count"),
        "protocols.build.self_ms": (st.self_ms(lambda n: _layer(n) == "protocols"), "ms"),
        "numerics.nelder_mead_2d.calls": (c["numerics.nelder_mead_2d"], "count"),
        "numerics.nelder_mead_2d.iterations": (tr.counters["numerics.nelder_mead_2d.iterations"], "count"),
        "optimize.optimize_caps.calls": (c["optimize.optimize_caps"], "count"),
        "optimize.optimize_caps.infeasible":
            (tr.counters["optimize.optimize_caps.raised.Infeasible"], "count"),
        "optimize.objective_evals": (len(evals), "count"),
        "optimize.feasible_eval_ratio":
            (len(st.where(_is("energies.nonadiabatic_energy"), in_caps)) / max(hybrid, 1), "ratio"),
        "optimize.objective_eval_ms": (1e3 * sum(st.dur[i] for i in tops) / max(len(evals), 1), "ms"),
        "optimize.optimize_septic_power.self_ms":
            (st.self_ms(_is("optimize.optimize_septic_power")), "ms"),
        "verify.na_feasibility_threshold.probes": (len(st.where(in_caps, in_thr)), "count"),
        "verify.na_feasibility_threshold.nelder_mead_calls":
            (len(st.where(_is("numerics.nelder_mead_2d"), in_thr)), "count"),
        "verify.na_feasibility_threshold.ms": (1e3 * sum(st.dur[i] for i in thr) / max(len(thr), 1), "ms"),
    }


def roundtrip(st: SpanStats, extra: dict) -> dict:
    steps = st.tr.counters["numerics.rk4_solve.steps"]
    rk4_ms = st.self_ms(_is("numerics.rk4_solve"))
    return {
        "core.spline_builds": (st.tr.counters["core.spline_builds"], "count"),
        "numerics.rk4_solve.steps": (steps, "count"),
        "numerics.rk4_solve.self_ms": (rk4_ms, "ms"),
        "numerics.rk4_solve.us_per_step": (1e3 * rk4_ms / max(steps, 1), "us"),
        "ermakov.forward_solve.self_ms": (st.self_ms(_is("ermakov.forward_solve")), "ms"),
        "protocols.constant_power_shoot.self_ms":
            (st.self_ms(_is("protocols.constant_power_shoot")), "ms"),
    }


def cli(st: SpanStats, extra: dict) -> dict:
    in_cli = lambda n: _layer(n) == "cli"   # noqa: E731
    return {
        "energies.lower_bound_avg_energy.calls": (st.calls["energies.lower_bound_avg_energy"], "count"),
        "energies.lower_bound_avg_energy.self_ms":
            (st.self_ms(_is("energies.lower_bound_avg_energy")), "ms"),
        "cli.self_ms": (st.self_ms(in_cli), "ms"),
        "cli.bytes_written": (extra["bytes_written"], "bytes"),
        "cli.rows_written": (extra["rows_written"], "count"),
        "cli.lower_bound_calls":
            (len(st.where(_is("energies.lower_bound_avg_energy"), in_cli)), "count"),
    }


METRICS = {"design": design, "search": search, "roundtrip": roundtrip, "cli": cli}


def layer_metrics(workload: str, tr: Tracer, extra: dict) -> dict:
    return {f"{workload}.{k}": v for k, v in METRICS[workload](SpanStats(tr), extra).items()}
