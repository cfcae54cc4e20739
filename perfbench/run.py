#!/usr/bin/env python3
"""staexpand benchmark: drift-corrected timings of four workloads.

    python3 perfbench/run.py --workload design --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` runs one workload for ``--seconds`` (whole rounds, at
least MIN_OPS ops), checks every output, and prints its end-to-end
metrics.  ``--trace 1`` runs a fixed op list of every workload twice,
plain and with the boundary tracer, and prints the per-layer metrics.
The last line of standard output is the JSON result.  ``--workload all``
runs each workload and then the traced run, in separate processes, and
prints a table.  See README.md.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")   # one thread of work per workload

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

import calib
import checks
import inputs
import layers
import selftest
from calib import MIN_OPS, percentile
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
TRACE_ROUNDS = {"design": 4, "search": 1, "roundtrip": 1, "cli": 2}


def quartile_spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class Runner:
    """Runs ops, times the call into the program, checks the outputs."""

    def __init__(self, run_op, out_dir: str):
        self.run_op = run_op
        self.out_dir = out_dir
        self.failed = 0
        self.unexpected: list[str] = []
        self.fault_messages: dict[str, str] = {}
        self.case_figures: dict[int, list[float]] = {}
        self.cli_outputs: dict[int, tuple[str, int]] = {}
        self.bytes_written = 0
        self.rows_written = 0

    def run(self, op: dict) -> float:
        t0 = time.perf_counter()
        try:
            res = self.run_op(op, self.out_dir)
        except Exception as exc:   # a raising op is a failed op, not a crashed run
            dt = time.perf_counter() - t0
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return dt
        dt = time.perf_counter() - t0
        try:
            self._check(op, res)
        except Exception as exc:
            self._fail(op, f"{type(exc).__name__}: {exc}")
        return dt

    def _fail(self, op: dict, message: str) -> None:
        self.failed += 1
        if op.get("fault"):
            self.fault_messages[op["fault"]] = message
        else:
            self.unexpected.append(f"{json.dumps(op)}: {message}")

    def _check(self, op: dict, res: dict) -> None:
        kind = op["kind"]
        if kind == "roundtrip":
            figures = self.case_figures.setdefault(op["case"], [])
            figures.append(checks.check_roundtrip(op, res))
            if len(figures) == 3:
                del self.case_figures[op["case"]]
                checks.check_convergence(figures)
        elif kind == "cli":
            digest, size = checks.output_digest(res["out"])
            if op["key"] not in self.cli_outputs:
                rows = checks.check_cli(op, res)
                self.cli_outputs[op["key"]] = (digest, rows)
            first, rows = self.cli_outputs[op["key"]]
            checks.expect(digest == first, f"output of {op['argv']} changed between runs")
            self.bytes_written += size
            self.rows_written += rows
        else:
            checks.CHECKERS[kind](op, res)


def setup_time(workload: str, seed: int, out_dir: str) -> float:
    """Median over fresh interpreters of import + first op (not drift-corrected)."""
    probe = os.path.join(HERE, "probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, probe, workload, str(seed), out_dir],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(run_op, workload: str, seed: int, seconds: float, out_dir: str) -> dict:
    setup_s = setup_time(workload, seed, out_dir)
    runner = Runner(run_op, out_dir)
    source = inputs.WORKLOADS[workload](seed)
    runner.run(inputs.WORKLOADS[workload](seed).next_round()[0])   # warm-up, untimed
    warm_failed = runner.failed
    blocks = calib.Blocks()
    attempted = 0
    t_start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - t_start < seconds:
        for op in source.next_round():
            blocks.add(runner.run(op))
            attempted += 1
    blocks.close()
    times = blocks.corrected
    raw = blocks.raw
    factors = blocks.factors
    print(f"# {workload}: {attempted} ops in {time.perf_counter() - t_start:.2f} s, "
          f"{len(factors)} calibration blocks")
    print(f"# calibration factor: median {statistics.median(factors):.4f}, "
          f"min {min(factors):.4f}, max {max(factors):.4f}, "
          f"quartile spread {quartile_spread(factors):.4f}")
    print(f"# raw: ops_per_s {len(raw) / sum(raw):.4f}, op_ms_p50 {1e3 * percentile(raw, 0.5):.4f}, "
          f"op_ms_p90 {1e3 * percentile(raw, 0.9):.4f}")
    for fault, message in sorted(runner.fault_messages.items()):
        print(f"# known fault: {fault}: {message}")
    for message in runner.unexpected[:20]:
        print(f"# FAILED: {message}")
    return {
        "correct": not runner.unexpected,
        "attempted": attempted,
        "failed": runner.failed - warm_failed,
        "metrics": {
            "ops_per_s": {"value": attempted / sum(times), "unit": "ops/s"},
            "op_ms_p50": {"value": 1e3 * percentile(times, 0.5), "unit": "ms"},
            "op_ms_p90": {"value": 1e3 * percentile(times, 0.9), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        },
    }


def fixed_ops(workload: str, seed: int) -> list[dict]:
    source = inputs.WORKLOADS[workload](seed)
    return [op for _ in range(TRACE_ROUNDS[workload]) for op in source.next_round()]


def traced_pass(run_op, workload: str, seed: int, out_dir: str, tr: Tracer | None):
    """Runs the workload's fixed op list; returns (runner, corrected op times)."""
    runner = Runner(run_op, out_dir)
    blocks = calib.Blocks(on_close=tr.set_block_factor if tr else None)
    if tr is not None:
        tr.install()
    try:
        for op in fixed_ops(workload, seed):
            blocks.add(runner.run(op))
        blocks.close()
    finally:
        if tr is not None:
            tr.uninstall()
    return runner, blocks.corrected


def trace(run_op, workload: str, seed: int, out_dir: str) -> dict:
    selftest.run()
    metrics, attempted, failed, unexpected = {}, 0, 0, []
    os.makedirs(OUT, exist_ok=True)
    for wl in inputs.WORKLOADS:
        plain, plain_times = traced_pass(run_op, wl, seed, out_dir, None)
        tr = Tracer()
        traced, traced_times = traced_pass(run_op, wl, seed, out_dir, tr)
        tr.dump(os.path.join(OUT, f"spans-{wl}-{seed}.json"))
        extra = {"bytes_written": traced.bytes_written, "rows_written": traced.rows_written}
        for name, (value, unit) in layers.layer_metrics(wl, tr, extra).items():
            metrics[name] = {"value": value, "unit": unit}
        overhead = 100.0 * (sum(traced_times) / sum(plain_times) - 1.0)
        metrics[f"{wl}.trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        print(f"# {wl}: tracing overhead {overhead:.2f}% over {len(traced_times)} ops")
        unexpected += plain.unexpected + traced.unexpected
        if wl == workload:
            attempted = len(plain_times) + len(traced_times)
            failed = plain.failed + traced.failed
    for message in unexpected[:20]:
        print(f"# FAILED: {message}")
    return {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: int) -> int:
    results = {}
    for wl in list(inputs.WORKLOADS) + ["trace"]:
        argv = [sys.executable, os.path.abspath(__file__), "--workload",
                "design" if wl == "trace" else wl, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "1" if wl == "trace" else "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[wl] = json.loads(proc.stdout.splitlines()[-1])
    for wl, res in results.items():
        print(f"\n{wl}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:58s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["design", "search", "roundtrip", "cli", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "staexpand", "__init__.py")):
        print(f"error: no staexpand sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, int(args.seconds))
    sys.path.insert(0, SRC)
    warnings.simplefilter("ignore", RuntimeWarning)   # the known NaN-power fault warns
    import ops   # imports staexpand

    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            result = trace(ops.run, args.workload, args.seed, out_dir)
        else:
            result = measure(ops.run, args.workload, args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
