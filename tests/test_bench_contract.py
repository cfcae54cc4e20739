"""The library API the benchmark drives (perfbench/ops.py) and checks
(perfbench/checks.py): one op of each kind runs through the benchmark's own
runner and checker, so an API change that breaks the benchmark fails here.
Both files are read, not changed.  The threshold op (seconds per call) is
left out; the others stay small."""
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
        import inputs
        import ops
    finally:
        sys.path.remove(str(PERFBENCH))
    return SimpleNamespace(checks=checks, inputs=inputs, ops=ops)


def _first_per_family(ops):
    """The first op of each family, in the order the families first appear."""
    seen = {}
    for op in ops:
        if not op.get("fault"):
            seen.setdefault(op["family"], op)
    return list(seen.values())


def _design_ops(inputs):
    drawn = _first_per_family(inputs.Design(1).next_round())
    assert {op["family"] for op in drawn} == {*inputs.DESIGN_FAMILIES, "bound_report"}
    # the two build families the design workload does not draw
    extra = [{"kind": "design", "family": "quasi_optimal", "gamma": 10.0, "t_f": 3.0, "mode": 1},
             {"kind": "design", "family": "bang_bang_na", "gamma": 10.0, "t_f": 12.0, "mode": 0}]
    return drawn + extra


def test_design_ops_pass_their_checks(bench, tmp_path):
    for op in _design_ops(bench.inputs):
        bench.checks.CHECKERS["design"](op, bench.ops.run(op, str(tmp_path)))


def test_roundtrip_ops_pass_their_checks(bench, tmp_path):
    cases = _first_per_family(op for op in bench.inputs.Roundtrip(1).next_round() if op["n"] == 501)
    assert [op["family"] for op in cases] == list(bench.inputs.Roundtrip.FAMILIES)
    for op in cases:
        err, _ = bench.checks.check_roundtrip(op, bench.ops.run(op, str(tmp_path)))
        assert math.isfinite(err)


@pytest.mark.parametrize("t_f, feasible", [(300.0, True), (50.0, False)])
def test_caps_ops_pass_their_checks(bench, tmp_path, t_f, feasible):
    op = {"kind": "caps", "gamma": 10.0, "t_f": t_f, "n": 501}
    res = bench.ops.run(op, str(tmp_path))
    assert ("result" in res) == feasible
    bench.checks.CHECKERS["caps"](op, res)


@pytest.mark.parametrize("t_f_s, n", [(8e-3, 401), (5e-3, None), (12e-3, None)])
def test_septic_power_op_passes_its_check(bench, tmp_path, t_f_s, n):
    # None: the search workload's own grid, at both ends of its drawn durations
    op = {"kind": "septic_power", "t_f": bench.inputs.FIG4_OMEGA0 * t_f_s,
          "n": n or bench.inputs.Search.POWER_GRID}
    bench.checks.CHECKERS["septic_power"](op, bench.ops.run(op, str(tmp_path)))


def test_cli_protocol_op_passes_its_check(bench, tmp_path):
    argv = ["protocol", "--gamma", "10.0", "--family", "hybrid", "--tf-dimensionless", "30.0",
            "--grid", "501", "--tau-l", "3.0", "--tau-s", "4.5"]
    op = {"kind": "cli", "argv": argv, "key": 0}
    res = bench.ops.run(op, str(tmp_path))
    rows = bench.checks.check_cli(op, res)
    assert f"# nodes = {rows}" in Path(res["out"]).read_text(encoding="utf-8").splitlines()
