"""Self-test of the benchmark's own arithmetic; the traced run calls it first.

    python3 perfbench/selftest.py
"""
import math
import types

import calib
from tracer import Tracer


def _expect(ok: bool, what) -> None:
    if not ok:
        raise AssertionError(f"benchmark self-test failed: {what}")


def _self_time_arithmetic() -> None:
    tr = Tracer()
    # parent [0, 10] with children [1, 4] and [5, 7]; [5.5, 6] nests in the second
    tr.names = ["a", "b", "c", "d"]
    tr.starts = [0.0, 1.0, 5.0, 5.5]
    tr.ends = [10.0, 4.0, 7.0, 6.0]
    tr.parents = [-1, 0, 0, 2]
    _expect(tr.self_times() == [5.0, 3.0, 1.5, 0.5], tr.self_times())

    # live spans: self times of a call tree add up to the root's duration
    mod = types.SimpleNamespace()
    mod.leaf = lambda: sum(range(2000))
    mod.mid = lambda: mod.leaf() + mod.leaf()
    mod.root = lambda: mod.mid() + mod.leaf()
    live = Tracer()
    for name in ("leaf", "mid", "root"):
        live._wrap(mod, name, name)
    mod.root()
    live.uninstall()
    _expect(live.names == ["root", "mid", "leaf", "leaf", "leaf"], live.names)
    _expect(live.parents == [-1, 0, 1, 1, 0], live.parents)
    total = live.durations()[0]
    _expect(math.isclose(sum(live.self_times()), total, rel_tol=1e-9), (live.self_times(), total))
    _expect(all(s >= 0.0 for s in live.self_times()), live.self_times())


def _percentile_rule() -> None:
    values = list(range(1, calib.MIN_OPS + 1))
    p90 = calib.percentile(values, 0.9)
    _expect(sum(v > p90 for v in values) >= 10, p90)
    _expect(calib.percentile(values, 0.5) == calib.MIN_OPS // 2, "median of 1..MIN_OPS")
    _expect(calib.percentile([3.0], 0.9) == 3.0, "percentile of one value")


def run() -> None:
    _self_time_arithmetic()
    _percentile_rule()


if __name__ == "__main__":
    run()
    print("selftest passed")
