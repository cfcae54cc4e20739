"""The library names the benchmark's boundary tracer (perfbench/tracer.py)
wraps: the tracer is read here, not changed, and must find every name it
replaces and put every attribute back."""
import importlib
import importlib.util
import inspect
from pathlib import Path

from staexpand import TrapSpec, core

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_attributes(traced_modules):
    """(owner, name) -> value for every attribute the tracer may replace."""
    out = {}
    for name in traced_modules:
        mod = importlib.import_module(f"staexpand.{name}")
        out.update({(mod.__name__, attr): fn for attr, fn in vars(mod).items() if inspect.isfunction(fn)})
    out[("TimeGrid", "__post_init__")] = vars(core.TimeGrid)["__post_init__"]
    out[("FrequencyProfile", "piece_callable")] = vars(core.FrequencyProfile)["piece_callable"]
    return out


def test_tracer_records_grid_and_spline_spans_and_restores_everything():
    tracer_mod = load_tracer()
    before = wrapped_attributes(tracer_mod.TRACED_MODULES)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        from staexpand import ermakov, protocols

        core.TimeGrid.piecewise([0.0, 3.0, 240.0, 300.0], 2001)
        curve, _ = protocols.constant_power_shoot(TrapSpec.from_gamma(10.0), 30.0, 501)
        profile = ermakov.inverse_engineer(curve)  # no closed form: a spline per piece
        ermakov.forward_solve(profile)
    finally:
        tracer.uninstall()
    assert {"core.grid_validate", "core.piece_callable", "ermakov.forward_solve"} <= set(tracer.names)
    assert tracer.counters["core.spline_builds"] == 1
    assert wrapped_attributes(tracer_mod.TRACED_MODULES) == before
