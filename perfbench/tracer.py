"""Boundary tracer: wraps staexpand's public functions from outside.

Every module-level public function of the traced modules, plus
``TimeGrid.__post_init__`` and ``FrequencyProfile.piece_callable``, is
replaced by a wrapper that records a span (name, start, end, parent) and
a few counters in memory.  Because the program calls its own functions
through module attributes, the wrappers also see the calls the program
makes internally.  Nothing under ``src/`` is edited; ``uninstall``
restores the originals.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

TRACED_MODULES = ("protocols", "ermakov", "energies", "numerics", "optimize", "verify", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.factors: list[float] = []      # drift factor per span, set per block
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, owner, attr: str, name: str, done=None, before=None) -> None:
        """Replace owner.attr by a span-recording wrapper; ``done(counters,
        args, result, before(args))`` updates counters after each call."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            tracer._stack.append(i)
            state = before(args) if before else None
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:   # counted, then re-raised unchanged
                tracer.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer.ends[i] = time.perf_counter()
                tracer._stack.pop()
            if done:
                done(tracer.counters, args, result, state)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, fn))

    def install(self) -> None:
        from staexpand import core

        for mod_name in TRACED_MODULES:
            mod = importlib.import_module(f"staexpand.{mod_name}")
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._wrap(mod, attr, f"{mod_name}.{attr}", _HOOKS.get(f"{mod_name}.{attr}"))
        self._wrap(core.TimeGrid, "__post_init__", "core.grid_validate")
        self._wrap(core.FrequencyProfile, "piece_callable", "core.piece_callable",
                   _count_spline_builds, _splines_before)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []

    # -------------------------------------------------------------- blocks
    def set_block_factor(self, factor: float) -> None:
        """Give every span recorded since the last call this drift factor."""
        self.factors.extend([factor] * (len(self.names) - len(self.factors)))

    # ------------------------------------------------------------ analysis
    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        dur = self.durations()
        out = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def has_ancestor(self, i: int, pred) -> bool:
        p = self.parents[i]
        while p >= 0:
            if pred(self.names[p]):
                return True
            p = self.parents[p]
        return False

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "starts": self.starts, "ends": self.ends,
                       "parents": self.parents, "factors": self.factors,
                       "counters": dict(self.counters)}, fh)


def _count_rk4_steps(counters, args, result, state):
    counters["numerics.rk4_solve.steps"] += len(args[2]) - 1


def _count_nelder_mead_iterations(counters, args, result, state):
    counters["numerics.nelder_mead_2d.iterations"] += result.iterations


def _splines_before(args):
    return len(args[0]._splines)


def _count_spline_builds(counters, args, result, state):
    """FrequencyProfile builds a cubic spline for each piece without a closed form."""
    counters["core.spline_builds"] += len(args[0]._splines) - state


_HOOKS = {
    "numerics.rk4_solve": _count_rk4_steps,
    "numerics.nelder_mead_2d": _count_nelder_mead_iterations,
}
