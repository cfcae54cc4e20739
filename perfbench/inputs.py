"""Seeded inputs of the four workloads, in plain Python.

Nothing here imports numpy or staexpand, so a fresh interpreter can make
its inputs before the timed ``import staexpand`` of the set-up probe.
Every workload is a stream of rounds; a round always holds the same
operations in the same proportions, only the drawn parameters change.
"""
from __future__ import annotations

import math
import random

DESIGN_FAMILIES = ("quintic", "septic", "dirac", "hybrid", "linear_bottom", "bang_bang")
DESIGN_DRAWS = 8          # ops per family, and bound_report ops, per round
ROUNDTRIP_GRIDS = (501, 1001, 2001)
CLI_GRIDS = (501, 1001, 2001)   # one parameter draw per grid, family and command
FIG3_LADDER = (10.0, 1600.0, 132)   # the fig3 preset's t_f ladder (dimensionless)
FIG4_OMEGA0 = 2.0 * math.pi * 2500.0

# Ops that fail on every run because of known faults of the program; each
# round holds all of them, so their share of the attempted ops is fixed.
DESIGN_FAULTS = (
    {"kind": "design", "family": "bang_bang", "gamma": 1.0, "t_f": 1.0, "mode": 0,
     "fault": "bang_bang_for_duration at gamma = 1 returns t_f = pi/2"},
    {"kind": "design", "family": "bang_bang", "gamma": 1.0 + 1e-9,
     "t_f": 0.9 * math.pi * (1.0 + 1e-9) / 2.0, "mode": 0,
     "fault": "bang_bang_for_duration at gamma = 1 + 1e-9 misses t_f by 1.1e-6"},
    {"kind": "design", "family": "bang_bang_na", "gamma": 1.0 + 1e-9,
     "t_f": 0.9 * math.pi * (1.0 + 1e-9) / 2.0, "mode": 0,
     "fault": "bang_bang_na_for_duration at gamma = 1 + 1e-9 misses t_f by 1.1e-6"},
    {"kind": "design", "family": "quintic", "gamma": 1.0, "t_f": 5.0, "mode": 0,
     "fault": "power at gamma = 1 returns a NaN peak instead of PowerUndefined"},
)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _septic_shape(rng: random.Random, gamma: float) -> tuple[float, float]:
    """(c3, c4) of order gamma - 1 that keep b(s) >= 1/2 on [0, 1]."""
    s_values = [k / 100.0 for k in range(101)]
    d = gamma - 1.0
    while True:
        c3, c4 = rng.uniform(-d, d), rng.uniform(-d, d)
        coeffs = [1.0, 0.0, 0.0, c3, c4,
                  -(21.0 + 6.0 * c3 + 3.0 * c4 - 21.0 * gamma),
                  35.0 + 8.0 * c3 + 3.0 * c4 - 35.0 * gamma,
                  -(15.0 + 3.0 * c3 + c4 - 15.0 * gamma)]
        if min(sum(c * s**k for k, c in enumerate(coeffs)) for s in s_values) >= 0.5:
            return c3, c4


def _family_params(rng: random.Random, family: str, gamma: float, t_f: float) -> dict:
    if family == "septic":
        c3, c4 = _septic_shape(rng, gamma)
        return {"c3": c3, "c4": c4}
    if family == "hybrid":
        return {"tau_l": rng.uniform(0.02, 0.3) * t_f, "tau_s": rng.uniform(0.02, 0.3) * t_f}
    return {}


def _shuffle_after_first(rng: random.Random, items: list) -> list:
    """Mixes the round but keeps its first, cheap op first: ``setup_s`` times
    import plus the first op, which must be the same kind on every seed."""
    rest = items[1:]
    rng.shuffle(rest)
    return items[:1] + rest


def _bang_bang_duration(rng: random.Random, gamma: float, lo: float, hi: float) -> float:
    """A duration the equal-step protocol can reach (t_f <= pi gamma / 2)."""
    return _log_uniform(rng, min(lo, 0.5 * math.pi * gamma), min(hi, 0.49 * math.pi * gamma))


class Design:
    """Closed-form design and audit: one op per protocol or bound report."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"design:{seed}")

    def next_round(self) -> list[dict]:
        rng = self.rng
        ops = []
        for family in DESIGN_FAMILIES + ("bound_report",):
            for _ in range(DESIGN_DRAWS):
                gamma = _log_uniform(rng, 1.5, 100.0)
                mode = rng.choice((0, 0, 1, 2))
                if family == "bang_bang":
                    t_f = _bang_bang_duration(rng, gamma, 0.1, 200.0)
                else:
                    t_f = _log_uniform(rng, 0.1, 200.0)
                op = {"kind": "design", "family": family, "gamma": gamma, "t_f": t_f, "mode": mode}
                op.update(_family_params(rng, family, gamma, t_f))
                ops.append(op)
        ops.extend(dict(f) for f in DESIGN_FAULTS)
        return _shuffle_after_first(rng, ops)


class Search:
    """Protocol searches: cap durations along the fig3 ladder, septic power
    shaping on the fig4 trap, and the cap-feasibility threshold.

    Below rung FEASIBLE_RUNG (t_f ~ 223, where at gamma = 10 the nine cap
    seeds first admit a real frequency) optimize_caps stops after its
    seeds; above it, Nelder-Mead refines.  Taking every second rung below
    and every sixth above makes the cheap seed-only calls about 80% of a
    round, so the median falls inside that group and the 90th percentile
    inside the group of refined searches.
    """

    CAP_GRID = 2001
    THRESHOLD_GRID = 501
    POWER_GRID = 4001
    FEASIBLE_RUNG = 81

    def __init__(self, seed: int):
        self.rng = random.Random(f"search:{seed}")

    def next_round(self) -> list[dict]:
        rng = self.rng
        lo, hi, count = FIG3_LADDER
        step = math.log(hi / lo) / (count - 1)
        rungs = list(range(rng.randrange(2), self.FEASIBLE_RUNG, 2))
        rungs += range(self.FEASIBLE_RUNG + rng.randrange(6), count, 6)
        ops = []
        for k in rungs:
            t_f = lo * math.exp((k + rng.uniform(-0.4, 0.4)) * step)
            ops.append({"kind": "caps", "gamma": 10.0, "t_f": t_f, "n": self.CAP_GRID})
        for _ in range(2):
            ops.append({"kind": "septic_power", "t_f": FIG4_OMEGA0 * _log_uniform(rng, 5e-3, 12e-3),
                        "n": self.POWER_GRID})
        # verify's own bracket: its 20 bisection probes cost the same every round
        ops.append({"kind": "threshold", "gamma": 10.0, "lo": 100.0, "hi": 400.0,
                    "n": self.THRESHOLD_GRID})
        return _shuffle_after_first(rng, ops)


class Roundtrip:
    """Forward solves of inverse-engineered controls on three grid sizes.

    Each family is one case solved on every grid, so a round holds seven
    ops per grid size and the median and 90th percentile fall inside the
    1001- and 2001-node groups.  The constant-power case shoots the curve
    first and then solves its control through the spline path.
    """

    FAMILIES = ("quintic", "septic", "hybrid", "dirac", "bang_bang", "linear_bottom",
                "constant_power")

    def __init__(self, seed: int):
        self.rng = random.Random(f"roundtrip:{seed}")
        self.case = 0

    def next_round(self) -> list[dict]:
        rng = self.rng
        ops = []
        for family in self.FAMILIES:
            gamma = _log_uniform(rng, 1.5, 20.0)
            if family == "bang_bang":
                t_f = _bang_bang_duration(rng, gamma, 2.0, 50.0)
            else:
                t_f = _log_uniform(rng, 2.0, 50.0)
            params = _family_params(rng, family, gamma, t_f)
            self.case += 1
            for n in ROUNDTRIP_GRIDS:
                op = {"kind": "roundtrip", "family": family, "gamma": gamma, "t_f": t_f,
                      "n": n, "case": self.case}
                op.update(params)
                ops.append(op)
        return ops


def _cli_argvs(rng: random.Random) -> list[list[str]]:
    argvs = []
    for family in ("quintic", "septic", "quasi_optimal", "dirac", "hybrid", "linear_bottom",
                   "bang_bang", "bang_bang_na", "constant_power"):
        for command in ("protocol", "energy"):
            for grid in CLI_GRIDS:
                gamma = _log_uniform(rng, 1.5, 100.0)
                if family == "bang_bang":
                    t_f = _bang_bang_duration(rng, gamma, 0.1, 200.0)
                elif family == "bang_bang_na":
                    t_min, t_max = math.sqrt(gamma**2 - 1.0), 0.5 * math.pi * gamma
                    t_f = t_min + rng.uniform(0.05, 0.95) * (t_max - t_min)
                elif family == "constant_power":
                    # its RK4 shot costs 20 ms on 501 nodes, which would make the
                    # six shots a cost group of their own right at the 90th
                    # percentile; on 201 nodes they cost what the other tables do
                    gamma = _log_uniform(rng, 1.5, 20.0)
                    t_f = _log_uniform(rng, 2.0, 50.0)
                    grid = 201
                else:
                    t_f = _log_uniform(rng, 0.1, 200.0)
                argv = [command, "--gamma", repr(gamma), "--family", family,
                        "--tf-dimensionless", repr(t_f), "--grid", str(grid)]
                for key, val in _family_params(rng, family, gamma, t_f).items():
                    argv += ["--" + key.replace("_", "-"), repr(val)]
                argvs.append(argv)
    argvs.append(["sweep", "--preset", "fig1"])
    argvs.append(["power", "--preset", "fig4"])
    return _shuffle_after_first(rng, argvs)


class Cli:
    """In-process command-line runs; every round repeats the run's argv set,
    so each command's output can be compared byte for byte."""

    def __init__(self, seed: int):
        self.argvs = _cli_argvs(random.Random(f"cli:{seed}"))

    def next_round(self) -> list[dict]:
        return [{"kind": "cli", "argv": list(a), "key": i} for i, a in enumerate(self.argvs)]


WORKLOADS = {"design": Design, "search": Search, "roundtrip": Roundtrip, "cli": Cli}
