"""The timed operations: calls into staexpand's public functions only.

Importing this module imports staexpand (and with it numpy and scipy),
which is what the set-up probe times.  Each ``run_*`` returns the
program's outputs for the checks in ``checks.py``.
"""
from __future__ import annotations

import math
import os

from staexpand import cli, energies, ermakov, optimize, protocols, verify
from staexpand.core import Infeasible, TrapSpec

FIG4_TRAP = (2.0 * math.pi * 2500.0, 2.0 * math.pi * 25.0)


def run_design(op: dict, out_dir: str) -> dict:
    spec = TrapSpec.from_gamma(op["gamma"], n=op["mode"])
    if op["family"] == "bound_report":
        return {"spec": spec, "report": energies.bound_report(spec, op["t_f"])}
    params = protocols.ProtocolParams(
        family=op["family"], t_f=op["t_f"], c3=op.get("c3", 0.0), c4=op.get("c4", 0.0),
        tau_l=op.get("tau_l"), tau_s=op.get("tau_s"),
    )
    bundle = protocols.build(spec, params)
    curve, profile = bundle.curve, bundle.profile
    trace = energies.averages(energies.instantaneous(curve, profile, spec), curve, spec, profile)
    na = None
    if spec.n == 0 and float(profile.omega2.min()) >= -1e-12:
        na = energies.nonadiabatic_energy(curve, profile, spec)
    pw = None if profile.impulses else energies.power(curve, profile, spec)
    bound = energies.lower_bound_avg_energy(spec, curve.grid.t_f)
    return {"spec": spec, "bundle": bundle, "trace": trace, "na": na, "power": pw, "bound": bound}


def run_caps(op: dict, out_dir: str) -> dict:
    spec = TrapSpec.from_gamma(op["gamma"])
    try:
        return {"result": optimize.optimize_caps(spec, op["t_f"], op["n"])}
    except Infeasible as exc:
        return {"infeasible": str(exc)}


def run_septic_power(op: dict, out_dir: str) -> dict:
    spec = TrapSpec(*FIG4_TRAP)
    return {"spec": spec, "result": optimize.optimize_septic_power(spec, op["t_f"], op["n"])}


def run_threshold(op: dict, out_dir: str) -> dict:
    spec = TrapSpec.from_gamma(op["gamma"])
    return {"threshold": verify.na_feasibility_threshold(spec, op["lo"], op["hi"], op["n"])}


def run_roundtrip(op: dict, out_dir: str) -> dict:
    spec = TrapSpec.from_gamma(op["gamma"])
    family, t_f, n = op["family"], op["t_f"], op["n"]
    if family == "constant_power":
        curve, _ = protocols.constant_power_shoot(spec, t_f, n)
        profile = ermakov.inverse_engineer(curve)
    else:
        params = protocols.ProtocolParams(
            family=family, t_f=t_f, c3=op.get("c3", 0.0), c4=op.get("c4", 0.0),
            tau_l=op.get("tau_l"), tau_s=op.get("tau_s"), grid_n=n,
        )
        bundle = protocols.build(spec, params)
        curve, profile = bundle.curve, bundle.profile
    # every family starts at rest except the bottom-tracking line
    bdot0 = float(curve.bdot[0]) if family == "linear_bottom" else 0.0
    redone = ermakov.forward_solve(profile, 1.0, bdot0)
    return {"spec": spec, "curve": curve, "redone": redone}


def cli_argv(op: dict, out_dir: str) -> list[str]:
    """The op's argv with its output path inside out_dir."""
    target = os.path.join(out_dir, f"cli{op['key']}")
    if op["argv"][0] != "sweep":
        target += ".csv"
    return op["argv"] + ["--out", target]


def run_cli(op: dict, out_dir: str) -> dict:
    argv = cli_argv(op, out_dir)
    return {"code": cli.main(argv), "out": argv[-1]}


RUNNERS = {
    "design": run_design,
    "caps": run_caps,
    "septic_power": run_septic_power,
    "threshold": run_threshold,
    "roundtrip": run_roundtrip,
    "cli": run_cli,
}


def run(op: dict, out_dir: str) -> dict:
    return RUNNERS[op["kind"]](op, out_dir)
