"""Command-line front end: protocol tables, energy reports, sweeps, power.

Subcommands: ``protocol``, ``energy``, ``sweep``, ``power``, ``verify``.
Input is either an SI pair (--omega0-hz/--omegaf-hz, values in Hz,
multiplied by 2 pi internally) or a dimensionless --gamma; durations are
--tf in seconds (SI mode only) or --tf-dimensionless.  Output is UTF-8
CSV with LF line endings, ``#``-prefixed metadata, %.12g numbers, and is
byte-stable for identical configuration.  A text field that holds a
comma, a double quote or a line break (a sweep's ``reason``) is quoted as
RFC 4180 says.  Named presets ``fig1``, ``fig3`` and ``fig4`` bake in the
2500 Hz -> 25 Hz trap (and 8 ms for ``fig4``); with --gamma the preset
adds none of these SI values.  Sweeps need --points-per-decade >= 1 and
run in one serial loop that takes each duration's bound once for every family.
Each table command refuses the inputs it does not read: ``power`` and
``sweep`` the protocol inputs, ``sweep`` the duration flags, and
``protocol``, ``energy`` and ``power`` the sweep-only flags.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import energies, optimize, protocols
from .core import DEFAULT_GRID_N, Infeasible, TrajectoryBlowUp, TrapSpec

_POWER_GRID_N = 4001   # power's default grid: its peaks need the dense grid

_PRESETS = {
    "fig1": {"omega0_hz": 2500.0, "omegaf_hz": 25.0},
    "fig3": {"omega0_hz": 2500.0, "omegaf_hz": 25.0},
    "fig4": {"omega0_hz": 2500.0, "omegaf_hz": 25.0, "tf": 8e-3},
}


def _fmt(x) -> str:
    return "%.12g" % float(x)


@dataclass
class RunConfig:
    spec: TrapSpec
    si_mode: bool
    params: protocols.ProtocolParams  # durations dimensionless
    out: str | None
    preset: str | None
    tf_min: float | None       # dimensionless
    tf_max: float | None
    points_per_decade: int

    def time_out(self, tau):
        """Time value (a float or an array): seconds in SI mode, dimensionless otherwise."""
        return tau / self.spec.omega0 if self.si_mode else tau

    @property
    def time_unit(self) -> str:
        return "s" if self.si_mode else "1/omega0"


def _read_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"config line is not key=value: {raw.rstrip()}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value file mirroring the flags; flags override")
    p.add_argument("--preset", choices=sorted(_PRESETS), help="named parameter preset")
    p.add_argument("--omega0-hz", type=float, help="initial trap frequency in Hz")
    p.add_argument("--omegaf-hz", type=float, help="final trap frequency in Hz")
    p.add_argument("--gamma", type=float, help="expansion factor sqrt(omega0/omega_f)")
    p.add_argument("--tf", type=float, help="protocol duration in seconds (SI mode)")
    p.add_argument("--tf-dimensionless", type=float, help="protocol duration in units of 1/omega0")
    p.add_argument("--family", help="protocol family", choices=sorted(protocols._FAMILIES))
    p.add_argument("--c3", type=float, default=None)
    p.add_argument("--c4", type=float, default=None)
    p.add_argument("--beta", type=float, help="stopping step frequency in units of omega0")
    p.add_argument("--omega1", type=float, help="first step frequency in units of omega0")
    p.add_argument("--omega2", type=float, help="second step frequency in units of omega0")
    p.add_argument("--tau-l", type=float, help="launching cap duration (same unit as the tf flag)")
    p.add_argument("--tau-s", type=float, help="stopping cap duration (same unit as the tf flag)")
    p.add_argument("--grid", type=int, default=None,
                   help=f"grid nodes (default {DEFAULT_GRID_N}; power: {_POWER_GRID_N})")
    p.add_argument("--out", help="output file (directory for sweep)")
    p.add_argument("--tf-min", type=float, help="sweep start (same unit as tf flags)")
    p.add_argument("--tf-max", type=float, help="sweep end (same unit as tf flags)")
    p.add_argument("--points-per-decade", type=int, default=None)


# inputs a command reads no value of, refused when given as a flag or in --config:
# power compares quintic with the optimized septic, sweeps run their preset's
# families over a duration range, and only sweeps read the range
_PROTOCOL_INPUTS = ("family", "c3", "c4", "tau_l", "tau_s", "beta", "omega1", "omega2")
_SWEEP_INPUTS = ("tf_min", "tf_max", "points_per_decade")
_UNUSED_INPUTS = {
    "protocol": _SWEEP_INPUTS,
    "energy": _SWEEP_INPUTS,
    "power": (*_PROTOCOL_INPUTS, *_SWEEP_INPUTS),
    "sweep": ("tf", "tf_dimensionless", *_PROTOCOL_INPUTS),
}


def _check_grid(n: int) -> int:
    """Uniform grids need an odd node count; refuse any other --grid before any work."""
    if n < 3 or n % 2 == 0:
        raise SystemExit(f"--grid must be an odd node count >= 3 (got {n})")
    return n


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    """Merge flags over the --config file over the preset into a RunConfig.

    The file's values go through ``parser``, the subcommand's own flag
    definitions, so they get the flags' types and choices.  An input the
    command does not use (``_UNUSED_INPUTS``), given as a flag or in the
    file, is refused before the preset fills in its values."""
    opts = vars(args)
    if args.config:
        values = _read_config_file(args.config)
        unknown = sorted(set(values) - (set(opts) - {"command", "config"}))
        if unknown:
            raise SystemExit(f"unknown config keys: {', '.join(unknown)}")
        from_file = parser.parse_args([f"--{k.replace('_', '-')}={v}" for k, v in values.items()])
        for key, val in vars(from_file).items():
            if opts[key] is None:
                opts[key] = val
    unused = [k for k in _UNUSED_INPUTS.get(args.command, ()) if opts[k] is not None]
    if unused:
        flags = ", ".join(f"--{k.replace('_', '-')}" for k in unused)
        raise SystemExit(f"{args.command} does not use {flags}")
    if args.preset and args.gamma is None:  # a --gamma trap takes none of the preset's SI values
        for key, val in _PRESETS[args.preset].items():
            if opts[key] is None:
                opts[key] = val

    si_mode = args.omega0_hz is not None or args.omegaf_hz is not None
    if si_mode and args.gamma is not None:
        raise SystemExit("give either the SI pair or --gamma, not both")
    if si_mode and (args.omega0_hz is None or args.omegaf_hz is None):
        raise SystemExit("SI mode needs both --omega0-hz and --omegaf-hz")
    if not si_mode and args.gamma is None:
        raise SystemExit("give a trap: --omega0-hz/--omegaf-hz, --gamma, or --preset")
    try:
        spec = (TrapSpec(2.0 * math.pi * args.omega0_hz, 2.0 * math.pi * args.omegaf_hz) if si_mode
                else TrapSpec.from_gamma(args.gamma))
    except ValueError as exc:
        flags = "--omega0-hz/--omegaf-hz" if si_mode else "--gamma"
        raise SystemExit(f"invalid {flags}: {exc}") from None

    if args.tf is not None and args.tf_dimensionless is not None:
        raise SystemExit("give either --tf or --tf-dimensionless")
    if args.tf is not None and not si_mode:
        raise SystemExit("durations in seconds need the SI trap frequencies")
    t_f = spec.omega0 * args.tf if args.tf is not None else args.tf_dimensionless
    scale = spec.omega0 if si_mode else 1.0

    def scaled(key):
        return None if opts[key] is None else opts[key] * scale

    default_grid = _POWER_GRID_N if args.command == "power" else DEFAULT_GRID_N
    points_per_decade = 60 if args.points_per_decade is None else args.points_per_decade
    if points_per_decade < 1:
        raise SystemExit(f"--points-per-decade must be >= 1 (got {points_per_decade})")
    params = protocols.ProtocolParams(
        family=args.family,
        t_f=t_f,
        c3=0.0 if args.c3 is None else args.c3,
        c4=0.0 if args.c4 is None else args.c4,
        tau_l=scaled("tau_l"),
        tau_s=scaled("tau_s"),
        beta=args.beta,
        omega1=args.omega1,
        omega2=args.omega2,
        grid_n=_check_grid(default_grid if args.grid is None else args.grid),
    )
    return RunConfig(
        spec=spec,
        si_mode=si_mode,
        params=params,
        out=args.out,
        preset=args.preset,
        tf_min=scaled("tf_min"),
        tf_max=scaled("tf_max"),
        points_per_decade=points_per_decade,
    )


def _config_header(cfg: RunConfig, command: str, nodes: int | None = None) -> list[str]:
    """Run settings as ``#`` lines; ``grid`` is as requested, ``nodes`` the rows written."""
    spec = cfg.spec
    lines = [f"# staexpand {command}"]
    items = {
        "gamma": spec.gamma,
        "omega_f/omega0": spec.omega_f_rel,
        "grid": cfg.params.grid_n,
        "time_unit": cfg.time_unit,
    }
    if cfg.si_mode:
        items["omega0_rad_s"] = spec.omega0
        items["omegaf_rad_s"] = spec.omega_f
    if nodes is not None:
        items["nodes"] = nodes
    if cfg.params.t_f is not None:
        items["tf_dimensionless"] = cfg.params.t_f
    if cfg.params.family:
        items["family"] = cfg.params.family
    if cfg.preset:
        items["preset"] = cfg.preset
    for key in sorted(items):
        val = items[key]
        lines.append(f"# {key} = {_fmt(val) if isinstance(val, float) else val}")
    return lines


def _cell(value) -> str:
    """A list column's field: empty for None, %.12g for a number, and text as
    RFC 4180 writes it (quoted if it holds a comma, double quote or line break)."""
    if value is None:
        return ""
    if not isinstance(value, str):
        return "%.12g" % value
    if any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _write_table(path: str | None, lines: list[str], columns: dict) -> None:
    """Write the ``#`` lines, a header of the column names, then the rows.

    A numpy column is written %.12g, a list column by ``_cell``, and a
    ``None`` column is left empty.  Each row is one ``%`` of a format string
    built once from the column kinds (never from the data), so a text cell
    holding ``%`` is written as it is.  Columns of unequal length raise
    ``zip``'s ValueError."""
    n_rows = len(next(iter(columns.values())))
    specs, fields = [], []
    for col in columns.values():
        if isinstance(col, np.ndarray):
            specs.append("%.12g")
            fields.append(col.tolist())
        else:
            specs.append("%s")
            fields.append([""] * n_rows if col is None else [_cell(v) for v in col])
    fmt = ",".join(specs)
    rows = [fmt % row for row in zip(*fields, strict=True)]
    text = "\n".join([*lines, ",".join(columns), *rows]) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _build_bundle(cfg: RunConfig) -> protocols.ProtocolBundle:
    try:
        return protocols.build(cfg.spec, cfg.params)
    except (ValueError, Infeasible) as exc:
        raise SystemExit(f"invalid protocol parameters: {exc}")
    except TrajectoryBlowUp as exc:  # the shooting ODE on too coarse a grid
        p = cfg.params
        h = p.t_f / (p.grid_n - 1)
        raise SystemExit(
            f"protocol integration failed: {exc}; the step h = t_f/(grid - 1) = {h:.6g} "
            f"(in 1/omega0) may be too coarse, try a larger --grid"
        ) from None


def cmd_protocol(cfg: RunConfig) -> int:
    bundle = _build_bundle(cfg)
    curve, profile = bundle.curve, bundle.profile
    lines = _config_header(cfg, "protocol", len(curve.grid))
    for t_imp, strength in profile.impulses:
        lines.append(f"# impulse t={_fmt(cfg.time_out(t_imp))} strength={_fmt(strength)}")
    lines.append(f"# omega2 in units of omega0^2; impulse strengths in units of omega0")
    _write_table(cfg.out, lines, {
        "t": cfg.time_out(curve.grid.nodes), "b": curve.b, "bdot": curve.bdot,
        "bddot": curve.bddot, "omega2": profile.omega2,
        "omega2_negative": (profile.omega2 < 0.0).astype(int),
    })
    return 0


def cmd_energy(cfg: RunConfig) -> int:
    spec = cfg.spec
    bundle = _build_bundle(cfg)
    curve, profile = bundle.curve, bundle.profile
    trace = energies.full_trace(curve, profile, spec)
    t_f = curve.grid.t_f

    bound = energies.lower_bound_avg_energy(spec, t_f)
    slopes_ok = (
        abs(curve.b0_plus_dot) < 1e-8 * (1.0 + spec.gamma / t_f)
        and abs(curve.bf_minus_dot) < 1e-8 * (1.0 + spec.gamma / t_f)
    )
    virial_applies = slopes_ok or bool(profile.impulses)

    lines = _config_header(cfg, "energy", len(curve.grid))
    s = lines.append
    s(f"# summary avg_E = {_fmt(trace.avg_E)} (hbar*omega0)")
    s(f"# summary avg_E2 = {_fmt(trace.avg_E2)} (hbar*omega0)")
    s(f"# summary avg_K = {_fmt(trace.avg_K)} (hbar*omega0)")
    s(f"# summary avg_V = {_fmt(trace.avg_V)} (hbar*omega0)")
    s(f"# summary delta_delta = {_fmt(trace.delta_delta)} (hbar*omega0)")
    if virial_applies:
        ratio = abs(trace.avg_K / trace.avg_V - 1.0)
        s(f"# summary virial |K/V - 1| = {_fmt(ratio)} -> {'PASS' if ratio < 1e-6 else 'FAIL'}")
    else:
        s("# summary virial check SKIPPED (boundary slope conditions unmet)")
    if trace.Ena is not None:
        s(f"# summary avg_Ena = {_fmt(trace.avg_Ena)} (hbar*omega0)")
        na_bound = energies.na_lower_bound(spec, t_f)
        s(
            f"# summary bound Ena_L = {_fmt(na_bound)} respected -> "
            f"{'PASS' if trace.avg_Ena >= na_bound * (1 - 1e-6) else 'FAIL'}"
        )
    else:
        s("# summary avg_Ena SKIPPED (imaginary frequency band)")  # every CLI trap has n = 0
    if virial_applies:
        # the averaged-energy bound constrains complete protocols only
        s(f"# summary bound E_nL = {_fmt(bound.value)} respected -> "
          f"{'PASS' if trace.avg_E >= bound.value * (1 - 1e-6) else 'FAIL'}")
    else:
        s(f"# summary bound E_nL = {_fmt(bound.value)} NOT APPLICABLE (boundary conditions unmet)")
    _write_table(cfg.out, lines, {
        "t": cfg.time_out(curve.grid.nodes), "E": trace.E, "K": trace.K, "V": trace.V,
        "omega2": profile.omega2, "Ena": trace.Ena,
    })
    return 0


def _sweep_row(preset: str, spec: TrapSpec, t_f: float, family: str, grid_n: int,
               bound: float) -> tuple[float | None, str]:
    """One (family, t_f) point of a preset's sweep whose bound at t_f is
    ``bound``: its value, and the reason when it has none."""
    fig1 = preset == "fig1"  # fig1: avg_E against E_nL; fig3: avg_Ena against Ena_L
    try:
        if family == "bound":
            return bound, ""
        if family == "hybrid":  # fig3's cap protocol, optimized at each duration
            return optimize.optimize_caps(spec, t_f, grid_n).objective, ""
        if fig1 and family == "bang_bang":  # closed form in the switching times: no grid
            times = protocols.bang_bang_times_for_duration(spec, t_f)
            return energies.bang_bang_energies(spec, **times).avg_E, ""
        params = protocols.ProtocolParams(_SWEEP_FAMILY.get(family, family), t_f, grid_n=grid_n)
        b = protocols.build(spec, params)
        if fig1:
            inst = energies.instantaneous(b.curve, b.profile, spec)
            return energies.averages(inst, b.curve, spec, b.profile).avg_E, ""
        if b.profile.has_imaginary:
            return None, "imaginary frequency band"
        return energies.nonadiabatic_energy(b.curve, b.profile, spec)[1], ""
    except (Infeasible, ValueError) as exc:  # NonRealFrequency, or a t_f too long for a closed form
        return None, str(exc)


# sweep file label -> protocol family, where they differ
_SWEEP_FAMILY = {"na_bang_bang": "bang_bang_na"}
# preset -> (families, value column, bound column, default dimensionless range)
_SWEEPS = {
    "fig1": (("quintic", "bang_bang", "bound"), "avg_E", "E_nL", (0.1, None)),  # pi*gamma/2
    "fig3": (("hybrid", "quintic", "na_bang_bang", "bound"), "avg_Ena", "Ena_L", (10.0, 1600.0)),
}


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.preset not in _SWEEPS:
        raise SystemExit("sweep needs --preset fig1 or --preset fig3")
    if cfg.out is None:
        raise SystemExit("sweep needs --out DIRECTORY")
    os.makedirs(cfg.out, exist_ok=True)
    families, value_name, bound_name, (lo_default, hi_default) = _SWEEPS[cfg.preset]
    lo = cfg.tf_min if cfg.tf_min is not None else lo_default
    hi = cfg.tf_max if cfg.tf_max is not None else hi_default
    if hi is None:
        hi = protocols.bang_bang_max_duration(cfg.spec)
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise SystemExit("sweep needs a positive, finite duration range (--tf-min, --tf-max)")
    n_points = max(2, int(round(cfg.points_per_decade * math.log10(hi / lo))))
    taus = np.geomspace(lo, hi, n_points)

    # rows use the gamma trap: an SI spec's omega_f_rel can differ from it in the last bit
    spec = TrapSpec.from_gamma(cfg.spec.gamma)
    durations = taus.tolist()
    if cfg.preset == "fig1":
        bounds = [energies.lower_bound_avg_energy(spec, t_f).value for t_f in durations]
    else:
        bounds = [energies.na_lower_bound(spec, t_f) for t_f in durations]
    rows = {family: [_sweep_row(cfg.preset, spec, t_f, family, cfg.params.grid_n, bound)
                     for t_f, bound in zip(durations, bounds)] for family in families}
    # reasons quote durations as the library raised them, dimensionless
    note = "; durations in reasons: 1/omega0" if cfg.si_mode else ""
    for family, family_rows in rows.items():
        values, reasons = zip(*family_rows)
        lines = _config_header(cfg, f"sweep {cfg.preset} {family}")
        lines.append(f"# values in hbar*omega0; t_f column unit: {cfg.time_unit}{note}")
        _write_table(os.path.join(cfg.out, f"{cfg.preset}_{family}.csv"), lines, {
            "t_f": cfg.time_out(taus), value_name: values, bound_name: bounds, "reason": reasons,
        })
    return 0


def cmd_power(cfg: RunConfig) -> int:
    spec = cfg.spec
    t_f, grid_n = cfg.params.t_f, cfg.params.grid_n
    if t_f is None:
        raise SystemExit("power needs a duration (--tf, --tf-dimensionless, or --preset fig4)")
    try:
        q = protocols.build(spec, protocols.ProtocolParams("quintic", t_f, grid_n=grid_n))
        qp = energies.power(q.curve, q.profile, spec)
    except ValueError as exc:  # a bad duration, or PowerUndefined
        raise SystemExit(f"power: {exc}") from None
    res = optimize.optimize_septic_power(spec, t_f, grid_n)
    sep = protocols.build(spec, protocols.ProtocolParams("septic", t_f, *res.params, grid_n=grid_n))
    sp = energies.power(sep.curve, sep.profile, spec)

    lines = _config_header(cfg, "power")
    lines.append(f"# quintic peak |P_rel| = {_fmt(qp.peak_rel)}")
    lines.append(
        f"# septic optimized (c3, c4) = ({_fmt(res.params[0])}, {_fmt(res.params[1])}), "
        f"peak |P_rel| = {_fmt(sp.peak_rel)}"
    )
    _write_table(cfg.out, lines, {
        "s": q.curve.grid.nodes / t_f, "P_rel_quintic": qp.P_rel, "P_rel_septic": sp.P_rel,
    })
    return 0


_COMMANDS = {"protocol": cmd_protocol, "energy": cmd_energy, "sweep": cmd_sweep, "power": cmd_power}


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # only this command reads the check registry

    results = verify.run_all(_check_grid(DEFAULT_GRID_N if args.grid is None else args.grid))
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"{status}  {r.name}: {r.measured}  [tolerance: {r.tolerance}]")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its table subparsers, built on first use, once per process."""
    parser = argparse.ArgumentParser(
        prog="staexpand",
        description="design fast harmonic-trap expansions and audit their energy costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name) for name in _COMMANDS}
    for p in parsers.values():
        _add_common(p)
    vp = sub.add_parser("verify")
    vp.add_argument("--grid", type=int, default=None)
    return parser, parsers


def main(argv=None) -> int:
    parser, parsers = _parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    return _COMMANDS[args.command](_resolve(args, parsers[args.command]))


if __name__ == "__main__":
    sys.exit(main())
