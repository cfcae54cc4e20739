"""Command-line front end: protocol tables, energy reports, sweeps, power.

Subcommands: ``protocol``, ``energy``, ``sweep``, ``power``, ``verify``.
Input is either an SI pair (--omega0-hz/--omegaf-hz, values in Hz,
multiplied by 2 pi internally) or a dimensionless --gamma; durations are
--tf in seconds (SI mode only) or --tf-dimensionless.  Output is UTF-8
CSV with LF line endings, ``#``-prefixed metadata, %.12g numbers, and is
byte-stable for identical configuration.  Named presets ``fig1``,
``fig3`` and ``fig4`` bake in the 2500 Hz -> 25 Hz trap (and 8 ms for
``fig4``).
"""
from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import energies, ermakov, optimize, protocols, verify
from .core import DEFAULT_GRID_N, Infeasible, NonRealFrequency, TrapSpec

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
    t_f: float | None          # dimensionless
    family: str | None
    c3: float
    c4: float
    beta: float | None
    omega1: float | None
    omega2: float | None
    tau_l: float | None        # dimensionless
    tau_s: float | None
    grid_n: int
    out: str | None
    preset: str | None
    tf_min: float | None       # dimensionless
    tf_max: float | None
    points_per_decade: int
    jobs: int

    def time_out(self, tau: float) -> float:
        """Time column value: seconds in SI mode, dimensionless otherwise."""
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
    p.add_argument("--grid", type=int, default=None, help=f"grid nodes (default {DEFAULT_GRID_N})")
    p.add_argument("--out", help="output file (directory for sweep)")
    p.add_argument("--tf-min", type=float, help="sweep start (same unit as tf flags)")
    p.add_argument("--tf-max", type=float, help="sweep end (same unit as tf flags)")
    p.add_argument("--points-per-decade", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None, help="parallel workers for sweeps")


def _check_grid(n: int) -> int:
    """Uniform grids need an odd node count; refuse any other --grid before any work."""
    if n < 3 or n % 2 == 0:
        raise SystemExit(f"--grid must be an odd node count >= 3 (got {n})")
    return n


def _resolve(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if args.config:
        merged.update(_read_config_file(args.config))
        unknown = sorted(set(merged) - (set(vars(args)) - {"command", "config"}))
        if unknown:
            raise SystemExit(f"unknown config keys: {', '.join(unknown)}")
    for key, val in vars(args).items():
        if val is not None:
            merged[key] = val
    preset = merged.get("preset")
    if preset:
        for key, val in _PRESETS[preset].items():
            merged.setdefault(key, val)

    def getf(key, default=None):
        v = merged.get(key, default)
        return None if v is None else float(v)

    omega0_hz, omegaf_hz, gamma = getf("omega0_hz"), getf("omegaf_hz"), getf("gamma")
    si_mode = omega0_hz is not None or omegaf_hz is not None
    if si_mode and gamma is not None:
        raise SystemExit("give either the SI pair or --gamma, not both")
    if si_mode:
        if omega0_hz is None or omegaf_hz is None:
            raise SystemExit("SI mode needs both --omega0-hz and --omegaf-hz")
        spec = TrapSpec(2.0 * math.pi * omega0_hz, 2.0 * math.pi * omegaf_hz)
    elif gamma is not None:
        spec = TrapSpec.from_gamma(gamma)
    else:
        raise SystemExit("give a trap: --omega0-hz/--omegaf-hz, --gamma, or --preset")

    def to_tau(key_si: str, key_dimless: str):
        t_si, t_dl = getf(key_si), getf(key_dimless)
        if t_si is not None and t_dl is not None:
            raise SystemExit(f"give either --{key_si.replace('_','-')} or --{key_dimless.replace('_','-')}")
        if t_si is not None:
            if not si_mode:
                raise SystemExit("durations in seconds need the SI trap frequencies")
            return spec.omega0 * t_si
        return t_dl

    t_f = to_tau("tf", "tf_dimensionless")
    scale = spec.omega0 if si_mode else 1.0
    tau_l = getf("tau_l")
    tau_s = getf("tau_s")
    jobs = int(merged.get("jobs", 1))
    if jobs < 1:
        raise SystemExit(f"--jobs must be >= 1 (got {jobs})")
    return RunConfig(
        spec=spec,
        si_mode=si_mode,
        t_f=t_f,
        family=merged.get("family"),
        c3=getf("c3", 0.0),
        c4=getf("c4", 0.0),
        beta=getf("beta"),
        omega1=getf("omega1"),
        omega2=getf("omega2"),
        tau_l=None if tau_l is None else tau_l * scale,
        tau_s=None if tau_s is None else tau_s * scale,
        grid_n=_check_grid(int(merged.get("grid", DEFAULT_GRID_N))),
        out=merged.get("out"),
        preset=preset,
        tf_min=None if getf("tf_min") is None else getf("tf_min") * scale,
        tf_max=None if getf("tf_max") is None else getf("tf_max") * scale,
        points_per_decade=int(merged.get("points_per_decade", 60)),
        jobs=jobs,
    )


def _config_header(cfg: RunConfig, command: str) -> list[str]:
    spec = cfg.spec
    lines = [f"# staexpand {command}"]
    items = {
        "gamma": spec.gamma,
        "omega_f/omega0": spec.omega_f_rel,
        "grid": cfg.grid_n,
        "time_unit": cfg.time_unit,
    }
    if cfg.si_mode:
        items["omega0_rad_s"] = spec.omega0
        items["omegaf_rad_s"] = spec.omega_f
    if cfg.t_f is not None:
        items["tf_dimensionless"] = cfg.t_f
    if cfg.family:
        items["family"] = cfg.family
    if cfg.preset:
        items["preset"] = cfg.preset
    for key in sorted(items):
        val = items[key]
        lines.append(f"# {key} = {_fmt(val) if isinstance(val, float) else val}")
    return lines


def _write_text(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _build_bundle(cfg: RunConfig) -> protocols.ProtocolBundle:
    if cfg.family is None:
        raise SystemExit("--family is required")
    if cfg.family == "hybrid" and (cfg.tau_l is None or cfg.tau_s is None):
        # default caps: a tenth of the duration each
        cfg.tau_l = 0.1 * cfg.t_f
        cfg.tau_s = 0.1 * cfg.t_f
    params = protocols.ProtocolParams(
        family=cfg.family,
        t_f=cfg.t_f,
        c3=cfg.c3,
        c4=cfg.c4,
        tau_l=cfg.tau_l,
        tau_s=cfg.tau_s,
        beta=cfg.beta,
        omega1=cfg.omega1,
        omega2=cfg.omega2,
        grid_n=cfg.grid_n,
    )
    try:
        return protocols.build(cfg.spec, params)
    except (ValueError, Infeasible) as exc:
        raise SystemExit(f"invalid protocol parameters: {exc}")


def cmd_protocol(cfg: RunConfig) -> int:
    bundle = _build_bundle(cfg)
    curve, profile = bundle.curve, bundle.profile
    lines = _config_header(cfg, "protocol")
    for t_imp, strength in profile.impulses:
        lines.append(f"# impulse t={_fmt(cfg.time_out(t_imp))} strength={_fmt(strength)}")
    lines.append(f"# omega2 in units of omega0^2; impulse strengths in units of omega0")
    lines.append("t,b,bdot,bddot,omega2,omega2_negative")
    bddot = curve.bddot
    for i in range(len(curve.grid)):
        lines.append(
            ",".join(
                [
                    _fmt(cfg.time_out(float(curve.grid.nodes[i]))),
                    _fmt(curve.b[i]),
                    _fmt(curve.bdot[i]),
                    _fmt(bddot[i]) if bddot is not None else "",
                    _fmt(profile.omega2[i]),
                    "1" if profile.omega2[i] < 0.0 else "0",
                ]
            )
        )
    _write_text(cfg.out, lines)
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

    lines = _config_header(cfg, "energy")
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
        reason = "imaginary frequency band" if profile.has_imaginary else "n > 0"
        s(f"# summary avg_Ena SKIPPED ({reason})")
    if virial_applies:
        # the averaged-energy bound constrains complete protocols only
        s(f"# summary bound E_nL = {_fmt(bound.value)} respected -> "
          f"{'PASS' if trace.avg_E >= bound.value * (1 - 1e-6) else 'FAIL'}")
    else:
        s(f"# summary bound E_nL = {_fmt(bound.value)} NOT APPLICABLE (boundary conditions unmet)")
    s("t,E,K,V,omega2,Ena")
    for i in range(len(curve.grid)):
        s(
            ",".join(
                [
                    _fmt(cfg.time_out(float(curve.grid.nodes[i]))),
                    _fmt(trace.E[i]),
                    _fmt(trace.K[i]),
                    _fmt(trace.V[i]),
                    _fmt(profile.omega2[i]),
                    _fmt(trace.Ena[i]) if trace.Ena is not None else "",
                ]
            )
        )
    _write_text(cfg.out, lines)
    return 0


def _fig1_point(args) -> tuple[float, str, float | None, float, str]:
    gamma, t_f, family, grid_n = args
    spec = TrapSpec.from_gamma(gamma)
    bound = energies.lower_bound_avg_energy(spec, t_f).value
    try:
        if family == "quintic":
            curve = protocols.quintic(spec, t_f, grid_n)
            profile = ermakov.inverse_engineer(curve)
            tr = energies.averages(energies.instantaneous(curve, profile, spec), curve, spec, profile)
            return t_f, family, tr.avg_E, bound, ""
        if family == "bang_bang":
            bb = protocols.bang_bang_for_duration(spec, t_f, grid_n)
            e = energies.bang_bang_energies(spec, bb.omega1, bb.omega2, bb.t1, bb.t2)
            return t_f, family, e.avg_E, bound, ""
        if family == "bound":
            return t_f, family, bound, bound, ""
    except Infeasible as exc:
        return t_f, family, None, bound, str(exc)
    raise ValueError(family)


def _fig3_point(args) -> tuple[float, str, float | None, float, str]:
    gamma, t_f, family, grid_n = args
    spec = TrapSpec.from_gamma(gamma)
    bound = energies.na_lower_bound(spec, t_f)
    try:
        if family == "hybrid":
            res = optimize.optimize_caps(spec, t_f, grid_n)
            return t_f, family, res.objective, bound, ""
        if family == "quintic":
            curve = protocols.quintic(spec, t_f, grid_n)
            profile = ermakov.inverse_engineer(curve)
            if profile.has_imaginary:
                return t_f, family, None, bound, "imaginary frequency band"
            _, avg, _ = energies.nonadiabatic_energy(curve, profile, spec)
            return t_f, family, avg, bound, ""
        if family == "na_bang_bang":
            bb = protocols.bang_bang_na_for_duration(spec, t_f, grid_n)
            _, avg, _ = energies.nonadiabatic_energy(bb.curve, bb.profile, spec)
            return t_f, family, avg, bound, ""
        if family == "bound":
            return t_f, family, bound, bound, ""
    except (Infeasible, NonRealFrequency) as exc:
        return t_f, family, None, bound, str(exc)
    raise ValueError(family)


_SWEEPS = {
    "fig1": (
        _fig1_point,
        ("quintic", "bang_bang", "bound"),
        "avg_E",
        "E_nL",
        (0.1, None),  # default dimensionless range; None -> pi*gamma/2
    ),
    "fig3": (
        _fig3_point,
        ("hybrid", "quintic", "na_bang_bang", "bound"),
        "avg_Ena",
        "Ena_L",
        (10.0, 1600.0),
    ),
}


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.preset not in _SWEEPS:
        raise SystemExit("sweep needs --preset fig1 or --preset fig3")
    if cfg.out is None:
        raise SystemExit("sweep needs --out DIRECTORY")
    import os

    os.makedirs(cfg.out, exist_ok=True)
    point_fn, families, value_name, bound_name, (lo_default, hi_default) = _SWEEPS[cfg.preset]
    gamma = cfg.spec.gamma
    lo = cfg.tf_min if cfg.tf_min is not None else lo_default
    hi = cfg.tf_max if cfg.tf_max is not None else hi_default
    if hi is None:
        hi = protocols.bang_bang_max_duration(cfg.spec)
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf):
        raise SystemExit("sweep needs a positive, finite duration range (--tf-min, --tf-max)")
    n_points = max(2, int(round(cfg.points_per_decade * math.log10(hi / lo))))
    taus = np.geomspace(lo, hi, n_points)

    jobs = [(gamma, float(t), family, cfg.grid_n) for family in families for t in taus]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            all_rows = list(pool.map(point_fn, jobs))
    else:
        all_rows = [point_fn(j) for j in jobs]
    for k, family in enumerate(families):
        rows = all_rows[k * n_points : (k + 1) * n_points]
        lines = _config_header(cfg, f"sweep {cfg.preset} {family}")
        lines.append(f"# values in hbar*omega0; t_f column unit: {cfg.time_unit}")
        lines.append(f"t_f,{value_name},{bound_name},reason")
        for t_f, _, value, bound, reason in rows:
            lines.append(
                ",".join(
                    [
                        _fmt(cfg.time_out(t_f)),
                        _fmt(value) if value is not None else "",
                        _fmt(bound),
                        reason,
                    ]
                )
            )
        _write_text(os.path.join(cfg.out, f"{cfg.preset}_{family}.csv"), lines)
    return 0


def cmd_power(cfg: RunConfig) -> int:
    spec = cfg.spec
    if cfg.t_f is None:
        raise SystemExit("power needs a duration (--tf, --tf-dimensionless, or --preset fig4)")
    t_f = cfg.t_f
    grid_n = cfg.grid_n if cfg.grid_n != DEFAULT_GRID_N else 4001
    try:
        qc = protocols.quintic(spec, t_f, grid_n)
        qp = energies.power(qc, ermakov.inverse_engineer(qc), spec)
    except ValueError as exc:  # a bad duration, or PowerUndefined
        raise SystemExit(f"power: {exc}") from None
    res = optimize.optimize_septic_power(spec, t_f, grid_n)
    sc = protocols.septic(spec, t_f, res.params[0], res.params[1], grid_n)
    sp = energies.power(sc, ermakov.inverse_engineer(sc), spec)

    lines = _config_header(cfg, "power")
    lines.append(f"# quintic peak |P_rel| = {_fmt(qp.peak_rel)}")
    lines.append(
        f"# septic optimized (c3, c4) = ({_fmt(res.params[0])}, {_fmt(res.params[1])}), "
        f"peak |P_rel| = {_fmt(sp.peak_rel)}"
    )
    lines.append("s,P_rel_quintic,P_rel_septic")
    s_vals = qc.grid.nodes / t_f
    for i in range(len(qc.grid)):
        lines.append(
            ",".join([_fmt(s_vals[i]), _fmt(qp.P_rel[i]), _fmt(sp.P_rel[i])])
        )
    _write_text(cfg.out, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_all(_check_grid(DEFAULT_GRID_N if args.grid is None else args.grid))
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"{status}  {r.name}: {r.measured}  [tolerance: {r.tolerance}]")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="staexpand",
        description="design fast harmonic-trap expansions and audit their energy costs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("protocol", "energy", "sweep", "power"):
        _add_common(sub.add_parser(name))
    vp = sub.add_parser("verify")
    vp.add_argument("--grid", type=int, default=None)

    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    cfg = _resolve(args)
    if args.command == "protocol":
        return cmd_protocol(cfg)
    if args.command == "energy":
        return cmd_energy(cfg)
    if args.command == "sweep":
        return cmd_sweep(cfg)
    if args.command == "power":
        return cmd_power(cfg)
    raise SystemExit(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
