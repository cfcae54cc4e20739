import ast
import csv
import io
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import staexpand
from staexpand import TrapSpec, cli, energies, protocols
from staexpand.cli import main

FAMILIES = ("quintic", "septic", "quasi_optimal", "dirac", "hybrid", "linear_bottom",
            "bang_bang", "bang_bang_na", "constant_power")


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def csv_rows(path):
    """The header and rows of a table as a CSV reader splits them after its
    leading ``#`` lines, so a quoted field may hold a line break; every row
    has as many fields as the header."""
    text = path.read_bytes().decode("utf-8")
    while text.startswith("#"):
        text = text.partition("\n")[2]
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    assert all(len(r) == len(header) for r in rows)
    return header, rows


def python_env():
    """The environment of a fresh interpreter that imports this checkout's staexpand."""
    src = str(Path(staexpand.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_cli(argv):
    """``staexpand argv`` in a fresh process, so stderr shows what a user sees."""
    code = "import sys; from staexpand.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=python_env(), timeout=120)


def data_rows(lines):
    body = [l for l in lines if l and not l.startswith("#")]
    return body[0].split(","), [r.split(",") for r in body[1:]]


class TestProtocolCommand:
    def test_quintic_boundaries(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main([
            "protocol", "--family", "quintic", "--gamma", "10",
            "--tf-dimensionless", "25", "--grid", "101", "--out", str(out),
        ]) == 0
        header, rows = data_rows(read_lines(out))
        assert header == ["t", "b", "bdot", "bddot", "omega2", "omega2_negative"]
        assert float(rows[0][1]) == 1.0
        assert float(rows[-1][1]) == 10.0

    def test_dirac_impulse_headers(self, tmp_path):
        out = tmp_path / "d.csv"
        main([
            "protocol", "--family", "dirac", "--gamma", "10",
            "--tf-dimensionless", "1", "--grid", "101", "--out", str(out),
        ])
        lines = read_lines(out)
        impulses = [l for l in lines if l.startswith("# impulse")]
        assert len(impulses) == 2
        assert "strength=-" in impulses[0]  # launching kick is always negative

    def test_no_expansion_flat_column(self, tmp_path):
        out = tmp_path / "f.csv"
        main([
            "protocol", "--family", "quintic", "--gamma", "1",
            "--tf-dimensionless", "2", "--grid", "51", "--out", str(out),
        ])
        _, rows = data_rows(read_lines(out))
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "protocol", "--family", "septic", "--gamma", "10",
            "--tf-dimensionless", "5", "--c3", "7.5", "--grid", "101",
        ]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_si_mode_time_column_in_seconds(self, tmp_path):
        out = tmp_path / "si.csv"
        main([
            "protocol", "--family", "quintic", "--omega0-hz", "2500",
            "--omegaf-hz", "25", "--tf", "1e-3", "--grid", "51", "--out", str(out),
        ])
        _, rows = data_rows(read_lines(out))
        assert float(rows[-1][0]) == pytest.approx(1e-3, rel=1e-12)

    def test_rejects_conflicting_trap_input(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "protocol", "--family", "quintic", "--gamma", "10",
                "--omega0-hz", "2500", "--omegaf-hz", "25",
                "--tf-dimensionless", "1",
            ])

    def test_rejects_invalid_protocol_params(self):
        with pytest.raises(SystemExit):
            main([
                "protocol", "--family", "bang_bang", "--gamma", "10",
                "--omega1", "1", "--omega2", "0.05",  # below sqrt(omega0 omega_f)
            ])
        # bang_bang_na's stopping frequency omega2 is the request's beta: the refusal names both
        prefix = r"^invalid protocol parameters: beta = {} \(the stopping frequency omega2\): "
        for beta, reason in (
            ("nan", r"step frequencies must be finite, not omega1 = 0\.0, omega2 = nan$"),
            ("-1", r"omega2 must be > 0$"),
            ("0.05", r"omega2 >= sqrt\(omega0\*omega_f\) is required for t1 >= 0 "
                     r"\(gamma\^2 omega2\^2 - 1 = -0\.75\)$"),
        ):
            with pytest.raises(SystemExit, match=prefix.format(beta) + reason):
                main(["protocol", "--family", "bang_bang_na", "--gamma", "10", "--beta", beta])


    def test_missing_duration_exits_with_message(self):
        with pytest.raises(SystemExit, match="t_f must be positive and finite"):
            main(["protocol", "--gamma", "10", "--family", "bang_bang"])

    @pytest.mark.parametrize("flags, message", [
        # the default caps are fractions of the duration, which is missing
        (["--family", "hybrid"], "t_f must be positive and finite"),
        # step frequencies fix the duration themselves
        (["--family", "bang_bang", "--omega1", "1", "--omega2", "1", "--tf-dimensionless", "5"],
         "either t_f or omega1/omega2"),
        (["--family", "bang_bang", "--omega1", "3", "--tf-dimensionless", "5"],
         "takes omega1 and omega2, not omega1"),
        (["--family", "bang_bang_na", "--beta", "1", "--tf-dimensionless", "12"], "either t_f or beta"),
        # another family's shape inputs
        (["--family", "quintic", "--tf-dimensionless", "4", "--c3", "5", "--c4", "2", "--tau-l", "1",
          "--tau-s", "1"], "the quintic family does not use c3/c4/tau_l/tau_s"),
        (["--family", "septic", "--tf-dimensionless", "4", "--tau-l", "1"], "septic family does not use tau_l"),
        (["--family", "hybrid", "--tf-dimensionless", "20", "--c4", "1"], "hybrid family does not use c4"),
    ])
    def test_ignored_or_conflicting_inputs_exit_with_message(self, tmp_path, flags, message):
        out = tmp_path / "p.csv"
        with pytest.raises(SystemExit, match=f"invalid protocol parameters: .*{message}"):
            main(["protocol", "--gamma", "10", *flags, "--grid", "101", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["protocol", "energy"])
    @pytest.mark.parametrize("flag, value", [
        ("--tf-min", "2"), ("--tf-max", "7"), ("--points-per-decade", "9"), ("--points-per-decade", "0"),
    ])
    def test_unused_sweep_input_refused(self, tmp_path, command, flag, value):
        # `protocol ... --tf-min 2` used to run; a value the flag's own check
        # refuses (`--points-per-decade 0`) is refused as unused first
        out = tmp_path / "p.csv"
        base = [command, "--gamma", "3", "--family", "quintic", "--tf-dimensionless", "4", "--grid", "11"]
        with pytest.raises(SystemExit, match=f"{command} does not use {flag}$"):
            main(base + [flag, value, "--out", str(out)])
        cfgfile = tmp_path / "table.cfg"
        cfgfile.write_text(f"{flag[2:]} = {value}\n", encoding="utf-8")
        with pytest.raises(SystemExit, match=f"{command} does not use {flag}$"):
            main(base + ["--config", str(cfgfile), "--out", str(out)])
        with pytest.raises(SystemExit,
                           match=f"{command} does not use --tf-min, --tf-max, --points-per-decade$"):
            main(base + ["--tf-min", "2", "--tf-max", "7", "--points-per-decade", "9", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("flag, cap", [("--tau-l", "launching cap tau_l"),
                                           ("--tau-s", "stopping cap tau_s")])
    def test_cap_too_short_for_its_cubic_exits_with_one_line(self, tmp_path, flag, cap):
        # (1e-300/300)^2 underflows to 0, yet the grid would accept the piece
        out = tmp_path / "p.csv"
        proc = run_cli(["protocol", "--gamma", "10", "--family", "hybrid", "--tf-dimensionless", "300",
                        flag, "1e-300", "--grid", "201", "--out", str(out)])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (f"invalid protocol parameters: {cap} = 1e-300 is too short: its cubic "
                               "coefficient (gamma - 1)/(tau/t_f)^2 is not a finite float\n")
        assert not out.exists()

    def test_too_long_closed_form_exits_with_one_line(self, tmp_path):
        # t_f^3 of the polynomial pieces used to overflow into an OverflowError traceback
        out = tmp_path / "p.csv"
        proc = run_cli(["energy", "--family", "quintic", "--gamma", "10", "--tf-dimensionless", "1e160",
                        "--out", str(out)])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("invalid protocol parameters: t_f = 1e+160 is too long for this "
                               "protocol: t_f^3 overflows above t_f ~ 5.644e+102\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["protocol", "energy"])
    @pytest.mark.parametrize("family, t_f, power", [
        ("quintic", "5.7e102", 3), ("septic", "1e110", 3), ("hybrid", "1e110", 3),
        ("linear_bottom", "1e160", 3), ("quasi_optimal", "1e160", 2), ("dirac", "1e160", 2),
    ])
    def test_too_long_closed_form_names_the_limit(self, tmp_path, command, family, t_f, power):
        out = tmp_path / "p.csv"
        with pytest.raises(SystemExit, match=rf"invalid protocol parameters: .*t_f\^{power} overflows above"):
            main([command, "--family", family, "--gamma", "10", "--tf-dimensionless", t_f,
                  "--grid", "101", "--out", str(out)])
        assert not out.exists()

    def test_collapsed_constant_power_shot_exits_with_the_step(self, tmp_path):
        out = tmp_path / "p.csv"
        with pytest.raises(SystemExit, match=r"collapsed.*the step h = t_f/\(grid - 1\) = 2 .*larger --grid"):
            main(["protocol", "--family", "constant_power", "--gamma", "3",
                  "--tf-dimensionless", "400", "--grid", "201", "--out", str(out)])
        assert not out.exists()

    def test_given_cap_kept_when_the_other_defaults(self, tmp_path):
        base = ["protocol", "--gamma", "10", "--family", "hybrid", "--tf-dimensionless", "20",
                "--grid", "101", "--tau-l", "3"]
        main(base + ["--out", str(tmp_path / "one.csv")])
        main(base + ["--tau-s", "2", "--out", str(tmp_path / "both.csv")])
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "both.csv").read_bytes()


class TestEnergyCommand:
    def test_quintic_summary_passes_virial(self, tmp_path):
        out = tmp_path / "e.csv"
        main([
            "energy", "--family", "quintic", "--gamma", "10",
            "--tf-dimensionless", "25", "--grid", "501", "--out", str(out),
        ])
        text = out.read_text(encoding="utf-8")
        assert "virial |K/V - 1|" in text and "-> PASS" in text

    def test_dirac_equality_summary(self, tmp_path):
        out = tmp_path / "e.csv"
        main([
            "energy", "--family", "dirac", "--gamma", "10",
            "--tf-dimensionless", "1", "--out", str(out),
        ])
        lines = read_lines(out)
        avg = float(next(l for l in lines if "avg_E =" in l).split("=")[1].split("(")[0])
        bound = float(
            next(l for l in lines if "bound E_nL" in l).split("=")[1].split("respected")[0]
        )
        assert avg == pytest.approx(bound, rel=1e-6)

    def test_dirac_bound_passes_at_coarse_grid(self, tmp_path):
        # the protocol that attains the bound passes against the exact E_nL
        out = tmp_path / "e.csv"
        main([
            "energy", "--gamma", "15", "--family", "dirac",
            "--tf-dimensionless", "55", "--grid", "501", "--out", str(out),
        ])
        line = next(l for l in read_lines(out) if "bound E_nL" in l)
        assert line.endswith("respected -> PASS")

    def test_even_grid_exits_with_message(self, tmp_path):
        out = tmp_path / "e.csv"
        with pytest.raises(SystemExit, match="odd node count"):
            main([
                "energy", "--gamma", "10", "--family", "bang_bang",
                "--tf-dimensionless", "5", "--grid", "2000", "--out", str(out),
            ])
        assert not out.exists()

    def test_linear_bottom_skips_virial(self, tmp_path):
        out = tmp_path / "e.csv"
        main([
            "energy", "--family", "linear_bottom", "--gamma", "10",
            "--tf-dimensionless", "1", "--grid", "501", "--out", str(out),
        ])
        text = out.read_text(encoding="utf-8")
        assert "virial check SKIPPED" in text


class TestSweepCommand:
    def test_fig1_bound_below_values_and_endpoint(self, tmp_path):
        out = tmp_path / "sw"
        main([
            "sweep", "--preset", "fig1", "--out", str(out),
            "--points-per-decade", "8", "--grid", "501", "--tf-min", "1e-4",
        ])
        for fam in ("quintic", "bang_bang", "bound"):
            assert (out / f"fig1_{fam}.csv").exists()
        _, rows = data_rows(read_lines(out / "fig1_bang_bang.csv"))
        filled = [r for r in rows if r[1]]
        # terminates at t_f max = 1 ms with the minimal averaged energy
        assert float(filled[-1][0]) == pytest.approx(1e-3, rel=1e-9)
        assert float(filled[-1][1]) == pytest.approx(0.2525, abs=1e-9)
        for fam in ("quintic", "bang_bang"):
            _, rows = data_rows(read_lines(out / f"fig1_{fam}.csv"))
            for r in rows:
                if r[1]:
                    assert float(r[1]) >= float(r[2]) * (1.0 - 1e-6)
        # slower protocols cost less: the quintic column decreases in t_f
        _, rows = data_rows(read_lines(out / "fig1_quintic.csv"))
        vals = [float(r[1]) for r in rows if r[1]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("preset, trap", [("fig1", []), ("fig3", ["--gamma", "10"])])
    def test_extreme_durations_are_rows_with_reasons(self, tmp_path, preset, trap):
        # both used to end in a traceback: the polynomial families' typed
        # ValueError (t_f^3 overflows) and the bounds' OverflowError (t_f^2)
        out = tmp_path / preset
        proc = run_cli(["sweep", "--preset", preset, *trap, "--tf-min", "1e150", "--tf-max", "1e155",
                        "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        families = {"fig1": ("quintic", "bang_bang", "bound"),
                    "fig3": ("hybrid", "quintic", "na_bang_bang", "bound")}[preset]
        for fam in families:
            _, rows = csv_rows(out / f"{preset}_{fam}.csv")
            assert len(rows) == 300 and all(math.isfinite(float(r[2])) for r in rows)
            if fam == "bound":
                assert all(r[1] == r[2] and not r[3] for r in rows)
            else:
                reason = "too long for this protocol" if fam in ("quintic", "hybrid") else "need"
                assert all(not r[1] and reason in r[3] for r in rows), fam

    def test_fig3_infeasible_points_carry_reasons(self, tmp_path):
        out = tmp_path / "sw3"
        main([
            "sweep", "--preset", "fig3", "--out", str(out),
            "--points-per-decade", "4", "--grid", "301",
        ])
        _, rows = data_rows(read_lines(out / "fig3_na_bang_bang.csv"))
        empties = [r for r in rows if not r[1]]
        assert empties and all(r[3] for r in empties)
        _, rows = data_rows(read_lines(out / "fig3_hybrid.csv"))
        for r in rows:
            if r[1]:
                assert float(r[1]) >= float(r[2]) * (1.0 - 1e-6)


    def test_si_sweep_states_the_unit_of_reason_durations(self, tmp_path):
        # 0.63-0.7 ms is t_f = 10-11 in 1/omega0: no cap protocol is found there
        main(["sweep", "--preset", "fig3", "--tf-min", "0.00063", "--tf-max", "0.0007",
              "--points-per-decade", "20", "--grid", "301", "--out", str(tmp_path)])
        omega0 = 2.0 * np.pi * 2500.0
        for path in tmp_path.iterdir():
            assert "# values in hbar*omega0; t_f column unit: s; durations in reasons: 1/omega0" \
                in read_lines(path)
        body = [l for l in read_lines(tmp_path / "fig3_hybrid.csv") if not l.startswith("#")]
        for t_s, value, _, reason in csv.reader(body[1:]):  # reasons hold commas
            assert value == "" and reason.startswith("no real-frequency cap protocol found at t_f = ")
            t_reason = float(reason.split("t_f = ")[1].split()[0])
            assert t_reason == pytest.approx(float(t_s) * omega0, rel=1e-5)

    def test_even_grid_exits_with_message(self, tmp_path):
        out = tmp_path / "sw"
        with pytest.raises(SystemExit, match="odd node count"):
            main(["sweep", "--preset", "fig1", "--grid", "2000", "--out", str(out)])
        assert not out.exists()

    def test_non_positive_range_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit, match="positive, finite duration range"):
            main(["sweep", "--preset", "fig1", "--tf-min", "-1", "--out", str(tmp_path)])

    def test_fig3_writes_one_file_per_family_across_the_cap_threshold(self, tmp_path):
        # fig3 durations are in seconds: 0.012-0.02 s spans the hybrid
        # cap feasibility threshold (~0.014 s), so rows carry values and reasons
        assert main(["sweep", "--preset", "fig3", "--tf-min", "0.012", "--tf-max", "0.02",
                     "--points-per-decade", "20", "--grid", "301", "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"fig3_{f}.csv" for f in ("bound", "hybrid", "na_bang_bang", "quintic")]
        for name in names:
            csv_rows(tmp_path / name)
        _, rows = csv_rows(tmp_path / "fig3_hybrid.csv")
        assert any(r[1] for r in rows) and any(r[3] for r in rows)

    @pytest.mark.parametrize("preset, bound_fn, trap", [
        ("fig1", "lower_bound_avg_energy", []),
        ("fig3", "na_lower_bound", ["--tf-min", "0.012", "--tf-max", "0.02", "--points-per-decade", "20"]),
    ])
    def test_each_duration_takes_its_bound_once(self, tmp_path, monkeypatch, preset, bound_fn, trap):
        # every family's row used to take the bound again: 396 calls for fig1's 132 durations
        calls = []
        original = getattr(energies, bound_fn)
        monkeypatch.setattr(energies, bound_fn, lambda spec, t_f: calls.append(t_f) or original(spec, t_f))
        assert main(["sweep", "--preset", preset, *trap, "--grid", "301", "--out", str(tmp_path)]) == 0
        _, rows = csv_rows(tmp_path / f"{preset}_bound.csv")
        assert len(calls) == len(rows) == len(set(calls))

    def test_jobs_is_not_an_option(self, tmp_path, capsys):
        out = tmp_path / "sw"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig3", "--jobs", "2", "--out", str(out)])
        assert exc.value.code == 2 and "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("preset = fig3\njobs = 2\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="^unknown config keys: jobs$"):
            main(["sweep", "--config", str(cfgfile), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_per_decade_below_one_exits_with_message(self, tmp_path, points):
        out = tmp_path / "sw"
        with pytest.raises(SystemExit, match="--points-per-decade must be >= 1"):
            main(["sweep", "--preset", "fig1", "--points-per-decade", points, "--out", str(out)])
        assert not out.exists()

    def test_points_per_decade_from_config_checked(self, tmp_path):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("preset = fig1\npoints-per-decade = 0\n", encoding="utf-8")
        out = tmp_path / "sw"
        with pytest.raises(SystemExit, match="--points-per-decade must be >= 1"):
            main(["sweep", "--config", str(cfgfile), "--out", str(out)])
        assert not out.exists()

    def test_gamma_takes_no_si_value_of_the_preset(self, tmp_path):
        # this used to exit with "give either the SI pair or --gamma, not both"
        out = tmp_path / "sw"
        assert main(["sweep", "--preset", "fig1", "--gamma", "3", "--points-per-decade", "2",
                     "--out", str(out)]) == 0
        lines = read_lines(out / "fig1_bang_bang.csv")
        assert "# gamma = 3" in lines and "# time_unit = 1/omega0" in lines
        assert not any(l.startswith("# omega0_rad_s") for l in lines)
        _, rows = csv_rows(out / "fig1_bang_bang.csv")
        assert float(rows[-1][0]) == pytest.approx(1.5 * math.pi, rel=1e-12)  # pi gamma / 2
        cfgfile = tmp_path / "g.cfg"
        cfgfile.write_text("preset = fig1\ngamma = 3\npoints-per-decade = 2\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "cfg")]) == 0
        for name in ("fig1_quintic.csv", "fig1_bang_bang.csv", "fig1_bound.csv"):
            assert (tmp_path / "cfg" / name).read_bytes() == (out / name).read_bytes()

    def test_si_value_overrides_its_preset_value(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--preset", "fig1", "--omega0-hz", "5000", "--points-per-decade", "2",
                     "--grid", "201", "--out", str(out)]) == 0
        lines = read_lines(out / "fig1_bound.csv")
        assert f"# gamma = {math.sqrt(200.0):.12g}" in lines and "# time_unit = s" in lines
        with pytest.raises(SystemExit, match="either the SI pair or --gamma"):
            main(["sweep", "--preset", "fig1", "--omega0-hz", "5000", "--gamma", "3",
                  "--out", str(tmp_path / "both")])

    @pytest.mark.parametrize("flag, value", [
        ("--tf-dimensionless", "5"), ("--tf", "0.001"), ("--c3", "1"), ("--c4", "1"),
        ("--family", "hybrid"), ("--tau-l", "3"), ("--tau-s", "3"), ("--beta", "0.5"),
        ("--omega1", "1"), ("--omega2", "0.1"),
    ])
    def test_unused_protocol_input_refused(self, tmp_path, flag, value):
        # these used to run and land in the header, e.g. "# tf_dimensionless = 5"
        out = tmp_path / "sw"
        with pytest.raises(SystemExit, match=f"sweep does not use {flag}$"):
            main(["sweep", "--preset", "fig1", flag, value, "--out", str(out)])
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(f"preset = fig1\n{flag[2:]} = {value}\n", encoding="utf-8")
        with pytest.raises(SystemExit, match=f"sweep does not use {flag}$"):
            main(["sweep", "--config", str(cfgfile), "--out", str(out)])
        assert not out.exists()

    def test_fig4_preset_duration_is_not_a_given_input(self, tmp_path):
        with pytest.raises(SystemExit, match="^sweep needs --preset fig1 or --preset fig3$"):
            main(["sweep", "--preset", "fig4", "--out", str(tmp_path / "sw")])


class TestPowerCommand:
    def test_fig4_peaks_ordered(self, tmp_path):
        out = tmp_path / "p4.csv"
        main(["power", "--preset", "fig4", "--grid", "801", "--out", str(out)])
        lines = read_lines(out)
        qpeak = float(next(l for l in lines if "quintic peak" in l).split("=")[1])
        speak = float(next(l for l in lines if "septic optimized" in l).split("peak |P_rel| =")[1])
        assert 1.0 <= speak <= qpeak
        _, rows = data_rows(lines)
        arr = np.array([[float(x) for x in r] for r in rows])
        # both relative-power curves integrate to one over s
        for col in (1, 2):
            assert np.trapezoid(arr[:, col], arr[:, 0]) == pytest.approx(1.0, abs=1e-4)


    def test_table_parses_as_csv(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["power", "--preset", "fig4", "--grid", "101", "--out", str(out)]) == 0
        header, rows = csv_rows(out)
        assert header == ["s", "P_rel_quintic", "P_rel_septic"] and len(rows) == 101

    def test_gamma_with_fig4_preset_runs(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["power", "--preset", "fig4", "--gamma", "10", "--tf-dimensionless", "50",
                     "--out", str(out)]) == 0
        lines = read_lines(out)
        assert "# tf_dimensionless = 50" in lines and "# time_unit = 1/omega0" in lines
        with pytest.raises(SystemExit, match="power needs a duration"):
            main(["power", "--preset", "fig4", "--gamma", "10", "--out", str(tmp_path / "q.csv")])

    def test_search_over_a_non_positive_b_runs(self, tmp_path):
        # the septic search steps onto a shape whose b dips to zero; this used
        # to exit 1 with a "scaling function must stay positive" traceback
        out = tmp_path / "p.csv"
        proc = run_cli(["power", "--gamma", "1000", "--tf-dimensionless", "1e5", "--grid", "201",
                        "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert ("# septic optimized (c3, c4) = (1002.45145518, -11802.7410801), "
                "peak |P_rel| = 5.45335406259") in read_lines(out)
        assert "# quintic peak |P_rel| = 25.5113137491" in read_lines(out)

    def test_no_expansion_exits_with_message(self, tmp_path):
        out = tmp_path / "p1.csv"
        with pytest.raises(SystemExit, match="gamma = 1"):
            main(["power", "--gamma", "1", "--tf-dimensionless", "5", "--grid", "201", "--out", str(out)])
        assert not out.exists()


    @pytest.mark.parametrize("flag, value", [
        ("--family", "hybrid"), ("--c3", "1"), ("--c4", "1"), ("--tau-l", "3"), ("--tau-s", "3"),
        ("--beta", "0.5"), ("--omega1", "1"), ("--omega2", "0.1"),
        ("--tf-min", "1"), ("--tf-max", "7"), ("--points-per-decade", "3"),
    ])
    def test_unused_protocol_input_refused(self, tmp_path, flag, value):
        # `power --preset fig4 --family hybrid --tau-l 3` used to run, with "# family = hybrid",
        # and `power --preset fig4 --points-per-decade 3 --tf-min 1` too
        out = tmp_path / "p.csv"
        with pytest.raises(SystemExit, match=f"power does not use {flag}$"):
            main(["power", "--preset", "fig4", flag, value, "--out", str(out)])
        cfgfile = tmp_path / "power.cfg"
        cfgfile.write_text(f"preset = fig4\n{flag[2:]} = {value}\n", encoding="utf-8")
        with pytest.raises(SystemExit, match=f"power does not use {flag}$"):
            main(["power", "--config", str(cfgfile), "--out", str(out)])
        with pytest.raises(SystemExit, match="power does not use --family, --tau-l$"):
            main(["power", "--preset", "fig4", "--family", "hybrid", "--tau-l", "3",
                  "--out", str(out)])
        with pytest.raises(SystemExit, match="power does not use --tf-min, --points-per-decade$"):
            main(["power", "--preset", "fig4", "--points-per-decade", "3", "--tf-min", "1",
                  "--out", str(out)])
        assert not out.exists()

    def test_grid_default_is_4001_and_an_explicit_2001_is_kept(self, tmp_path):
        # --grid 2001 used to be taken for the unset default and replaced by
        # 4001, under a "# grid = 2001" header
        for argv, nodes in (([], 4001), (["--grid", "2001"], 2001)):
            out = tmp_path / f"p{nodes}.csv"
            assert main(["power", "--preset", "fig4", *argv, "--out", str(out)]) == 0
            header, rows = csv_rows(out)
            assert len(rows) == nodes and f"# grid = {nodes}" in read_lines(out)
            assert float(rows[1][0]) == 1.0 / (nodes - 1)

    def test_even_grid_exits_with_message(self, tmp_path):
        out = tmp_path / "p2.csv"
        with pytest.raises(SystemExit, match="odd node count"):
            main(["power", "--preset", "fig4", "--grid", "2000", "--out", str(out)])
        assert not out.exists()


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "family = quintic\ngamma = 10\ntf-dimensionless = 25\ngrid = 51\n",
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        main(["protocol", "--config", str(cfgfile), "--grid", "101", "--out", str(out)])
        _, rows = data_rows(read_lines(out))
        assert len(rows) == 101  # flag wins over the file


    @pytest.mark.parametrize("line, message", [
        ("family = sinusoid", "argument --family: invalid choice: 'sinusoid'"),
        ("gamma = ten", "argument --gamma: invalid float value: 'ten'"),
        ("points-per-decade = 2.5", "argument --points-per-decade: invalid int value: '2.5'"),
        ("preset = fig9", "argument --preset: invalid choice: 'fig9'"),
    ])
    def test_values_get_the_flags_types_and_choices(self, tmp_path, capsys, line, message):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"family = quintic\ngamma = 10\ntf-dimensionless = 5\n{line}\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["protocol", "--config", str(cfgfile)])
        assert message in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "typo.cfg"
        cfgfile.write_text("family = quintic\ngamma = 10\ntf_dimensionles = 25\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="unknown config keys: tf_dimensionles"):
            main(["protocol", "--config", str(cfgfile)])


class TestParserReuse:
    """main() builds its parser once per process; no call may see another's values."""

    def test_grid_of_one_call_not_kept(self, tmp_path):
        args = ["protocol", "--family", "quintic", "--gamma", "10", "--tf-dimensionless", "25"]
        main(args + ["--grid", "101", "--out", str(tmp_path / "a.csv")])
        main(args + ["--out", str(tmp_path / "b.csv")])
        _, rows = data_rows(read_lines(tmp_path / "b.csv"))
        assert len(rows) == 2001

    def test_config_values_of_one_call_not_kept(self, tmp_path):
        args = ["protocol", "--gamma", "10", "--tf-dimensionless", "5", "--grid", "101"]
        main(args + ["--family", "quintic", "--out", str(tmp_path / "before.csv")])
        cfgfile = tmp_path / "septic.cfg"
        cfgfile.write_text("family = septic\nc3 = 7.5\n", encoding="utf-8")
        main(args + ["--config", str(cfgfile), "--out", str(tmp_path / "septic.csv")])
        assert "# family = septic" in read_lines(tmp_path / "septic.csv")
        main(args + ["--family", "quintic", "--out", str(tmp_path / "after.csv")])
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()
        assert "# family = quintic" in read_lines(tmp_path / "after.csv")
        with pytest.raises(SystemExit, match="no protocol family given"):
            main(args + ["--out", str(tmp_path / "none.csv")])


def _reference_fmt(x):
    return "%.12g" % float(x)


def _reference_table(command, spec, t_f, family, si):
    """Impulse lines and table of ``command`` as the per-row loop wrote them:
    every field "%.12g" % float(x), the SI time column tau / omega0 per node."""
    bundle = protocols.build(spec, protocols.ProtocolParams(family, t_f, grid_n=51))
    curve, profile = bundle.curve, bundle.profile

    def time_out(tau):
        return tau / spec.omega0 if si else tau

    impulses, rows = [], []
    if command == "protocol":
        impulses = [f"# impulse t={_reference_fmt(time_out(t))} strength={_reference_fmt(s)}"
                    for t, s in profile.impulses]
        rows.append("t,b,bdot,bddot,omega2,omega2_negative")
        for i in range(len(curve.grid)):
            rows.append(",".join([
                _reference_fmt(time_out(float(curve.grid.nodes[i]))),
                _reference_fmt(curve.b[i]),
                _reference_fmt(curve.bdot[i]),
                _reference_fmt(curve.bddot[i]) if curve.bddot is not None else "",
                _reference_fmt(profile.omega2[i]),
                "1" if profile.omega2[i] < 0.0 else "0",
            ]))
    else:
        trace = energies.full_trace(curve, profile, spec)
        rows.append("t,E,K,V,omega2,Ena")
        for i in range(len(curve.grid)):
            rows.append(",".join([
                _reference_fmt(time_out(float(curve.grid.nodes[i]))),
                _reference_fmt(trace.E[i]),
                _reference_fmt(trace.K[i]),
                _reference_fmt(trace.V[i]),
                _reference_fmt(profile.omega2[i]),
                _reference_fmt(trace.Ena[i]) if trace.Ena is not None else "",
            ]))
    return impulses, rows


@pytest.mark.parametrize("si", [False, True], ids=["dimensionless", "si"])
@pytest.mark.parametrize("command", ["protocol", "energy"])
@pytest.mark.parametrize("family", FAMILIES)
def test_tables_match_the_per_row_reference(tmp_path, family, command, si):
    # gamma 3, t_f 4: every family is feasible; five have an imaginary band
    # (empty Ena column) and dirac's protocol table lists two impulses
    if si:
        spec = TrapSpec(2.0 * math.pi * 2500.0, 2.0 * math.pi * (2500.0 / 9.0))
        t_f = spec.omega0 * 2e-4
        trap = ["--omega0-hz", "2500", "--omegaf-hz", repr(2500.0 / 9.0), "--tf", "2e-4"]
    else:
        spec, t_f = TrapSpec.from_gamma(3.0), 4.0
        trap = ["--gamma", "3", "--tf-dimensionless", "4"]
    out = tmp_path / "t.csv"
    assert main([command, "--family", family, *trap, "--grid", "51", "--out", str(out)]) == 0
    impulses, rows = _reference_table(command, spec, t_f, family, si)
    lines = read_lines(out)
    comments = [l for l in lines if l.startswith("#")]
    assert [l for l in comments if l.startswith("# impulse")] == impulses
    assert len(impulses) == (2 if (family, command) == ("dirac", "protocol") else 0)
    assert out.read_text(encoding="utf-8") == "".join(l + "\n" for l in comments + rows)
    header, parsed = csv_rows(out)
    assert [header, *parsed] == [r.split(",") for r in rows]


@pytest.mark.parametrize("command", ["protocol", "energy"])
@pytest.mark.parametrize("family", FAMILIES)
def test_nodes_line_counts_the_rows(tmp_path, family, command):
    # piecewise families (hybrid, bang_bang, bang_bang_na) write more rows than
    # the requested --grid: "# grid" keeps the request, "# nodes" counts the rows
    out = tmp_path / "t.csv"
    argv = [command, "--family", family, "--gamma", "3", "--tf-dimensionless", "4", "--grid", "51"]
    assert main([*argv, "--out", str(out)]) == 0
    comments = [l for l in read_lines(out) if l.startswith("#")]
    _, rows = csv_rows(out)
    at = comments.index("# grid = 51")
    assert comments[at + 1] == f"# nodes = {len(rows)}"
    if family == "hybrid":
        assert len(rows) == 107


def _per_cell_table(lines, columns):
    """The table text with every field formatted on its own: %.12g per value
    of a numpy column, ``_cell`` per value of a list column, "" for None."""
    n_rows = len(next(iter(columns.values())))
    cells = []
    for col in columns.values():
        if col is None:
            cells.append([""] * n_rows)
        elif isinstance(col, np.ndarray):
            cells.append(["%.12g" % v for v in col.tolist()])
        else:
            cells.append([cli._cell(v) for v in col])
    rows = map(",".join, zip(*cells, strict=True))
    return "\n".join([*lines, ",".join(columns), *rows]) + "\n"


def test_write_table_matches_the_per_cell_reference(tmp_path, capsys):
    columns = {
        "x": np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, -1.0 / 3.0, 1e-300]),
        "i": np.array([0, 1, -3, 2**40, 2**62, -(2**63), 7, 12345678901234, 9]),
        "none": None,
        "text": ["a,b", 'say "hi"', "cr\r", "lf\n", "100%", "%s %d %% %(k)s", None, 2.5, math.nan],
        "num": [math.inf, -0.0, 5e-324, 1e308, None, 0.0, 3, "plain", ""],
    }
    lines = ["# table", "# 50% = %.12g"]
    expected = _per_cell_table(lines, columns)
    assert "%s %d %% %(k)s" in expected and '"say ""hi"""' in expected
    out = tmp_path / "t.csv"
    cli._write_table(str(out), lines, columns)
    assert out.read_bytes() == expected.encode("utf-8")
    cli._write_table(None, lines, columns)
    assert capsys.readouterr().out == expected
    header, *rows = csv.reader(io.StringIO(expected.split("\n", len(lines))[-1], newline=""))
    assert header == list(columns) and all(len(r) == len(columns) for r in rows)
    assert [r[3] for r in rows[:6]] == ["a,b", 'say "hi"', "cr\r", "lf\n", "100%", "%s %d %% %(k)s"]


def test_write_table_round_trips_a_reason_with_a_line_break(tmp_path):
    out = tmp_path / "t.csv"
    reasons = ["refused: t_f = 3,\nsee the log", ""]
    cli._write_table(str(out), ["# sweep"], {"t_f": np.array([1.0, 2.0]), "reason": reasons})
    assert csv_rows(out) == (["t_f", "reason"], [["1", reasons[0]], ["2", ""]])


@pytest.mark.parametrize("columns", [
    {"a": np.zeros(3), "b": [1.0, 2.0]},
    {"a": [1.0, 2.0], "b": np.zeros(3)},
    {"a": np.zeros(2), "b": None, "c": ["x"]},
], ids=["short_list", "long_array", "short_after_none"])
def test_write_table_refuses_unequal_columns_as_zip_does(tmp_path, columns):
    with pytest.raises(ValueError) as ref:
        _per_cell_table([], columns)
    with pytest.raises(ValueError) as got:
        cli._write_table(str(tmp_path / "t.csv"), [], columns)
    assert str(got.value) == str(ref.value) and str(ref.value).startswith("zip()")


@pytest.mark.parametrize("gamma", [1.5, 10.0])
def test_fig1_bang_bang_row_needs_no_grid(gamma):
    # the closed-form row: the same pair at any grid, and the value of the
    # built equal-step protocol's switching times, or its refusal
    spec = TrapSpec.from_gamma(gamma)
    t_max = protocols.bang_bang_max_duration(spec)
    for t_f in [0.1, 0.5 * t_max, t_max * (1.0 - 1e-3), t_max * (1.0 - 1e-9), t_max, 1.01 * t_max]:
        bound = energies.lower_bound_avg_energy(spec, t_f).value
        row = cli._sweep_row("fig1", spec, t_f, "bang_bang", 51, bound)
        assert row == cli._sweep_row("fig1", spec, t_f, "bang_bang", 2001, bound)
        try:
            bb = protocols.build(spec, protocols.ProtocolParams("bang_bang", t_f, grid_n=2001))
        except staexpand.Infeasible as exc:
            assert row == (None, str(exc))
        else:
            value = energies.bang_bang_energies(spec, **bb.extra).avg_E
            assert row == (value, "")


def test_verify_command_reports_known_failure(capsys):
    # small grid keeps it fast; the logarithmic asymptote check is the one
    # documented honest failure
    code = main(["verify", "--grid", "301"])
    out = capsys.readouterr().out
    assert code == 1
    failures = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert len(failures) == 1
    assert "bang_bang_log_asymptote" in failures[0]


@pytest.mark.parametrize("grid", ["2000", "1"])
def test_verify_rejects_grid_without_odd_node_count(grid, capsys):
    with pytest.raises(SystemExit, match="odd node count"):
        main(["verify", "--grid", grid])
    assert capsys.readouterr().out == ""


_GAMMA, _SI_PAIR = "--gamma", "--omega0-hz/--omegaf-hz"
_BAD_TRAPS = [
    *((_GAMMA, ["--gamma", g]) for g in ("0.5", "-2", "nan", "inf", "1e160")),
    *((_SI_PAIR, ["--omega0-hz", w0, "--omegaf-hz", wf])
      for w0, wf in (("0", "25"), ("2500", "0"), ("-2500", "25"), ("2500", "-25"), ("25", "2500"),
                     ("inf", "25"))),
]
_TRAP_COMMANDS = {
    "protocol": ["protocol", "--family", "quintic", "--tf-dimensionless", "5"],
    "energy": ["energy", "--family", "quintic", "--tf-dimensionless", "5"],
    "power": ["power", "--tf-dimensionless", "5"],
}


@pytest.mark.parametrize("command", sorted(_TRAP_COMMANDS))
@pytest.mark.parametrize("flag, trap", _BAD_TRAPS, ids=[" ".join(t) for _, t in _BAD_TRAPS])
def test_bad_trap_exits_with_one_line_naming_its_flag(tmp_path, command, flag, trap):
    # pytest.raises(SystemExit) lets any other exception, a raw traceback, fail the test
    with pytest.raises(SystemExit) as exc:
        main([*_TRAP_COMMANDS[command], *trap, "--out", str(tmp_path / "t.csv")])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message   # a string exits with status 1
    assert message.startswith(f"invalid {flag}: ")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("flag, trap", [(_GAMMA, ["--gamma", "1e160"]),
                                        (_SI_PAIR, ["--omega0-hz", "25", "--omegaf-hz", "2500"])])
def test_bad_trap_prints_no_traceback(flag, trap):
    proc = run_cli(["energy", "--family", "quintic", "--tf-dimensionless", "5", *trap])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"invalid {flag}: ") and "Traceback" not in proc.stderr


def test_cli_runs_without_importing_scipy(tmp_path):
    """Every command and the sample-only round trip need numpy only: SciPy
    is a test dependency, so a process where importing it (or
    ``numpy.polynomial``) fails still runs protocol, energy, fig1, a short
    fig3 whose cap searches refine their seeds, fig4 and ``forward_solve`` of
    the constant-power shot (no closed form, so the Hermite interpolant).
    Nor do these runs load a process pool, which no command starts, or the
    check registry, which only ``verify`` uses."""
    script = textwrap.dedent(f"""
        import importlib.abc, os, sys

        class NoScipy(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "polynomial"]:
                    raise ImportError(f"{{name}} is blocked")

        sys.meta_path.insert(0, NoScipy())
        from staexpand import TrapSpec, ermakov, protocols
        from staexpand.cli import main
        runs = [
            ["protocol", "--family", "quintic", "--gamma", "10", "--tf-dimensionless", "20"],
            ["energy", "--family", "bang_bang", "--gamma", "10", "--tf-dimensionless", "10"],
            ["protocol", "--family", "bang_bang_na", "--gamma", "10", "--tf-dimensionless", "12"],
            ["sweep", "--preset", "fig1"],
            ["sweep", "--preset", "fig3", "--gamma", "10", "--tf-min", "290", "--tf-max", "310",
             "--points-per-decade", "50", "--grid", "501"],
            ["power", "--preset", "fig4"],
            ["protocol", "--family", "constant_power", "--gamma", "10", "--tf-dimensionless", "30",
             "--grid", "501"],
            ["energy", "--family", "hybrid", "--gamma", "10", "--tf-dimensionless", "300", "--grid", "501"],
        ]
        for i, argv in enumerate(runs):
            assert main([*argv, "--out", os.path.join({str(tmp_path)!r}, f"run{{i}}")]) == 0
        curve, _ = protocols.constant_power_shoot(TrapSpec.from_gamma(10.0), 30.0, 1001)
        redone = ermakov.forward_solve(ermakov.inverse_engineer(curve))
        assert abs(redone.b - curve.b).max() < 1e-6
        unused = ("scipy", "numpy.polynomial", "concurrent.futures", "multiprocessing", "staexpand.verify")
        print(sorted(m for m in sys.modules if m.startswith(unused)))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=python_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"run{i}" for i in range(8)]


def test_readme_lists_exactly_the_sweep_only_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("read no sweep-only flag:", 1)[1].split(".\n", 1)[0]
    flags = [f"--{k.replace('_', '-')}" for k in cli._SWEEP_INPUTS]
    assert re.findall(r"`(--[\w-]+)`", listed) == flags


def test_no_library_module_imports_scipy():
    """Not at module level and not inside a function: SciPy is for the tests."""
    package = Path(staexpand.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
    assert len(list(package.rglob("*.py"))) > 5 and found == []
