import numpy as np
import pytest

from staexpand.cli import main


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


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
    ])
    def test_ignored_or_conflicting_inputs_exit_with_message(self, tmp_path, flags, message):
        out = tmp_path / "p.csv"
        with pytest.raises(SystemExit, match=f"invalid protocol parameters: .*{message}"):
            main(["protocol", "--gamma", "10", *flags, "--grid", "101", "--out", str(out)])
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
        for t_s, value, _, reason in (l.split(",", 3) for l in body[1:]):  # reasons hold commas
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

    def test_parallel_sweep_writes_serial_bytes(self, tmp_path):
        # fig3 durations are in seconds: 0.012-0.02 s spans the hybrid
        # cap feasibility threshold (~0.014 s), so rows carry values and reasons
        args = ["sweep", "--preset", "fig3", "--tf-min", "0.012", "--tf-max", "0.02",
                "--points-per-decade", "20", "--grid", "301"]
        assert main(args + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
        assert main(args + ["--jobs", "2", "--out", str(tmp_path / "pool")]) == 0
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == [f"fig3_{f}.csv" for f in ("bound", "hybrid", "na_bang_bang", "quintic")]
        assert names == sorted(p.name for p in (tmp_path / "pool").iterdir())
        for name in names:
            assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_exits_with_message(self, tmp_path, jobs):
        out = tmp_path / "sw"
        with pytest.raises(SystemExit, match="--jobs must be >= 1"):
            main(["sweep", "--preset", "fig1", "--jobs", jobs, "--out", str(out)])
        assert not out.exists()


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


    def test_no_expansion_exits_with_message(self, tmp_path):
        out = tmp_path / "p1.csv"
        with pytest.raises(SystemExit, match="gamma = 1"):
            main(["power", "--gamma", "1", "--tf-dimensionless", "5", "--grid", "201", "--out", str(out)])
        assert not out.exists()


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
        ("jobs = 2.5", "argument --jobs: invalid int value: '2.5'"),
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
