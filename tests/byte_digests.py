"""The runs whose output bytes are pinned, and how their digests are taken.

``byte_digests.json`` holds, for every CLI case below, the exit code and
the SHA-256 of stdout and of every file the command writes, and for every
script under ``demos/`` the SHA-256 of its stdout.  ``test_byte_stability``
and ``test_demos`` re-run them and compare with no tolerance: a change that
moves an output byte fails there until the file is regenerated with

    PYTHONPATH=src python tests/byte_digests.py

which prints the name of every digest it moves; each is named, with its
reason, in CHANGES.md.  numpy's SIMD kernels for transcendental functions
may round differently on another CPU; if a digest turns out to depend on
the host, record which column moves and why rather than compare with a
tolerance.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from staexpand.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("byte_digests.json")
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# one point per family for the single-protocol commands, all at gamma = 10
_POINTS = {
    "quintic": ["--tf-dimensionless", "50"],
    "septic": ["--tf-dimensionless", "80", "--c3", "1.5", "--c4", "-2"],
    "quasi_optimal": ["--tf-dimensionless", "50"],
    "dirac": ["--tf-dimensionless", "50"],
    "hybrid": ["--tf-dimensionless", "300", "--tau-l", "30", "--tau-s", "60"],
    "linear_bottom": ["--tf-dimensionless", "50"],
    "bang_bang": ["--omega1", "1", "--omega2", "1"],
    "bang_bang_na": ["--tf-dimensionless", "12"],
    "constant_power": ["--tf-dimensionless", "50"],
}

# case name -> CLI argv; "{out}" is a fresh directory for the files written
CASES = {
    "sweep_fig1": ["sweep", "--preset", "fig1", "--out", "{out}"],
    # up to just below t_max = pi*gamma/2, where the equal-step duration solve
    # meets the extreme point
    "sweep_fig1_gamma1.5_near_tmax": ["sweep", "--preset", "fig1", "--gamma", "1.5",
                                      "--tf-min", "2.356", "--tf-max", "2.35619449",
                                      "--points-per-decade", "1000000", "--out", "{out}"],
    "sweep_fig3": ["sweep", "--preset", "fig3", "--out", "{out}"],
    "power_fig4": ["power", "--preset", "fig4"],
    "verify": ["verify"],
    **{f"{command}_{family}": [command, "--family", family, "--gamma", "10", *argv]
       for command in ("protocol", "energy") for family, argv in _POINTS.items()},
    # the same tables written to a file: the --out sink of the table commands
    **{f"{command}_{family}_out": [command, "--family", family, "--gamma", "10",
                                   *_POINTS[family], "--out", "{out}/table.csv"]
       for command, family in (("protocol", "quintic"), ("energy", "dirac"))},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str]) -> dict:
    """``staexpand argv`` in this process: its exit code and the digests of
    its stdout and of each file it writes, by file name."""
    with tempfile.TemporaryDirectory() as out:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main([a.format(out=out) for a in argv])
        files = {p.name: sha256(p.read_bytes()) for p in sorted(Path(out).iterdir())}
    return {"exit": code, "stdout": sha256(stdout.getvalue().encode("utf-8")), "files": files}


def run_demo(demo: Path, cwd) -> subprocess.CompletedProcess:
    """A demo in a fresh interpreter in ``cwd``, importing this checkout's staexpand."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True,
                          timeout=120)


def load() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def moved(old: dict, new: dict) -> list[str]:
    """``kind.name`` of every case and demo digest that ``new`` adds, drops or
    changes against ``old``, in name order."""
    return [f"{kind}.{name}" for kind in ("cases", "demos")
            for name in sorted(old.get(kind, {}).keys() | new[kind].keys())
            if old.get(kind, {}).get(name) != new[kind].get(name)]


def main() -> None:
    cases = {name: run_case(argv) for name, argv in CASES.items()}
    demos = {}
    with tempfile.TemporaryDirectory() as cwd:
        for demo in DEMOS:
            run = run_demo(demo, cwd)
            if run.returncode != 0:
                raise SystemExit(f"{demo.name} failed:\n{run.stderr.decode()}")
            demos[demo.stem] = sha256(run.stdout)
    new = {"cases": cases, "demos": demos}
    changed = moved(load() if DIGESTS.exists() else {}, new)
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} case and {len(demos)} demo digests to {DIGESTS.name}; "
          f"{len(changed)} moved")
    for name in changed:
        print(f"  moved: {name}")


if __name__ == "__main__":
    main()
