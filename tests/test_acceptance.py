"""Acceptance gate: one test per quantitative criterion, printed as it runs.

Each criterion is evaluated by the shared registry in staexpand.verify at
its pinned tolerance.  ``bang_bang_log_asymptote`` is known to fail and is
asserted anyway: the pinned +-5% window cannot hold at gamma = 100 because
the scaling law it checks is accurate only to an additive pi/4 - ln(sqrt 2)
term inside the logarithm (exact ratio 1.082, -> 1 only as gamma -> inf).
The failure is intentional evidence, not a regression; the library-level
test after it holds the same ratio to that exact value.
"""
import math

import pytest

from staexpand import TrapSpec, energies, protocols, verify


def _run(name: str) -> None:
    result = verify.CHECKS[name]()
    status = "PASS" if result.passed else "FAIL"
    print(f"\nACCEPTANCE {status} {result.name}: {result.measured} [tolerance: {result.tolerance}]")
    assert result.passed, f"{result.name}: {result.measured} (tolerance: {result.tolerance})"


def test_01_virial_equipartition():
    _run("virial_equipartition")


def test_02_impulse_equality_chain():
    _run("impulse_equality_chain")


def test_03_impulse_energy_share():
    _run("impulse_energy_share")


def test_04_lower_bound_small_tf():
    _run("lower_bound_small_tf")


def test_05_bang_bang_extremes():
    _run("bang_bang_extremes")


def test_06_bang_bang_log_asymptote():
    # documented honest failure; see the module docstring
    _run("bang_bang_log_asymptote")


def test_06_bang_bang_log_asymptote_with_its_constant():
    # test_06's steep equal steps, against the ratio with the additive term
    # kept: (ln(sqrt 2 gamma) + pi/4)/ln(2 gamma) = 1.082823 at gamma = 100
    spec = TrapSpec.from_gamma(100.0)
    w = 1000.0
    t1, t2 = protocols.bang_bang_times(spec, w, w)
    log_law = (2 * spec.n + 1) * math.pi * math.log(2.0 * spec.gamma) / (16.0 * spec.omega_f_rel * (t1 + t2)**2)
    exact = (math.log(math.sqrt(2.0) * spec.gamma) + math.pi / 4.0) / math.log(2.0 * spec.gamma)
    ratio = energies.bang_bang_energies(spec, w, w, t1, t2) / log_law
    print(f"\nACCEPTANCE bang_bang_log_asymptote with its constant: ratio = {ratio:.6f} "
          f"[tolerance: {exact:.6f} within 1e-3 relative]")
    assert ratio == pytest.approx(exact, rel=1e-3)


def test_07_free_expansion_limit():
    _run("free_expansion_limit")


def test_08_na_bound_sweep():
    _run("na_bound_sweep")


def test_09_free_expansion_matching():
    _run("free_expansion_matching")


def test_10_power_integral_roundtrip():
    _run("power_integral_roundtrip")


def test_11_power_peak_optimization():
    _run("power_peak_optimization")


def test_12_minimal_work_positivity():
    _run("minimal_work_positivity")


def test_13_mean_value_bounds():
    _run("mean_value_bounds")
