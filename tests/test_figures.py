"""The printed figure columns against references computed here, not in the
library: fig1's three columns at gamma 10 and 1.5, six durations each up
to the equal-step limit pi*gamma/2.

Each column is read from the CSV the ``sweep`` command writes, so a value
carries the rounding of its %.12g print as well as its own error: it may
miss its reference by the column's relative bound plus half a unit in the
twelfth significant digit.
"""
import csv
import io
import math

import numpy as np
import pytest

from staexpand.cli import main

mp = pytest.importorskip("mpmath")

DPS = 30
# the quintic is ((2n+1)/2)((10/7)(gamma-1)^2/t_f^2 + I(gamma)), the virial form;
# its one integral I is graded Gauss-Legendre, whose own estimate stays below
# 5e-16 at every gamma, so 1e-14 leaves a factor 20 for the few roundings after
QUINTIC_RTOL = 1e-14
# the equal-step duration is solved to Brent's 4 eps in its step variable, and
# the average energy moves with it at most a few times that
BANG_BANG_RTOL = 1e-14
# E_nL's asinh form in float: a sum of three terms without cancellation
BOUND_RTOL = 1e-14
# gamma -> the sweep's shortest duration; ceil(4 log10(t_max/t_min)) = 6 rows
CASES = {10.0: 0.5, 1.5: 0.08}


def printed_tolerance(ref, rtol):
    """How far a %.12g cell of a value within ``rtol`` of ``ref`` may lie from it."""
    ref = abs(float(ref))
    return rtol * ref + 0.5 * 10.0 ** (math.floor(math.log10(ref)) - 11)


def fig1_sweep(tmp_path, gamma):
    """fig1's three columns at ``gamma``, as {family: [(t_f, value)]}, with
    each t_f the float the sweep used, not its printed digits."""
    t_min = CASES[gamma]
    out = tmp_path / f"g{gamma}"
    assert main(["sweep", "--preset", "fig1", "--gamma", repr(gamma), "--tf-min", repr(t_min),
                 "--points-per-decade", "4", "--out", str(out)]) == 0
    columns = {}
    for family in ("quintic", "bang_bang", "bound"):
        text = (out / f"fig1_{family}.csv").read_text(encoding="utf-8")
        rows = list(csv.reader(io.StringIO("".join(l for l in text.splitlines(True) if l[0] != "#"))))[1:]
        durations = np.geomspace(t_min, math.pi * gamma / 2.0, len(rows)).tolist()
        assert len(rows) == 6 and all("%.12g" % t == r[0] and r[1] for t, r in zip(durations, rows))
        columns[family] = [(t, float(r[1])) for t, r in zip(durations, rows)]
    return columns


def quintic_reference(gamma, t_f):
    """((2n+1)/2) <bdot^2 + 1/b^2> of the quintic, n = 0, by quadrature."""
    g, tf = mp.mpf(gamma), mp.mpf(t_f)
    b = lambda s: 1 + (g - 1) * s**3 * (10 - 15 * s + 6 * s**2)
    bdot = lambda s: 30 * (g - 1) * s**2 * (1 - s) ** 2 / tf
    return mp.quad(lambda s: (bdot(s) ** 2 + 1 / b(s) ** 2) / 2, [0, 0.5, 1])


def bang_bang_reference(gamma, t_f, w_guess):
    """The equal-step average (t1 e1 + t2 e2)/t_f, n = 0, with the step
    frequency w solved from t1(w) + t2(w) = t_f by the matching conditions:
    sinh^2(w t1) = (gamma^2 - 1) e/(2 gamma^2 (1 + w^2)) and
    sin^2(w t2) = (gamma^2 - 1)(gamma^2 w^2 + 1)/(2 (gamma^4 w^2 - 1)),
    e = gamma^2 w^2 - 1; e1 = (1 - w^2)/4 and e2 = (w_f^2 + w^2)/(4 w_f)."""
    g, tf = mp.mpf(gamma), mp.mpf(t_f)

    def times(w):
        e = g**2 * w**2 - 1
        t1 = mp.asinh(mp.sqrt((g**2 - 1) * e / (2 * g**2 * (1 + w**2)))) / w
        t2 = mp.asin(mp.sqrt((g**2 - 1) * (g**2 * w**2 + 1) / (2 * (g**4 * w**2 - 1)))) / w
        return t1, t2

    if t_f == math.pi * gamma / 2.0:   # the extreme point w = 1/gamma: t1 = 0, a quarter period
        w = 1 / g
        t1, t2 = mp.mpf(0), mp.pi / 2 / w
        tf = t2
    else:
        w = mp.findroot(lambda w: sum(times(w)) - tf, mp.mpf(w_guess))
        t1, t2 = times(w)
    wf = 1 / g**2
    return (t1 * (1 - w**2) / 4 + t2 * (wf**2 + w**2) / (4 * wf)) / tf


def bound_reference(gamma, t_f):
    """E_nL, n = 0, in its asinh form: (1/2)(A/t_f^2 + 2 asinh(t_f/gamma)/t_f)
    with A = B^2 - t_f^2 and B = sqrt(t_f^2 + gamma^2) - 1."""
    g, tf = mp.mpf(gamma), mp.mpf(t_f)
    B = mp.sqrt(tf**2 + g**2) - 1
    return ((B**2 - tf**2) / tf**2 + 2 * mp.asinh(tf / g) / tf) / 2


@pytest.mark.parametrize("gamma", sorted(CASES))
def test_fig1_columns_against_references(tmp_path, gamma):
    columns = fig1_sweep(tmp_path, gamma)
    with mp.workdps(DPS):
        for t_f, value in columns["quintic"]:
            ref = quintic_reference(gamma, t_f)
            assert abs(value - ref) <= printed_tolerance(ref, QUINTIC_RTOL), (gamma, t_f)
        for t_f, value in columns["bang_bang"]:
            # the guess: the step frequency whose extreme-point duration is t_f
            ref = bang_bang_reference(gamma, t_f, math.pi / (2.0 * t_f))
            assert abs(value - ref) <= printed_tolerance(ref, BANG_BANG_RTOL), (gamma, t_f)
        for t_f, value in columns["bound"]:
            ref = bound_reference(gamma, t_f)
            assert abs(value - ref) <= printed_tolerance(ref, BOUND_RTOL), (gamma, t_f)
