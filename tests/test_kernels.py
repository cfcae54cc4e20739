"""The per-node kernels that the public path and both search objectives
call: the same bits into an ``out`` row as into a new array, and the bits
of the plain expressions they evaluate."""
import itertools

import numpy as np
import pytest

from staexpand import TrapSpec, core, energies, ermakov, protocols


def horner_adding_every_coefficient(c, x):
    """c[0] + c[1] x + ... by Horner's rule from c[-2] + c[-1] x, adding
    every coefficient, zeros included."""
    if len(c) == 1:
        return c[0] + x * 0
    v = c[-2] + c[-1] * x
    for ck in c[-3::-1]:
        v = ck + v * x
    return v


def same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def test_poly_skips_only_adds_that_cannot_change_a_bit():
    """Every series of up to four coefficients drawn from signed zeros,
    ones, extremes and NaN, at x = 0 of either sign and past the range the
    families use."""
    x = np.array([0.0, -0.0, 1e-200, 1e-170, 0.5, 1.0 - 1e-16, 1.0, -1.5, 7e200, np.inf])
    values = (0.0, -0.0, 1.0, -2.5, 3e-300, -1e300, np.nan)
    row = np.empty_like(x)
    with np.errstate(all="ignore"):
        for n in range(1, 5):
            for c in itertools.product(values, repeat=n):
                p = protocols._Poly(c)
                ref = horner_adding_every_coefficient(c, x)
                assert same_bits(p(x), ref), c
                assert p(x, out=row) is row and same_bits(row, ref), c
                assert same_bits(p(0.0), ref[0]) and same_bits(p(-0.0), ref[1]), c


@pytest.fixture
def nodes():
    """Node rows of a real, positive b and its derivatives, as curves give them."""
    rng = np.random.default_rng(21)
    b = rng.uniform(0.05, 20.0, 257)
    bdot, bddot, bdddot = rng.normal(scale=3.0, size=(3, 257))
    w2 = rng.uniform(0.0, 4.0, 257)
    w2[::7] = -1e-13            # round-off below zero, clamped by _real_omega
    w2[3] = -0.0
    return b, bdot, bddot, bdddot, w2


def test_omega2_and_its_slope(nodes):
    b, bdot, bddot, bdddot, _ = nodes
    row = np.empty_like(b)
    w2 = 1.0 / b**4 - bddot / b
    assert np.array_equal(ermakov._omega2(b, bddot), w2)
    assert ermakov._omega2(b, bddot, out=row) is row and np.array_equal(row, w2)
    dw2 = -4.0 * bdot / b**5 - bdddot / b + bddot * bdot / b**2
    assert np.array_equal(ermakov._domega2(b, bdot, bddot, bdddot), dw2)


def test_omega2_of_scalars():
    assert ermakov._omega2(2.0, 0.5) == 1.0 / 2.0**4 - 0.5 / 2.0


def test_real_omega_and_ena(nodes):
    b, bdot, _, _, w2 = nodes
    omega = np.sqrt(w2.clip(0.0, None))
    assert same_bits(core._real_omega(w2), omega)
    row = np.empty_like(b)
    assert core._real_omega(w2, out=row) is row and same_bits(row, omega)
    ena = 0.25 * (bdot**2 + w2 * b**2 + 1.0 / b**2) - 0.5 * omega
    assert np.array_equal(energies._ena(b, bdot, w2, omega), ena)
    into_bdot = bdot.copy()     # the cap objective writes Ena over its bdot row
    assert energies._ena(b, into_bdot, w2, omega, out=into_bdot) is into_bdot
    assert np.array_equal(into_bdot, ena)


@pytest.mark.parametrize("n", [0, 2])
def test_power_samples(nodes, n):
    b, _, _, dw2, _ = nodes
    spec = TrapSpec.from_gamma(10.0, n)
    power = (2 * n + 1) / 4.0 * dw2 * b**2
    assert np.array_equal(energies._power_samples(spec, dw2, b), power)
