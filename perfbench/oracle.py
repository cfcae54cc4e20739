"""Independent reference formulas for the benchmark's output checks.

Nothing here imports staexpand.  Every quantity is rebuilt from the
printed formulas of the method (dimensionless units: time in 1/omega0,
energies in hbar*omega0), with this module's own quadrature, so a check
never compares the program against a stored copy of its own output.
"""
from __future__ import annotations

import math

import numpy as np

CAP_SEED_FRACTIONS = (0.01, 0.05, 0.2)


# ---------------------------------------------------------------- quadrature

def simpson(y, h: float) -> float:
    """Composite Simpson on an odd number of equally spaced samples."""
    y = np.asarray(y, dtype=float)
    if len(y) % 2 == 0 or len(y) < 3:
        raise ValueError("Simpson needs an odd sample count >= 3")
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def integrate_pieces(y, nodes, pieces) -> float:
    """Sum of per-piece Simpson integrals over uniform pieces (lo, hi)."""
    total = 0.0
    for lo, hi in pieces:
        h = (nodes[hi] - nodes[lo]) / (hi - lo)
        total += simpson(y[lo : hi + 1], h)
    return total


def refined_pieces(nodes, pieces):
    """The same pieces with every interval halved: (fine_nodes, fine_pieces)."""
    parts, out, lo = [], [], 0
    for a, b in pieces:
        m = 2 * (b - a)
        parts.append(np.linspace(nodes[a], nodes[b], m + 1))
        out.append((lo, lo + m))
        lo += m + 1
    return np.concatenate(parts), tuple(out)


# ------------------------------------------------------------ scaling curves
# Each shape returns (b, b', b'', b''') in time for the nodes of one piece.

def _poly_in_s(coeffs_low_first, t, t_f):
    """b(s) = sum c_k s^k with s = t/t_f, and its first three time derivatives."""
    p = np.asarray(coeffs_low_first, dtype=float)[::-1]
    s = np.asarray(t, dtype=float) / t_f
    out = []
    for k in range(4):
        out.append(np.polyval(p, s) / t_f**k)
        p = np.polyder(p) if len(p) > 1 else np.zeros(1)
    return tuple(out)


def quintic_coeffs(gamma: float):
    d = gamma - 1.0
    return [1.0, 0.0, 0.0, 10.0 * d, -15.0 * d, 6.0 * d]


def septic_coeffs(gamma: float, c3: float, c4: float):
    g = gamma
    return [
        1.0, 0.0, 0.0, c3, c4,
        -(21.0 + 6.0 * c3 + 3.0 * c4 - 21.0 * g),
        35.0 + 8.0 * c3 + 3.0 * c4 - 35.0 * g,
        -(15.0 + 3.0 * c3 + c4 - 15.0 * g),
    ]


def quasi_optimal_AB(gamma: float, t_f: float):
    """b^2 = A s^2 + 2 B s + 1 with B = sqrt(tf^2 + gamma^2) - 1, A = B^2 - tf^2."""
    r = math.hypot(t_f, gamma)
    return gamma * gamma + 1.0 - 2.0 * r, r - 1.0


def _sqrt_derivs(g, g1, g2, g3):
    """b = sqrt(g) and its time derivatives from g and its derivatives."""
    b = np.sqrt(g)
    return (
        b,
        g1 / (2.0 * b),
        g2 / (2.0 * b) - g1**2 / (4.0 * g * b),
        g3 / (2.0 * b) - 3.0 * g1 * g2 / (4.0 * g * b) + 3.0 * g1**3 / (8.0 * g * g * b),
    )


def _quasi_optimal(gamma, t_f, t):
    a, bb = quasi_optimal_AB(gamma, t_f)
    s = np.asarray(t, dtype=float) / t_f
    return _sqrt_derivs(a * s * s + 2.0 * bb * s + 1.0, (2.0 * a * s + 2.0 * bb) / t_f,
                        np.full_like(s, 2.0 * a / t_f**2), np.zeros_like(s))


def _bang_bang(gamma, t_f, w1, w2, t1):
    """Two constant-frequency steps: b^2 = 1 + (1 + w1^2)/w1^2 sinh^2(w1 t) on
    (0, t1), released from rest; b^2 = gamma^2 + a sin^2(w2 (tf - t)) with
    a = (1 - gamma^4 w2^2)/(gamma^2 w2^2) on (t1, tf), arriving at rest."""

    def launch(t):
        t = np.asarray(t, dtype=float)
        if w1 == 0.0:
            return _sqrt_derivs(1.0 + t * t, 2.0 * t, np.full_like(t, 2.0), np.zeros_like(t))
        u = (1.0 + w1 * w1) / (w1 * w1)
        sh, ch = np.sinh(2.0 * w1 * t), np.cosh(2.0 * w1 * t)
        return _sqrt_derivs(1.0 + u * np.sinh(w1 * t) ** 2, u * w1 * sh,
                            2.0 * u * w1**2 * ch, 4.0 * u * w1**3 * sh)

    def stop(t):
        x = w2 * (t_f - np.asarray(t, dtype=float))
        a = (1.0 - gamma**4 * w2**2) / (gamma**2 * w2**2)
        return _sqrt_derivs(gamma**2 + a * np.sin(x) ** 2, -a * w2 * np.sin(2.0 * x),
                            2.0 * a * w2**2 * np.cos(2.0 * x), 4.0 * a * w2**3 * np.sin(2.0 * x))

    return [stop] if t1 == 0.0 else [launch, stop]


def shape(family: str, gamma: float, t_f: float, params: dict):
    """Per-piece closed forms of b(t) for the polynomial and quasi-optimal families."""
    d = gamma - 1.0
    if family == "quintic":
        return [lambda t: _poly_in_s(quintic_coeffs(gamma), t, t_f)]
    if family == "septic":
        c = septic_coeffs(gamma, params.get("c3", 0.0), params.get("c4", 0.0))
        return [lambda t: _poly_in_s(c, t, t_f)]
    if family == "linear_bottom":
        return [lambda t: _poly_in_s([1.0, d], t, t_f)]
    if family in ("quasi_optimal", "dirac"):
        return [lambda t: _quasi_optimal(gamma, t_f, t)]
    if family in ("bang_bang", "bang_bang_na"):
        return _bang_bang(gamma, t_f, params["omega1"], params["omega2"], params["t1"])
    if family == "hybrid":
        s_l, u_r = params["tau_l"] / t_f, params["tau_s"] / t_f
        cap1 = [1.0, 0.0, 2.0 * d / s_l, -d / s_l**2]
        cap2 = [gamma, 0.0, -2.0 * d / u_r, d / u_r**2]  # in u = 1 - s

        def stop(t):
            b, b1, b2, b3 = _poly_in_s(cap2, t_f - np.asarray(t, dtype=float), t_f)
            return b, -b1, b2, -b3

        return [
            lambda t: _poly_in_s(cap1, t, t_f),
            lambda t: _poly_in_s([1.0, d], t, t_f),
            stop,
        ]
    raise ValueError(family)


def sample(fns, nodes, pieces):
    """Evaluate per-piece closed forms on (nodes, pieces): arrays b, b1, b2, b3."""
    n = len(nodes)
    out = [np.empty(n) for _ in range(4)]
    if len(fns) == 1:
        fns = fns * len(pieces)
    for fn, (lo, hi) in zip(fns, pieces):
        for arr, v in zip(out, fn(nodes[lo : hi + 1])):
            arr[lo : hi + 1] = v
    return out


def omega2_of(b, b2):
    """Ermakov inverse map W^2 = 1/b^4 - b''/b."""
    return 1.0 / b**4 - b2 / b


def domega2_of(b, b1, b2, b3):
    return -4.0 * b1 / b**5 - b3 / b + b2 * b1 / b**2


# -------------------------------------------------------------- energies

def energies_at(b, b1, w2, n_mode: int):
    """(E, K, V) per node for mode n: K = c(b'^2 + 1/b^2), V = c W^2 b^2."""
    c = (2 * n_mode + 1) / 4.0
    k = c * (b1**2 + 1.0 / b**2)
    v = c * w2 * b**2
    return k + v, k, v


def ena_at(b, b1, w2):
    """Ground-state non-adiabatic energy (b'^2 + W^2 b^2 + 1/b^2)/4 - W/2."""
    return 0.25 * (b1**2 + w2 * b**2 + 1.0 / b**2) - 0.5 * np.sqrt(np.clip(w2, 0.0, None))


def E_nL(gamma: float, t_f: float, n_mode: int) -> float:
    """Greatest lower bound of the averaged energy, exact for every t_f.

    With b^2 = g(s) = A s^2 + 2 B s + 1 the averaged 2c(1/b^2 + b'^2) is
    2c (A/tf^2 + 2 int_0^1 ds/g) and, since B^2 - A = tf^2,
    int_0^1 ds/g = [ln|(A s + B - tf)/(A s + B + tf)|]_0^1 / (2 tf).
    Inside (-1, 1) this is the printed arctanh form; the logarithm also
    covers the durations where the arctanh arguments leave that range.
    """
    c2 = (2 * n_mode + 1) / 2.0
    r = math.hypot(t_f, gamma)
    a = gamma * gamma + 1.0 - 2.0 * r
    b_minus = gamma * gamma / (r + t_f) - 1.0          # B - tf
    b_plus = r - 1.0 + t_f                              # B + tf
    ab_minus = gamma * gamma - r - t_f                  # A + B - tf
    ab_plus = gamma * gamma * (1.0 - 1.0 / (r + t_f))   # A + B + tf
    a1, a2 = (a + r - 1.0) / t_f, (r - 1.0) / t_f
    if max(abs(a1), abs(a2)) < 1.0:
        return c2 / t_f**2 * (a - 2.0 * t_f * (math.atanh(a1) - math.atanh(a2)))
    logs = math.log(abs(ab_minus / ab_plus)) - math.log(abs(b_minus / b_plus))
    return c2 * (a / t_f**2 + logs / t_f)


def Ena_L(gamma: float, t_f: float) -> float:
    """Ground-state bound on the averaged non-adiabatic energy."""
    return (gamma - 1.0) ** 2 / (4.0 * t_f**2)


def dirac_kick_energy(gamma, t_f, n_mode):
    """Averaged-energy share of the two kicks, c/tf [b b']_0^tf = c A / tf^2,
    since b b' = (A s + B)/tf on the quasi-optimal curve."""
    a, _ = quasi_optimal_AB(gamma, t_f)
    return (2 * n_mode + 1) / 4.0 * a / t_f**2


def bound_tolerance(n_grid: int) -> float:
    """Relative error allowed for the quadrature bound at n_grid nodes.

    The quadrature is Simpson, O(h^4).  Its worst error against the exact
    E_nL over gamma in [1.5, 100], t_f in [0.1, 200] is 7.3e-7 at 2001
    nodes (gamma ~ 7, t_f just above 50, where the program switches to a
    graded grid); twice that, scaled by h^4 to other grid sizes.
    """
    return 1.5e-6 * (2000.0 / (n_grid - 1)) ** 4


def bang_bang_segment_energies(gamma, omega1, omega2, n_mode):
    """Constant total energy on each step of a two-step protocol."""
    half = n_mode + 0.5
    wf = 1.0 / gamma**2
    return 0.5 * half * (1.0 - omega1**2), 0.5 * half * (wf**2 + omega2**2) / wf


def power_expected(gamma, n_mode):
    """Total energy change (n + 1/2)(omega_f/omega0 - 1)."""
    return (n_mode + 0.5) * (1.0 / gamma**2 - 1.0)


# ---------------------------------------------------------------- searches

def cap_grid(t_f, tau_l, tau_s, n, min_intervals=32):
    """Nodes and pieces of a three-segment grid, intervals shared in proportion."""
    edges = [0.0, tau_l, t_f - tau_s, t_f]
    parts, pieces, lo = [], [], 0
    for e0, e1 in zip(edges[:-1], edges[1:]):
        m = max(min_intervals, int(round((n - 1) * (e1 - e0) / t_f)))
        m += m % 2
        parts.append(np.linspace(e0, e1, m + 1))
        pieces.append((lo, lo + m))
        lo += m + 1
    return np.concatenate(parts), tuple(pieces)


def cap_min_omega2(gamma, t_f, tau_l, tau_s, n):
    nodes, pieces = cap_grid(t_f, tau_l, tau_s, n)
    b, _, b2, _ = sample(shape("hybrid", gamma, t_f, {"tau_l": tau_l, "tau_s": tau_s}), nodes, pieces)
    return float(np.min(omega2_of(b, b2)))


def cap_avg_ena(gamma, t_f, tau_l, tau_s, n):
    nodes, pieces = cap_grid(t_f, tau_l, tau_s, n)
    b, b1, b2, _ = sample(shape("hybrid", gamma, t_f, {"tau_l": tau_l, "tau_s": tau_s}), nodes, pieces)
    return integrate_pieces(ena_at(b, b1, omega2_of(b, b2)), nodes, pieces) / t_f


def caps_seed_feasible(gamma, t_f, n, tol=-1e-12) -> bool:
    """True when any of the 9 seeded cap pairs gives a real frequency."""
    return any(
        cap_min_omega2(gamma, t_f, fl * t_f, fs * t_f, n) >= tol
        for fl in CAP_SEED_FRACTIONS
        for fs in CAP_SEED_FRACTIONS
    )


def caps_seed_baseline(gamma, t_f, n, tol=-1e-12) -> float:
    best = math.inf
    for fl in CAP_SEED_FRACTIONS:
        for fs in CAP_SEED_FRACTIONS:
            tl, ts = fl * t_f, fs * t_f
            if cap_min_omega2(gamma, t_f, tl, ts, n) >= tol:
                best = min(best, cap_avg_ena(gamma, t_f, tl, ts, n))
    return best


def septic_power_rel(gamma, t_f, c3, c4, n):
    """Relative power P / C on a uniform n-node grid, C = (n+1/2)(wf - 1)/tf.

    P_rel = tf / (2 (wf - 1)) * d(W^2)/dt * b^2, independent of the mode.
    """
    t = np.linspace(0.0, t_f, n)
    b, b1, b2, b3 = _poly_in_s(septic_coeffs(gamma, c3, c4), t, t_f)
    wf = 1.0 / gamma**2
    return t_f / (2.0 * (wf - 1.0)) * domega2_of(b, b1, b2, b3) * b**2
