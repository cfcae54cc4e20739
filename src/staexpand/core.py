"""Trap description, dimensionless units, time grids, and sampled curves.

All internal math is dimensionless: time in units of 1/omega0, frequencies
in units of omega0, energies in units of hbar*omega0.  SI quantities are
converted at the command-line boundary (tau = omega0 t); the only physics
inputs that survive the scaling are gamma = sqrt(omega0/omega_f) and
omega_f/omega0 = 1/gamma^2.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

DEFAULT_GRID_N = 2001
_REAL_TOL = 1e-12   # omega^2 >= -_REAL_TOL is round-off of a real frequency


def _check_positive(b: np.ndarray) -> None:
    """A scaling function is a mode width: b <= 0 or NaN anywhere is a hard error."""
    if not np.all(b > 0.0):
        raise ValueError("scaling function must stay positive")


def _check_duration(t_f) -> None:
    """The one duration check of ``build`` and the public solvers: 0 < t_f < inf."""
    if t_f is None or not 0.0 < t_f < math.inf:
        raise ValueError(f"t_f must be positive and finite (got {t_f!r})")


def _is_imaginary(omega2: np.ndarray) -> bool:
    """min omega^2 < -1e-12 (or NaN): omega(t) is not real somewhere.

    Smaller negative values are round-off and count as real.
    """
    return not float(np.minimum.reduce(omega2)) >= -_REAL_TOL


def _real_omega(omega2: np.ndarray, out=None) -> np.ndarray:
    """sqrt(omega^2), clamping tiny negative round-off to zero, into ``out``
    when given."""
    out = np.maximum(omega2, 0.0, out=out)
    return np.sqrt(out, out=out)


class GridMismatch(ValueError):
    """Sampled quantities do not live on the same grid."""


class NonRealFrequency(ValueError):
    """omega^2 < 0 where a real omega(t) is required."""


class PowerUndefined(ValueError):
    """Instantaneous power is not a sampled function for this protocol."""


class Infeasible(RuntimeError):
    """No parameter choice satisfies the stated constraints."""


class TrajectoryBlowUp(RuntimeError):
    """A trajectory left the valid region; carries the failure time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t:.9g})")
        self.t = t


@dataclass(frozen=True)
class TrapSpec:
    """Expansion endpoints of a harmonic trap plus the mode index.

    omega0 and omega_f are angular frequencies in any consistent unit
    (rad/s for SI work, or omega0 = 1 for dimensionless work); only their
    ratio enters the math.  gamma = sqrt(omega0/omega_f) >= 1 is the
    expansion factor of the mode width.  Energies are in units of
    hbar*omega0, so hbar itself never enters.
    """

    omega0: float
    omega_f: float
    n: int = 0

    def __post_init__(self):
        if not (self.omega0 > 0.0 and self.omega_f > 0.0):
            raise ValueError("omega0 and omega_f must be positive")
        if self.omega_f > self.omega0:
            raise ValueError("expansion requires omega_f <= omega0")
        if not self.omega0 / self.omega_f < math.inf:
            raise ValueError("omega0/omega_f must be finite")
        if int(self.n) != self.n or self.n < 0:
            raise ValueError("mode index n must be a non-negative integer")

    @property
    def gamma(self) -> float:
        return math.sqrt(self.omega0 / self.omega_f)

    @property
    def omega_f_rel(self) -> float:
        """Final frequency in units of omega0 (equals 1/gamma^2)."""
        return self.omega_f / self.omega0

    @classmethod
    def from_gamma(cls, gamma: float, n: int = 0) -> "TrapSpec":
        if not 1.0 <= gamma < math.inf:
            raise ValueError("gamma = sqrt(omega0/omega_f) must be finite and >= 1")
        try:
            return cls(omega0=1.0, omega_f=1.0 / gamma**2, n=n)
        except OverflowError:   # gamma^2 overflows above ~1.34e154
            raise ValueError(f"gamma = {gamma:g} is too large: gamma^2 overflows") from None


# a piece is refused unless its step (t_hi - t_lo)/m is a normal float above
# 4 eps |t_hi|; then its linspace nodes increase strictly, spaced within that
_MIN_STEP, _TINY = 4.0 * float(np.finfo(float).eps), float(np.finfo(float).tiny)
_MIN_PIECE_INTERVALS = 32                   # per segment of a piecewise grid


class _Edges(tuple):
    """Piece boundaries that ``_checked_edges`` has passed."""

    __slots__ = ()


def _checked_edges(edges: Sequence[float]) -> tuple[float, ...]:
    """Piece boundaries as floats: from 0, strictly increasing, finite.
    Boundaries it has passed before come back as they are, so a grid that
    ``piecewise`` allocates is checked once."""
    if type(edges) is _Edges:
        return edges
    edges = _Edges(float(e) for e in edges)
    if len(edges) < 2 or edges[0] != 0.0:
        raise ValueError("edges must start at 0")
    if not (all(e0 < e1 for e0, e1 in zip(edges[:-1], edges[1:])) and math.isfinite(edges[-1])):
        raise ValueError("edges must increase strictly to a finite t_f")
    return edges


def _check_interval_count(m: int) -> None:
    if m < 2 or m % 2:
        raise ValueError("each piece needs an even interval count >= 2 (an odd node count >= 3)")


@dataclass(frozen=True)
class TimeGrid:
    """Sample times on [0, t_f]: piece boundaries ``edges`` (0 = edges[0] <
    ... < edges[-1] = t_f) and an even interval count >= 2 per piece
    (``intervals``); two grids are equal when these two are.

    ``nodes`` (read-only) and ``pieces`` (inclusive row ranges) are derived
    once, per piece with numpy's ``linspace`` arithmetic (e0 + k step, the
    last node set to e1; the minimum-step check keeps the step nonzero),
    so every piece is uniform with an odd node count by construction: the
    contract ``numerics.integrate`` relies on.  Interior edges sit on two
    rows, so one-sided limits of discontinuous quantities (omega^2, bddot)
    are stored per side.
    """

    edges: tuple[float, ...]
    intervals: tuple[int, ...]
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    pieces: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = _checked_edges(self.edges)
        intervals = tuple(operator.index(m) for m in self.intervals)
        if len(intervals) != len(edges) - 1:
            raise ValueError("need one interval count per piece")
        parts, pieces, lo = [], [], 0
        for e0, e1, m in zip(edges[:-1], edges[1:], intervals):
            _check_interval_count(m)
            if not (e1 - e0) / m > max(_MIN_STEP * abs(e1), _TINY):
                raise ValueError(f"piece [{e0!r}, {e1!r}] is too short for {m} uniform steps")
            part = np.arange(m + 1.0) * ((e1 - e0) / m) + e0   # np.linspace(e0, e1, m + 1)
            part[-1] = e1
            parts.append(part)
            pieces.append((lo, lo + m))
            lo += m + 1
        nodes = np.concatenate(parts)
        nodes.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "pieces", tuple(pieces))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def t_f(self) -> float:
        return self.edges[-1]

    @property
    def n_pieces(self) -> int:
        return len(self.intervals)

    @classmethod
    def uniform(cls, t_f: float, n: int = DEFAULT_GRID_N) -> "TimeGrid":
        return cls((0.0, t_f), (n - 1,))

    @classmethod
    def piecewise(cls, edges: Sequence[float], n: int = DEFAULT_GRID_N) -> "TimeGrid":
        """Grid over consecutive segments [edges[k], edges[k+1]].

        Intervals are allocated proportionally to segment length, forced
        even and at least 32 per segment.  ``n`` must be odd and at least 3,
        as for ``uniform``.
        """
        _check_interval_count(operator.index(n) - 1)
        edges = _checked_edges(edges)
        intervals = []
        for e0, e1 in zip(edges[:-1], edges[1:]):
            m = max(_MIN_PIECE_INTERVALS, int(round((n - 1) * (e1 - e0) / edges[-1])))
            intervals.append(m + m % 2)
        return cls(edges, tuple(intervals))


def _samples(name: str, values, grid: TimeGrid) -> np.ndarray:
    """``values`` as a float array of one sample per node of ``grid``."""
    v = np.asarray(values, dtype=float)
    if len(v) != len(grid):
        raise GridMismatch(f"{name} has {len(v)} samples for {len(grid)} nodes")
    return v


# the closed form of one grid piece: times t -> (b, bdot, bddot, bdddot) at t
Piece = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


@dataclass
class ScalingCurve:
    """A scaling function b and its derivatives bdot, bddot and bdddot,
    all four sampled on a grid.

    b > 0 everywhere (it is a mode width; a zero crossing or a NaN is a
    hard error).  bdot[0] and bdot[-1] are the one-sided slopes at 0+ and
    t_f-: an impulse protocol's kicks switch them to zero outside the
    curve.  ``fns`` optionally carries one closed form per grid piece:
    a ``Piece``, which maps the piece's times t to the four arrays
    (b, bdot, bddot, bdddot) at t; sampled on the piece's nodes, they equal
    the stored columns bit for bit.
    """

    grid: TimeGrid
    b: np.ndarray
    bdot: np.ndarray
    bddot: np.ndarray
    bdddot: np.ndarray
    fns: tuple[Piece, ...] | None = None

    def __post_init__(self):
        for name in ("b", "bdot", "bddot", "bdddot"):
            setattr(self, name, _samples(name, getattr(self, name), self.grid))
        _check_positive(self.b)
        if self.fns is not None and len(self.fns) != self.grid.n_pieces:
            raise ValueError("need one closed form per grid piece")


@dataclass
class FrequencyProfile:
    """Piecewise omega^2(t) in units of omega0^2, plus Dirac impulses at
    the two ends.

    ``impulses`` are (time, strength) pairs contributing strength *
    delta(t - time) to omega^2(t); strengths are in units of omega0, and
    the time must be 0.0 or ``grid.t_f`` exactly (the paper's kicks switch
    the slopes at the start and the end; ValueError otherwise).  omega^2
    samples may be negative (imaginary frequency); that is legitimate for
    total-energy work and refused by the non-adiabatic machinery.
    ``domega2`` holds d(omega^2)/dtau per node.  ``omega2_fns``, when
    given, holds one closed form omega^2(t) per grid piece (ValueError for
    another count); the integrator reads it between the nodes only.
    """

    grid: TimeGrid
    omega2: np.ndarray
    domega2: np.ndarray
    impulses: tuple[tuple[float, float], ...] = ()
    omega2_fns: tuple[Callable, ...] | None = None
    # per-piece Hermite interpolants; perfbench/tracer.py counts the entries by this name
    _splines: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.omega2 = _samples("omega2", self.omega2, self.grid)
        self.domega2 = _samples("domega2", self.domega2, self.grid)
        self.impulses = tuple((float(t), float(s)) for t, s in self.impulses)
        for t, _ in self.impulses:
            if t not in (0.0, self.grid.t_f):
                raise ValueError(f"impulse at t = {t!r}: kicks sit at t = 0 or t_f = {self.grid.t_f!r}")
        if self.omega2_fns is not None and len(self.omega2_fns) != self.grid.n_pieces:
            raise ValueError("need one closed form per grid piece")

    @property
    def has_imaginary(self) -> bool:
        """min omega^2 < -1e-12 (or NaN): omega(t) is not real somewhere."""
        return _is_imaginary(self.omega2)

    def omega(self) -> np.ndarray:
        """sqrt(omega^2), clamping tiny negative round-off to zero.

        Raises NonRealFrequency when ``has_imaginary``.
        """
        if self.has_imaginary:
            raise NonRealFrequency(
                f"omega^2 reaches {float(np.min(self.omega2)):.6g} < 0; omega(t) is not real"
            )
        return _real_omega(self.omega2)

    def piece_callable(self, k: int) -> Callable:
        """omega^2(t) on piece k: the closed form if present, else the
        piecewise cubic Hermite interpolant of the piece's samples.

        The Hermite slopes are ``domega2``, so the error is O(h^4); at the
        nodes it returns the stored samples exactly.  Built once per piece.
        """
        if self.omega2_fns is not None:
            return self.omega2_fns[k]
        if k not in self._splines:
            rows = slice(self.grid.pieces[k][0], self.grid.pieces[k][1] + 1)
            self._splines[k] = _hermite(self.grid.nodes[rows], self.omega2[rows], self.domega2[rows])
        return self._splines[k]


def _hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray) -> Callable:
    """Piecewise cubic Hermite interpolant through (x, y) with slopes dy.

    On [x_i, x_i+1], with h = x_i+1 - x_i, s = (t - x_i)/h and r = 1 - s:
    (1 + 2s) r^2 y_i + s^2 (3 - 2s) y_i+1 + h s r (r dy_i - s dy_i+1),
    which is y_i at s = 0 and y_i+1 at s = 1 exactly.  Times outside
    [x_0, x_-1] extend the end cubics.
    """
    x, y, dy = (np.array(v, dtype=float) for v in (x, y, dy))

    def value(t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
        h = x[i + 1] - x[i]
        s = (t - x[i]) / h
        r = 1.0 - s
        return ((1.0 + 2.0 * s) * r * r * y[i] + s * s * (3.0 - 2.0 * s) * y[i + 1]
                + h * s * r * (r * dy[i] - s * dy[i + 1]))

    return value
