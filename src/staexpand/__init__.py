"""Shortcut-to-adiabaticity harmonic-trap expansions and their energy costs.

Design a scaling function b(t), inverse-engineer the trap frequency from
the Ermakov equation, and evaluate every transient-energy quantity of the
resulting protocol: instantaneous and averaged total/kinetic/potential
energies, the equipartition (virial) relation, Dirac-impulse energy
accounting, non-adiabatic energy, instantaneous power, and the matching
closed-form bounds.
"""
from .core import (
    DEFAULT_GRID_N,
    FrequencyProfile,
    GridMismatch,
    Infeasible,
    NonRealFrequency,
    PowerUndefined,
    ScalingCurve,
    TimeGrid,
    TrajectoryBlowUp,
    TrapSpec,
)
from . import energies, ermakov, numerics, optimize, protocols

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GRID_N",
    "FrequencyProfile",
    "GridMismatch",
    "Infeasible",
    "NonRealFrequency",
    "PowerUndefined",
    "ScalingCurve",
    "TimeGrid",
    "TrajectoryBlowUp",
    "TrapSpec",
    "energies",
    "ermakov",
    "numerics",
    "optimize",
    "protocols",
]
