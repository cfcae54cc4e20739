"""The generic fixed-step RK4 the tests hold the library's integrators to.

``ermakov.forward_solve`` and ``protocols.constant_power_shoot`` run RK4
as scalar float loops; this closure form is their independent reference.
"""
import numpy as np

from staexpand.core import TrajectoryBlowUp


def rk4_solve(rhs, y0, nodes: np.ndarray) -> np.ndarray:
    """Classical fixed-step RK4 over the given nodes.

    Returns the trajectory with one state row per node.  A non-finite
    state aborts with the time at which it appeared.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    out = np.empty((len(nodes), y.size))
    out[0] = y
    for i in range(len(nodes) - 1):
        t = nodes[i]
        h = nodes[i + 1] - t
        k1 = np.asarray(rhs(t, y), dtype=float)
        k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise TrajectoryBlowUp("ODE state became non-finite", float(nodes[i + 1]))
        out[i + 1] = y
    return out
