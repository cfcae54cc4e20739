"""The plain per-step RK4 loops the tests hold the library's integrators to.

``protocols.constant_power_shoot`` runs RK4 as a scalar float loop and
``ermakov.forward_solve`` as chained step matrices; ``rk4_solve`` and
``ermakov_rk4_solve`` are their independent references.
"""
import numpy as np

from staexpand.core import TrajectoryBlowUp


def rk4_step(rhs, t, y, h):
    """One classical RK4 step of y' = rhs(t, y) from t to t + h."""
    k1 = np.asarray(rhs(t, y), dtype=float)
    k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_solve(rhs, y0, nodes: np.ndarray) -> np.ndarray:
    """Classical fixed-step RK4 over the given nodes.

    Returns the trajectory with one state row per node.  A non-finite
    state aborts with the time at which it appeared.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    out = np.empty((len(nodes), y.size))
    out[0] = y
    for i in range(len(nodes) - 1):
        y = rk4_step(rhs, nodes[i], y, nodes[i + 1] - nodes[i])
        if not np.all(np.isfinite(y)):
            raise TrajectoryBlowUp("ODE state became non-finite", float(nodes[i + 1]))
        out[i + 1] = y
    return out


def ermakov_rk4_solve(omega2, y0, nodes: np.ndarray) -> np.ndarray:
    """RK4 for the linear x'' + W^2(t) x = 0 over the given nodes, one
    step at a time, on the two solutions (u, u') and (w, w') at once.

    Each step's map M is one RK4 step of the matrix equation
    Y' = [[0, 1], [-W^2, 0]] Y from the identity, with W^2 = ``omega2(t)``
    read by the stages, and the state takes M / sqrt(det M).  ``y0`` is
    (u, u', w, w') at the first node; returns one such row per node.  A
    non-finite state aborts with the time at which it appeared.
    """
    def rhs(t, y):
        return np.array([y[1], -float(omega2(t)) * y[0]])

    u0, du0, w0, dw0 = (float(v) for v in y0)
    state = np.array([[u0, w0], [du0, dw0]])
    out = np.empty((len(nodes), 4))
    out[0] = state.T.ravel()
    for i in range(len(nodes) - 1):
        step = rk4_step(rhs, nodes[i], np.eye(2), nodes[i + 1] - nodes[i])
        det = step[0, 0] * step[1, 1] - step[0, 1] * step[1, 0]
        state = step @ state / np.sqrt(det)
        if not np.all(np.isfinite(state)):
            raise TrajectoryBlowUp("ODE state became non-finite", float(nodes[i + 1]))
        out[i + 1] = state.T.ravel()
    return out
