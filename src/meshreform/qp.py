"""Small active-set solver for minimum-change quadratic programs.

Solves  min ||x - x0||^2  s.t.  G x <= h  for the handful of coupled OBB
extents touched by joint compatibility constraints. The unconstrained
optimum is x0; violated constraints are activated one at a time and
constraints with negative multipliers are released, the usual primal-dual
loop for a strictly convex objective.
"""

import numpy as np


class QPInfeasibleError(ValueError):
    def __init__(self, message, constraint_index=None):
        super().__init__(message)
        self.constraint_index = constraint_index


def _solve_working_set(x0, G, h, active):
    """Optimum of min ||x-x0||^2 s.t. G_A x = h_A, or None when the working
    set is inconsistent.

    KKT: [2I  Ga^T] [x  ]   [2 x0]
         [Ga   0  ] [lam] = [ha]
    """
    n = len(x0)
    if not active:
        return x0.copy(), np.zeros(0)
    Ga = G[active]
    ha = h[active]
    kkt = np.zeros((n + len(active), n + len(active)))
    kkt[:n, :n] = 2.0 * np.eye(n)
    kkt[:n, n:] = Ga.T
    kkt[n:, :n] = Ga
    rhs = np.concatenate([2.0 * x0, ha])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    if np.abs(kkt @ sol - rhs).max() > 1e-8 * max(1.0, np.abs(rhs).max()):
        return None
    return sol[:n], sol[n:]


# multiplier and (relative) violation tolerance, and active-set iteration cap
_TOL = 1e-10
_MAX_ITER = 500


def solve_min_change_qp(x0, G, h):
    """Returns (x, active_indices, multipliers).

    KKT at the solution: x = x0 - G_A^T lam / 2 with lam >= 0 and
    G_A x = h_A on the active set A, G x <= h everywhere.
    """
    x0 = np.asarray(x0, dtype=float)
    G = np.asarray(G, dtype=float).reshape(-1, len(x0))
    h = np.asarray(h, dtype=float).reshape(-1)
    m = len(h)
    active = []

    x, lam = x0.copy(), np.zeros(0)
    for _ in range(_MAX_ITER):
        res = _solve_working_set(x0, G, h, active)
        if res is None:
            raise QPInfeasibleError("inconsistent working set",
                                    constraint_index=active[-1] if active else None)
        x, lam = res

        if len(lam) and lam.min() < -_TOL:
            active.pop(int(np.argmin(lam)))
            continue

        if m == 0:
            return x, active, lam
        viol = G @ x - h
        scale = max(1.0, float(np.abs(h).max()))
        order = [int(k) for k in np.argsort(-viol) if viol[k] > _TOL * scale]
        if not order:
            return x, list(active), lam
        added = False
        for w in order:
            if w in active:
                continue
            trial = _solve_working_set(x0, G, h, active + [w])
            if trial is None:
                continue
            active.append(w)
            added = True
            break
        if not added:
            raise QPInfeasibleError(
                f"constraint {order[0]} cannot be satisfied",
                constraint_index=order[0])
    raise QPInfeasibleError("active-set iteration limit reached")


def kkt_residual(x, x0, G, h, active, lam):
    """Max norm of the stationarity and complementarity residuals."""
    G = np.asarray(G, dtype=float).reshape(-1, len(x0))
    h = np.asarray(h, dtype=float).reshape(-1)
    r_stat = 2.0 * (x - x0)
    if active:
        r_stat = r_stat + G[active].T @ lam
    r = float(np.abs(r_stat).max())
    if len(h):
        r = max(r, float(np.maximum(G @ x - h, 0.0).max()))
    if active:
        r = max(r, float(np.abs(G[active] @ x - h[active]).max()))
    return r
