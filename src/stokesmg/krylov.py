"""Restarted left-preconditioned GMRES with dual residual tracking.

The Arnoldi kernel works on flat vectors (modified Gram-Schmidt, plane
rotations for the least-squares solve) and is wrapped for Stokes systems;
every iteration logs the Givens residual estimate, the cumulative
scalar-V-cycle count and, by default, a freshly recomputed true residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, StokesVector, pack_stokes, unpack_stokes
from .multigrid import SmootherParams
from .operators import CoefficientSet, apply_M
from .precond import PrecondConfig, Preconditioner


@dataclass(frozen=True)
class GmresConfig:
    restart: int = 10
    max_iters: int = 500
    rtol: float = 1e-9
    atol: float = 0.0
    track_true_residual: bool = True

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError("restart must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rtol > 0:
            raise ValueError("rtol must be positive")
        if not self.atol >= 0:
            raise ValueError("atol must be nonnegative")


@dataclass
class HistoryEntry:
    iteration: int
    scalar_vcycles: int
    resid_precond: float
    resid_true: float
    restart: bool


@dataclass
class ConvergenceHistory:
    entries: list[HistoryEntry] = field(default_factory=list)
    status: str = "running"

    def add(self, iteration, scalar_vcycles, resid_precond, resid_true, restart):
        self.entries.append(
            HistoryEntry(iteration, scalar_vcycles, float(resid_precond),
                         float(resid_true), bool(restart))
        )

    @property
    def iterations(self) -> int:
        return self.entries[-1].iteration if self.entries else 0

    @property
    def converged(self) -> bool:
        return self.status in ("converged", "breakdown")

    def final_true_residual(self) -> float:
        return self.entries[-1].resid_true

    def rows(self):
        """CSV rows: iteration, scalar_vcycles, resid_precond, resid_true, restart_flag."""
        return [
            (e.iteration, e.scalar_vcycles, e.resid_precond, e.resid_true,
             int(e.restart))
            for e in self.entries
        ]


def gmres_kernel(apply_op, b: np.ndarray, restart: int, max_iters: int,
                 target: float, breakdown_tol: float, callback=None):
    """Restarted GMRES on flat vectors for the system ``apply_op(x) = b``.

    Returns ``(x, status, iterations)`` where status is ``converged``,
    ``breakdown`` (invariant Krylov space reached), ``maxiter`` or
    ``nonfinite`` (a residual norm, Arnoldi norm or Givens estimate turned
    NaN or infinite; ``x`` is then the last finite iterate).  The Givens
    estimate of the residual norm is nonincreasing within a restart window;
    each restart recomputes the residual from the current iterate.
    """
    n = len(b)
    x = np.zeros(n)
    r = b.copy()
    k = 0
    first_cycle = True
    while True:
        beta = float(np.linalg.norm(r))
        if beta == 0.0:
            return x, "converged", k
        if not math.isfinite(beta):
            return x, "nonfinite", k
        V = np.zeros((restart + 1, n))
        H = np.zeros((restart + 1, restart))
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        g = np.zeros(restart + 1)
        V[0] = r / beta
        g[0] = beta
        j = 0
        xk = x
        while j < restart and k < max_iters:
            w = apply_op(V[j])
            k += 1
            for i in range(j + 1):
                H[i, j] = float(V[i] @ w)
                w -= H[i, j] * V[i]
            arnoldi_norm = float(np.linalg.norm(w))
            H[j + 1, j] = arnoldi_norm
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = math.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j] = H[j, j] / denom
                sn[j] = H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            rp = abs(g[j + 1])
            if not (math.isfinite(rp) and math.isfinite(arnoldi_norm)):
                return xk, "nonfinite", k

            y = _solve_upper(H[: j + 1, : j + 1], g[: j + 1])
            xk = x + V[: j + 1].T @ y
            if callback is not None:
                callback(k, xk, rp, j == 0 and not first_cycle)
            if rp <= target:
                return xk, "converged", k
            if arnoldi_norm <= breakdown_tol:
                return xk, "breakdown", k
            V[j + 1] = w / arnoldi_norm
            j += 1
        x = xk
        first_cycle = False
        if k >= max_iters:
            return x, "maxiter", k
        r = b - apply_op(x)


def _solve_upper(R: np.ndarray, g: np.ndarray) -> np.ndarray:
    y = np.zeros_like(g)
    for i in range(len(g) - 1, -1, -1):
        y[i] = (g[i] - R[i, i + 1 :] @ y[i + 1 :]) / R[i, i]
    return y


def true_residual(x: StokesVector, rhs: StokesVector,
                  coeff: CoefficientSet) -> float:
    """|| rhs - M x ||_2 over the packed unknowns, by a fresh operator
    application."""
    return float(np.linalg.norm(pack_stokes(rhs - apply_M(x, coeff))))


def gmres_solve(
    rhs: StokesVector,
    coeff: CoefficientSet,
    pcfg: PrecondConfig,
    gcfg: GmresConfig,
    smoother: SmootherParams | None = None,
    precond: Preconditioner | None = None,
):
    """Solve M x = rhs with left-preconditioned restarted GMRES.

    The right-hand side must already be homogenized (and, for dimensional
    problems, rescaled).  Termination tests the preconditioned residual
    against ``rtol * r_P(0) + atol``; the history carries both residuals
    per iteration plus the cumulative scalar-V-cycle count.  A non-finite
    preconditioned right-hand side ends the solve with status ``nonfinite``
    before any iteration.
    """
    grid: GridSpec = rhs.grid
    P = precond if precond is not None else Preconditioner(coeff, pcfg, smoother)
    history = ConvergenceHistory()

    rhs_norm = float(np.linalg.norm(pack_stokes(rhs)))

    def apply_op(v: np.ndarray) -> np.ndarray:
        x = unpack_stokes(grid, v)
        return pack_stokes(P.apply(apply_M(x, coeff)))

    z0 = pack_stokes(P.apply(rhs))
    rp0 = float(np.linalg.norm(z0))
    history.add(0, P.scalar_vcycles, rp0, rhs_norm, False)
    if rp0 <= gcfg.atol or rp0 == 0.0:
        history.status = "converged"
        return StokesVector.zeros(grid), history
    if not math.isfinite(rp0):
        history.status = "nonfinite"
        return StokesVector.zeros(grid), history

    target = gcfg.rtol * rp0 + gcfg.atol
    breakdown_tol = max(gcfg.atol, 1e-14 * rp0)

    def callback(k, xvec, rp, restart_flag):
        if gcfg.track_true_residual:
            rt = true_residual(unpack_stokes(grid, xvec), rhs, coeff)
        else:
            rt = float("nan")
        history.add(k, P.scalar_vcycles, rp, rt, restart_flag)

    xvec, status, _ = gmres_kernel(
        apply_op, z0, gcfg.restart, gcfg.max_iters, target, breakdown_tol,
        callback,
    )
    history.status = status
    return unpack_stokes(grid, xvec), history
