"""Restarted left-preconditioned GMRES with dual residual tracking.

The Arnoldi kernel works on flat vectors (modified Gram-Schmidt, plane
rotations for the least-squares solve) and is wrapped for Stokes systems;
every iteration logs the Givens residual estimate, the cumulative
scalar-V-cycle count and, by default, a freshly recomputed true residual.
The flat vectors of a Stokes solve are the fields' own buffers
(:meth:`StokesVector.view`), boundary faces included; those hold zero in
every Krylov vector, so they add nothing to a sum.

Inner products, norms, the Gram-Schmidt steps and the basis combinations
are the compiled library's reductions (:func:`kernels.sum_products`,
:func:`kernels.mgs_step`, :func:`kernels.combine`), each summed in one
documented order, never BLAS: a threaded BLAS would change the summation
order with its thread count (so the output bits with it) and oversubscribe
the cores of parallel sweep workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# pack_stokes and unpack_stokes stay importable here, where tracing tools
# wrap them, although a solve no longer copies through them
from .grid import GridSpec, StokesVector, pack_stokes, unpack_stokes  # noqa: F401
from .kernels import combine, mgs_step, sum_products
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
        if not 0 < self.rtol < math.inf:
            raise ValueError("rtol must be positive and finite")
        if not 0 <= self.atol < math.inf:
            raise ValueError("atol must be nonnegative and finite")


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


def _norm(v: np.ndarray) -> float:
    return math.sqrt(sum_products(v, v))


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
    r = b
    V = np.zeros((restart + 1, n))  # the basis, reused by every restart
    k = 0
    first_cycle = True
    while True:
        beta = _norm(r)
        if beta == 0.0:
            return x, "converged", k
        if not math.isfinite(beta):
            return x, "nonfinite", k
        H = np.zeros((restart + 1, restart))
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        g = np.zeros(restart + 1)
        np.divide(r, beta, out=V[0])
        g[0] = beta
        j = 0
        xk = x
        while j < restart and k < max_iters:
            w = apply_op(V[j])
            k += 1
            # modified Gram-Schmidt, each step fused with the next step's
            # dot product and the last with w's own
            h = sum_products(V[0], w)
            for i in range(j + 1):
                H[i, j] = h
                h = mgs_step(h, V[i], w, V[i + 1] if i < j else w)
            arnoldi_norm = math.sqrt(h)
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
            xk = combine(V[: j + 1], y, x)
            if callback is not None:
                callback(k, xk, rp, j == 0 and not first_cycle)
            if rp <= target:
                return xk, "converged", k
            if arnoldi_norm <= breakdown_tol:
                return xk, "breakdown", k
            np.divide(w, arnoldi_norm, out=V[j + 1])
            j += 1
        x = xk
        first_cycle = False
        if k >= max_iters:
            return x, "maxiter", k
        r = b - apply_op(x)


def _solve_upper(R: np.ndarray, g: np.ndarray) -> np.ndarray:
    y = np.zeros_like(g)
    for i in range(len(g) - 1, -1, -1):
        y[i] = (g[i] - sum_products(R[i, i + 1 :], y[i + 1 :])) / R[i, i]
    return y


def true_residual(x: StokesVector, rhs: StokesVector,
                  coeff: CoefficientSet) -> float:
    """|| rhs - M x ||_2 over the unknowns, by a fresh operator application
    in residual mode (whose boundary faces hold zero)."""
    return _norm(apply_M(x, coeff, rhs=rhs).buffer)


def _unknowns(x: StokesVector) -> StokesVector:
    """A buffer-backed copy of ``x`` with zero boundary faces."""
    out = StokesVector.zeros(x.grid)
    for a in range(x.grid.dim):
        out.u.interior(a)[...] = x.u.interior(a)
    out.p.data[...] = x.p.data
    return out


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
    before any iteration.  Values ``rhs`` holds on boundary faces, which
    are not unknowns, are ignored.
    """
    grid: GridSpec = rhs.grid
    P = precond if precond is not None else Preconditioner(coeff, pcfg, smoother)
    history = ConvergenceHistory()

    # every Krylov vector below is a buffer whose boundary faces hold zero:
    # apply_M and the preconditioners write zero there, the identity copies
    # the zero of this copy, and the true residual does not read rhs's
    unknowns = _unknowns(rhs)
    rhs_norm = _norm(unknowns.buffer)
    z0 = P.apply(unknowns).buffer
    del unknowns  # not kept while GMRES runs

    def apply_op(v: np.ndarray) -> np.ndarray:
        return P.apply(apply_M(StokesVector.view(grid, v), coeff)).buffer

    rp0 = _norm(z0)
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
            rt = true_residual(StokesVector.view(grid, xvec), rhs, coeff)
        else:
            rt = float("nan")
        history.add(k, P.scalar_vcycles, rp, rt, restart_flag)

    xvec, status, _ = gmres_kernel(
        apply_op, z0, gcfg.restart, gcfg.max_iters, target, breakdown_tol,
        callback,
    )
    history.status = status
    return StokesVector.view(grid, xvec), history
