"""Restarted left-preconditioned GMRES with dual residual tracking.

The Arnoldi kernel works on flat vectors (modified Gram-Schmidt, plane
rotations for the least-squares solve) and is wrapped for Stokes systems;
every iteration logs the Givens residual estimate, the cumulative
scalar-V-cycle count and, by default, a freshly recomputed true residual.
The flat vectors of a Stokes solve are the fields' own buffers
(:meth:`StokesVector.view`), boundary faces included; those hold zero in
every Krylov vector, so they add nothing to a sum.

Inner products, norms, the Arnoldi steps and the basis combinations are
the compiled library's reductions (:func:`kernels.sum_products`,
:func:`kernels.arnoldi`, :func:`kernels.combine`), each summed in one
documented blocked order on the library's thread team, never BLAS: a
threaded BLAS would change the summation order with its thread count (so
the output bits with it) and oversubscribe the cores of parallel sweep
workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

# pack_stokes and unpack_stokes stay importable here, where tracing tools
# wrap them, although a solve no longer copies through them
from .grid import GridSpec, StokesVector, edge_planes, pack_stokes, unpack_stokes  # noqa: F401
from .grid import require_real
from .kernels import arnoldi, combine, sum_products
from .multigrid import SmootherParams, require_count
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
        require_count("restart", self.restart, 1)
        require_count("max_iters", self.max_iters, 1)
        require_real("rtol", self.rtol)
        require_real("atol", self.atol)
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
    each restart recomputes the residual from the current iterate.  A
    window holds at most ``m = min(restart, max_iters)`` iterations, so the
    basis and the least-squares arrays are sized by ``m``.

    ``callback(k, iterate, rp, restarted)`` runs after iteration ``k``;
    ``iterate()`` forms its iterate ``x + V y`` once, when first read.
    """
    n = len(b)
    m = min(restart, max_iters)
    x = np.zeros(n)
    r = b
    V = np.zeros((m + 1, n))  # the basis, reused by every restart
    k = 0
    first_cycle = True

    def iterate() -> np.ndarray:
        nonlocal xk
        if xk is None:
            xk = combine(V[: len(y)], y, x)
        return xk

    while True:
        beta = _norm(r)
        if beta == 0.0:
            return x, "converged", k
        if not math.isfinite(beta):
            return x, "nonfinite", k
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        np.divide(r, beta, out=V[0])
        g[0] = beta
        j = 0
        xk = x
        while j < m and k < max_iters:
            w = apply_op(V[j])
            k += 1
            # modified Gram-Schmidt, w's norm and V[j + 1] = w / norm in
            # one library call
            h = arnoldi(V, j, w)
            H[: j + 1, j] = h[: j + 1]
            arnoldi_norm = math.sqrt(h[j + 1])
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
                return iterate(), "nonfinite", k

            y, xk = _solve_upper(H[: j + 1, : j + 1], g[: j + 1]), None
            if callback is not None:
                callback(k, iterate, rp, j == 0 and not first_cycle)
            if rp <= target:
                return iterate(), "converged", k
            if arnoldi_norm <= breakdown_tol:
                return iterate(), "breakdown", k
            j += 1
        x = iterate()
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


#: Stokes vectors a solve holds besides its basis, coefficients, hierarchy
#: and V-cycle block: the right-hand side and its copies, GMRES's iterate,
#: residual and new direction, the true residual and a preconditioner
#: application's temporaries
SOLVE_VECTORS = 10


def solve_bytes(grid: GridSpec, gcfg: GmresConfig | None = None) -> int:
    """Bytes a solve on ``grid`` allocates at most, estimated from the grid
    alone, before anything is built: two coefficient sets (as built and
    rescaled; each holds two cell arrays, the face density and the
    node/edge viscosity), the coarse levels' sets and every level's
    smoother diagonals (a geometric series: at most 4/3 of the finest level
    in 2D, 8/7 in 3D), the V-cycle's block (two Stokes vectors),
    ``SOLVE_VECTORS`` Stokes vectors and, with ``gcfg``, the GMRES basis of
    ``min(restart, max_iters) + 1`` vectors.  Measured against the traced
    peak of a solve (2D 64^2 to 256^2, 3D 16^3 to 48^3, P1-P5) it is 1.08
    to 1.22 times that peak."""
    cells = math.prod(grid.cells)
    vector = StokesVector.buffer_size(grid)
    coefficients = 2 * cells + (vector - cells) + sum(
        math.prod(grid.node_edge_shape(axes)) for axes in edge_planes(grid.dim))
    rows = min(gcfg.restart, gcfg.max_iters) + 1 if gcfg is not None else 0
    # in integers, exact at any grid size; the series sums to 2^d / (2^d - 1)
    k = 2**grid.dim
    entries = ((2 * k - 1) * coefficients + k * vector
               + (k - 1) * (2 + SOLVE_VECTORS + rows) * vector)
    return 8 * -(-entries // (k - 1))


def require_memory(grid: GridSpec, gcfg: GmresConfig | None = None) -> None:
    """The memory cap: :func:`solve_bytes` must fit in this machine's
    physical memory, else ``ValueError``."""
    need = solve_bytes(grid, gcfg)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"a solve on {grid.cells} cells takes about {need} bytes, more "
                         f"than the {have} bytes of physical memory")


def gmres_solve(
    rhs: StokesVector,
    coeff: CoefficientSet,
    pcfg: PrecondConfig,
    gcfg: GmresConfig,
    smoother: SmootherParams | None = None,
    precond: Preconditioner | None = None,
):
    """Solve M x = rhs with left-preconditioned restarted GMRES.

    Every wall velocity is zero; a dimensional problem's right-hand side
    must already be rescaled.  Termination tests the preconditioned residual
    against ``rtol * r_P(0) + atol``; the history carries both residuals
    per iteration plus the cumulative scalar-V-cycle count.  A non-finite
    preconditioned right-hand side ends the solve with status ``nonfinite``
    before any iteration.  Values ``rhs`` holds on boundary faces, which
    are not unknowns, are ignored.
    """
    grid: GridSpec = rhs.grid
    require_memory(grid, gcfg)
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

    def callback(k, iterate, rp, restart_flag):
        if gcfg.track_true_residual:
            rt = true_residual(StokesVector.view(grid, iterate()), rhs, coeff)
        else:
            rt = float("nan")
        history.add(k, P.scalar_vcycles, rp, rt, restart_flag)

    xvec, status, _ = gmres_kernel(
        apply_op, z0, gcfg.restart, gcfg.max_iters, target, breakdown_tol,
        callback,
    )
    history.status = status
    return StokesVector.view(grid, xvec), history
