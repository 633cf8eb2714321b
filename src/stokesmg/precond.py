"""The five Schur-complement preconditioners.

Every preconditioner is a constant linear operator built from a velocity
subsolver (a fixed number of staggered multigrid V-cycles, or a sparse
LU factorization for small-grid studies) and the approximate Schur inverse.
Applications are tallied in scalar-V-cycle units, the cost proxy used by
all benchmarks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .grid import CellField, FaceField, GridSpec, StokesVector
from .multigrid import (MAX_CYCLES, MgHierarchy, SmootherParams, build_hierarchy, mg_solve,
                        require_count)
from .operators import (
    CoefficientSet,
    apply_A,
    div,
    grad,
    project_nulls,
)
from .schur import MINUS, SchurConfig, apply_schur_inv


class PrecondKind(enum.Enum):
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"
    P5 = "P5"
    IDENTITY = "identity"


P1 = PrecondKind.P1
P2 = PrecondKind.P2
P3 = PrecondKind.P3
P4 = PrecondKind.P4
P5 = PrecondKind.P5
IDENTITY = PrecondKind.IDENTITY


@dataclass(frozen=True)
class PrecondConfig:
    """Preconditioner kind, V-cycles per velocity solve (at most
    :data:`multigrid.MAX_CYCLES`), Schur inverse and subsolver choice."""

    kind: PrecondKind = P2
    velocity_cycles: int = 1
    schur: SchurConfig = field(default_factory=SchurConfig)
    exact_subsolvers: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", PrecondKind(self.kind))
        require_count("velocity_cycles", self.velocity_cycles, 1, MAX_CYCLES)


class Preconditioner:
    """Applies P^{-1} for the configured preconditioner kind.

    With mg subsolvers the scalar-V-cycle counter advances by d cycles per
    velocity solve and by ``pressure_cycles`` per Poisson solve; exact
    subsolvers run no cycles and leave the counter untouched.
    """

    def __init__(self, coeff: CoefficientSet, cfg: PrecondConfig,
                 smoother: SmootherParams | None = None):
        self.coeff = coeff
        self.grid: GridSpec = coeff.grid
        self.cfg = cfg
        self.smoother = smoother if smoother is not None else SmootherParams()
        self.scalar_vcycles = 0
        self._hierarchy: MgHierarchy | None = None
        self._face_solver = None
        self._cell_solver = None
        if cfg.kind is IDENTITY:
            return
        if cfg.exact_subsolvers:
            from ._exact import DenseCellSolver, DenseFaceSolver

            self._face_solver = DenseFaceSolver(self.grid, coeff)
            if self._needs_poisson():
                self._cell_solver = DenseCellSolver(self.grid, coeff)
        else:
            self._hierarchy = build_hierarchy(self.grid, coeff)

    def _needs_poisson(self) -> bool:
        return self.cfg.kind is P1 or self.coeff.theta > 0

    # -- subsolvers --------------------------------------------------------

    def velocity_solve(self, b: FaceField) -> FaceField:
        if self._face_solver is not None:
            return self._face_solver.solve(b)
        self.scalar_vcycles += self.grid.dim * self.cfg.velocity_cycles
        return mg_solve(b, self._hierarchy, self.smoother, self.cfg.velocity_cycles)

    def pressure_solve(self, b: CellField) -> CellField:
        if self._cell_solver is not None:
            return self._cell_solver.solve(b)
        self.scalar_vcycles += self.cfg.schur.pressure_cycles
        return mg_solve(b, self._hierarchy, self.smoother, self.cfg.schur.pressure_cycles)

    def _schur_inv(self, b: CellField) -> CellField:
        solver = self.pressure_solve if self.coeff.theta > 0 else None
        return apply_schur_inv(b, self.coeff, solver)

    # -- application -------------------------------------------------------

    def apply(self, r: StokesVector) -> StokesVector:
        kind = self.cfg.kind
        if kind is IDENTITY:
            return r.copy()
        sign = -1.0 if self.cfg.schur.sign is MINUS else 1.0
        coeff = self.coeff

        if kind is P1:
            xu = self.velocity_solve(r.u)
            b_c = div(xu) + r.p
            phi = self.pressure_solve(b_c)
            gphi = grad(phi)
            for a in range(self.grid.dim):
                xu.components[a][...] -= (
                    gphi.components[a] / coeff.rho_face.components[a]
                )
            # reuse the single Poisson solve inside the Schur inverse
            s_inv = apply_schur_inv(b_c, coeff, lambda _: phi)
            x = StokesVector(xu, sign * s_inv)
        elif kind is P2:
            xu = self.velocity_solve(r.u)
            x = StokesVector(xu, sign * self._schur_inv(div(xu) + r.p))
        elif kind is P3:
            xp = sign * self._schur_inv(r.p)
            x = StokesVector(self.velocity_solve(r.u - grad(xp)), xp)
        elif kind is P4:
            x = StokesVector(self.velocity_solve(r.u),
                             sign * self._schur_inv(r.p))
        else:  # P5
            xu_star = self.velocity_solve(r.u)
            xp = sign * self._schur_inv(div(xu_star) + r.p)
            # second solve restarted from xu_star: correct its residual
            b2 = apply_A(xu_star, coeff, rhs=r.u - grad(xp))
            xu = xu_star + self.velocity_solve(b2)
            x = StokesVector(xu, xp)

        return project_nulls(x, coeff)
