"""Geometric V-cycle multigrid for the pressure and velocity subproblems.

The cell-centered solver targets the density-weighted Poisson operator and
the staggered solver the velocity operator; both smooth with multicolored
Gauss-Seidel, coarsen by a factor of two, and run a fixed number of bottom
relaxations so that a cycle is a constant linear operator.  This module
builds the hierarchy (coarsened coefficients, per-level diagonals and the
V-cycle's argument plan) and repeats cycles; each V-cycle is one call of
:func:`kernels.vcycle`.  The smoother sweeps, operators and grid transfers
of :mod:`kernels` stay importable here, where tracing tools wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .grid import (
    CellField,
    FaceField,
    GridSpec,
    LayoutError,
    NodeEdgeField,
    edge_planes,
    require_real,
)
# the stand-alone stencils stay importable here, where tracing tools wrap them
from .kernels import (  # noqa: F401
    apply_A,
    apply_Lrho,
    helmholtz_diagonal,
    lrho_diagonal,
    prolong_cell,
    prolong_face,
    restrict_cell,
    restrict_face,
    smooth_cell,
    smooth_face,
)
from .operators import CoefficientSet, _sl


#: most sweeps of one smoothing pass (down, up or at the bottom level)
MAX_SWEEPS = 100
#: most V-cycles of one multigrid solve: a subsolve's
#: ``PrecondConfig.velocity_cycles`` or ``SchurConfig.pressure_cycles``, and
#: the ``max_cycles`` of ``stokesmg mg-bench``
MAX_CYCLES = 100


def require_count(name: str, value, lo: int, hi: float = math.inf) -> None:
    """Refuse a count ``name`` that is not an integer (a ``bool``, or a
    value without ``__index__``), which would fail only inside a solve, or
    that lies outside ``[lo, hi]``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")


@dataclass(frozen=True)
class SmootherParams:
    """Relaxation weight and sweep counts; every count is at most
    :data:`MAX_SWEEPS`, so a cycle's cost is bounded."""

    omega: float = 1.0
    sweeps_down: int = 2
    sweeps_up: int = 2
    bottom_sweeps: int = 8

    def __post_init__(self):
        require_count("sweeps_down", self.sweeps_down, 1, MAX_SWEEPS)
        require_count("sweeps_up", self.sweeps_up, 1, MAX_SWEEPS)
        require_count("bottom_sweeps", self.bottom_sweeps, 8, MAX_SWEEPS)
        require_real("omega", self.omega)
        if not 0 < self.omega <= 1:
            raise ValueError("omega must lie in (0, 1]")


class MgHierarchy:
    """Coefficient sets from the finest grid to the coarsest; each level is
    its set, and its grid is the set's.

    Coarsening halves every axis and stops once any axis would drop below
    two cells or turn odd; per-level smoother diagonals and each field
    kind's V-cycle plan (:func:`kernels.vcycle_plan`, a few hundred bytes
    of addresses) are built lazily, at that kind's first cycle.
    """

    def __init__(self, levels: list[CoefficientSet]):
        if not levels:
            raise ValueError("empty hierarchy")
        self.levels = levels
        self._diag_cell: dict[int, CellField] = {}
        self._diag_face: dict[int, FaceField] = {}
        self._plans: dict[bool, object] = {}

    @property
    def grid(self) -> GridSpec:
        return self.levels[0].grid

    def __len__(self) -> int:
        return len(self.levels)

    def diag_cell(self, level: int) -> CellField:
        if level not in self._diag_cell:
            c = self.levels[level]
            d = lrho_diagonal(c.grid, c)
            if np.any(d.data == 0):
                raise ZeroDivisionError("zero diagonal in pressure operator")
            self._diag_cell[level] = d
        return self._diag_cell[level]

    def diag_face(self, level: int) -> FaceField:
        if level not in self._diag_face:
            c = self.levels[level]
            d = helmholtz_diagonal(c.grid, c)
            if any(np.any(d.interior(a) == 0) for a in range(c.grid.dim)):
                raise ZeroDivisionError(
                    "zero diagonal in velocity operator (theta = 0 with mu = 0 row)")
            self._diag_face[level] = d
        return self._diag_face[level]

    def plan(self, cell: bool):
        """The V-cycle plan of cell (else face) right-hand sides; it points
        at this hierarchy's coefficients and diagonals."""
        if cell not in self._plans:
            diag = self.diag_cell if cell else self.diag_face
            self._plans[cell] = kernels.vcycle_plan(
                self.levels, [diag(level) for level in range(len(self))])
        return self._plans[cell]


def build_hierarchy(grid: GridSpec, coeff: CoefficientSet) -> MgHierarchy:
    if not grid.can_coarsen():
        raise ValueError(
            f"grid {grid.cells} cannot be coarsened; need even counts >= 4"
        )
    if coeff.grid != grid:
        raise LayoutError(f"coefficients on {coeff.grid} for a hierarchy on {grid}")
    levels = [coeff]
    while levels[-1].grid.can_coarsen():
        levels.append(coarsen_coefficients(levels[-1], levels[-1].grid.coarsened()))
    return MgHierarchy(levels)


# ---------------------------------------------------------------------------
# coefficient coarsening
# ---------------------------------------------------------------------------


def _block_mean(arr: np.ndarray, axes) -> np.ndarray:
    """Mean over 2x... blocks along the given axes."""
    out = arr
    for a in sorted(axes):
        lo = out[_sl(out.ndim, a, slice(0, None, 2))]
        hi = out[_sl(out.ndim, a, slice(1, None, 2))]
        out = 0.5 * (lo + hi)
    return out


def _stagger_inject(arr: np.ndarray, axis: int) -> np.ndarray:
    """Keep every second staggered entry (coarse positions coincide)."""
    return arr[_sl(arr.ndim, axis, slice(0, None, 2))]


def coarsen_coefficients(coeff: CoefficientSet, coarse_grid: GridSpec) -> CoefficientSet:
    """One level of coefficient coarsening.

    Face coefficients average the overlaying fine faces, cell coefficients
    average their children, nodes inject, and (3D) edges average the two
    overlaying fine edges.
    """
    all_axes = range(coarse_grid.dim)

    def cells(f: CellField) -> CellField:
        return CellField(coarse_grid, _block_mean(f.data, all_axes))

    def staggered(arr: np.ndarray, axes) -> np.ndarray:
        for a in axes:
            arr = _stagger_inject(arr, a)
        return _block_mean(arr, [b for b in all_axes if b not in axes])

    faces = tuple(staggered(arr, (a,)) for a, arr in enumerate(coeff.rho_face.components))
    planes = {axes: staggered(coeff.mu_node_edge.plane(*axes), axes)
              for axes in edge_planes(coarse_grid.dim)}
    return replace(coeff, rho_face=FaceField(coarse_grid, faces), mu_cell=cells(coeff.mu_cell),
                   mu_node_edge=NodeEdgeField(coarse_grid, planes),
                   gamma_cell=cells(coeff.gamma_cell))


# ---------------------------------------------------------------------------
# V-cycle
# ---------------------------------------------------------------------------


def vcycle(rhs, hierarchy: MgHierarchy, params: SmootherParams):
    """One residual-correction V-cycle from a zero initial guess, in one
    library call.

    A :class:`CellField` ``rhs`` selects the cell-centered pressure solver,
    a :class:`FaceField` the staggered velocity solver.  With fixed sweep
    counts the cycle is a constant linear operator in ``rhs``.
    """
    cell = isinstance(rhs, CellField)
    if not (cell or isinstance(rhs, FaceField)):
        raise LayoutError(f"no V-cycle solves for a {type(rhs).__name__} right-hand side")
    return kernels.vcycle(rhs, hierarchy.grid, hierarchy.plan(cell), params)


def mg_cycles(rhs, hierarchy: MgHierarchy, params: SmootherParams):
    """Repeated V-cycles from a zero guess; yields the iterate after each,
    the first being the first V-cycle itself.

    The residual feeding the next cycle is formed only when the next
    iterate is requested, so stopping after any cycle costs nothing extra.
    """
    residual = apply_Lrho if isinstance(rhs, CellField) else apply_A
    coeff = hierarchy.levels[0]
    x = vcycle(rhs, hierarchy, params)
    while True:
        yield x
        x = x + vcycle(residual(x, coeff, rhs=rhs), hierarchy, params)


def mg_solve(rhs, hierarchy: MgHierarchy, params: SmootherParams, n_cycles: int):
    """Apply ``n_cycles`` V-cycles from a zero guess; linear in ``rhs``.
    ``n_cycles`` is an integer from 1 to :data:`MAX_CYCLES`."""
    require_count("n_cycles", n_cycles, 1, MAX_CYCLES)
    cycles = mg_cycles(rhs, hierarchy, params)
    for _ in range(n_cycles):
        x = next(cycles)
    return x
