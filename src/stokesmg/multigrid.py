"""Geometric V-cycle multigrid for the pressure and velocity subproblems.

The cell-centered solver targets the density-weighted Poisson operator and
the staggered solver the velocity operator; both smooth with multicolored
Gauss-Seidel, coarsen by a factor of two, and run a fixed number of bottom
relaxations so that a cycle is a constant linear operator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grid import (
    CellField,
    FaceField,
    GridSpec,
    NodeEdgeField,
    edge_planes,
)
from .operators import (
    CoefficientSet,
    apply_A,
    apply_A_row,
    apply_Lrho,
    helmholtz_diagonal,
    lrho_couplings,
    lrho_diagonal,
    viscous_couplings,
    _add_neighbors,
    _sl,
)


@dataclass(frozen=True)
class SmootherParams:
    omega: float = 1.0
    sweeps_down: int = 2
    sweeps_up: int = 2
    bottom_sweeps: int = 8

    def __post_init__(self):
        if not 0 < self.omega <= 1:
            raise ValueError("omega must lie in (0, 1]")
        if self.sweeps_down < 1 or self.sweeps_up < 1:
            raise ValueError("need at least one smoothing sweep each way")
        if self.bottom_sweeps < 8:
            raise ValueError("bottom level needs at least 8 relaxations")


class MgHierarchy:
    """Grids and coarsened coefficients from finest to coarsest.

    Coarsening halves every axis and stops once any axis would drop below
    two cells or turn odd; per-level smoother diagonals are cached lazily.
    """

    def __init__(self, levels: list[tuple[GridSpec, CoefficientSet]]):
        if not levels:
            raise ValueError("empty hierarchy")
        self.levels = levels
        self._diag_cell: dict[int, CellField] = {}
        self._diag_face: dict[int, FaceField] = {}

    @property
    def grid(self) -> GridSpec:
        return self.levels[0][0]

    def __len__(self) -> int:
        return len(self.levels)

    def diag_cell(self, level: int) -> CellField:
        if level not in self._diag_cell:
            g, c = self.levels[level]
            d = lrho_diagonal(g, c)
            if np.any(d.data == 0):
                raise ZeroDivisionError("zero diagonal in pressure operator")
            self._diag_cell[level] = d
        return self._diag_cell[level]

    def diag_face(self, level: int) -> FaceField:
        if level not in self._diag_face:
            g, c = self.levels[level]
            d = helmholtz_diagonal(g, c)
            for a in range(g.dim):
                if np.any(d.interior(a) == 0):
                    raise ZeroDivisionError(
                        "zero diagonal in velocity operator (theta = 0 with mu = 0 row)"
                    )
            self._diag_face[level] = d
        return self._diag_face[level]


def build_hierarchy(grid: GridSpec, coeff: CoefficientSet) -> MgHierarchy:
    if not grid.can_coarsen():
        raise ValueError(
            f"grid {grid.cells} cannot be coarsened; need even counts >= 4"
        )
    levels = [(grid, coeff)]
    g, c = grid, coeff
    while g.can_coarsen():
        gc = g.coarsened()
        c = coarsen_coefficients(c, gc)
        levels.append((gc, c))
        g = gc
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
    grid = coeff.grid
    dim = grid.dim
    all_axes = range(dim)

    rho_cell = CellField(coarse_grid, _block_mean(coeff.rho_cell.data, all_axes))
    mu_cell = CellField(coarse_grid, _block_mean(coeff.mu_cell.data, all_axes))
    gamma_cell = CellField(coarse_grid, _block_mean(coeff.gamma_cell.data, all_axes))

    face_comps = []
    for a in all_axes:
        arr = coeff.rho_face.components[a]
        arr = _stagger_inject(arr, a)
        arr = _block_mean(arr, [b for b in all_axes if b != a])
        face_comps.append(arr)
    rho_face = FaceField(coarse_grid, tuple(face_comps))

    arrays = {}
    for axes in edge_planes(dim):
        arr = coeff.mu_node_edge.plane(*axes)
        for a in axes:
            arr = _stagger_inject(arr, a)
        rest = [b for b in all_axes if b not in axes]
        if rest:
            arr = _block_mean(arr, rest)
        arrays[axes] = arr
    mu_ne = NodeEdgeField(coarse_grid, arrays)

    return CoefficientSet(
        theta=coeff.theta,
        rho_cell=rho_cell,
        rho_face=rho_face,
        mu_cell=mu_cell,
        mu_node_edge=mu_ne,
        gamma_cell=gamma_cell,
        viscous_form=coeff.viscous_form,
    )


# ---------------------------------------------------------------------------
# transfer operators
# ---------------------------------------------------------------------------


def restrict_cell(fine: CellField) -> CellField:
    """Simple averaging of the 2^d fine children."""
    grid = fine.grid
    return CellField(grid.coarsened(), _block_mean(fine.data, range(grid.dim)))


def prolong_cell(coarse: CellField) -> CellField:
    """Direct injection of each coarse value into its 2^d children."""
    grid = coarse.grid
    out = coarse.data
    for a in range(grid.dim):
        out = np.repeat(out, 2, axis=a)
    fine_grid = GridSpec(tuple(2 * n for n in grid.cells), grid.h / 2, grid.bc)
    return CellField(fine_grid, out)


def _restrict_normal(arr: np.ndarray, axis: int, periodic: bool,
                     n_coarse: int) -> np.ndarray:
    """[1/4, 1/2, 1/4] weighting onto the coarse staggered positions."""
    if periodic:
        lo = np.roll(arr, 1, axis=axis)[_sl(arr.ndim, axis, slice(0, None, 2))]
        mid = arr[_sl(arr.ndim, axis, slice(0, None, 2))]
        hi = np.roll(arr, -1, axis=axis)[_sl(arr.ndim, axis, slice(0, None, 2))]
        return 0.25 * lo + 0.5 * mid + 0.25 * hi
    shape = list(arr.shape)
    shape[axis] = n_coarse + 1
    out = np.zeros(shape)
    # interior coarse faces i read fine faces 2i-1, 2i, 2i+1
    lo = arr[_sl(arr.ndim, axis, slice(1, -2, 2))]
    mid = arr[_sl(arr.ndim, axis, slice(2, -1, 2))]
    hi = arr[_sl(arr.ndim, axis, slice(3, None, 2))]
    out[_sl(arr.ndim, axis, slice(1, -1))] = 0.25 * lo + 0.5 * mid + 0.25 * hi
    return out


def restrict_face(fine: FaceField) -> FaceField:
    """Staggered 6-point (2D) / 12-point (3D) restriction.

    Tangential directions average the two overlaying rows; the normal
    direction applies the 1/4, 1/2, 1/4 stencil.  Boundary faces of the
    coarse result stay zero (they are not unknowns).
    """
    grid = fine.grid
    coarse_grid = grid.coarsened()
    comps = []
    for a in range(grid.dim):
        arr = _block_mean(
            fine.components[a], [b for b in range(grid.dim) if b != a]
        )
        comps.append(
            _restrict_normal(arr, a, grid.periodic(a), coarse_grid.cells[a])
        )
    return FaceField(coarse_grid, tuple(comps))


def _prolong_tangential(arr: np.ndarray, axis: int, grid_c: GridSpec) -> np.ndarray:
    """3/4-1/4 interpolation doubling a tangential (cell-centered) axis.

    Wall rows clamp to the nearest interior row so every weight row still
    sums to one (constants prolong to constants).
    """
    if grid_c.periodic(axis):
        prev_ = np.roll(arr, 1, axis=axis)
        next_ = np.roll(arr, -1, axis=axis)
    else:
        prev_ = np.concatenate(
            [arr[_sl(arr.ndim, axis, slice(0, 1))],
             arr[_sl(arr.ndim, axis, slice(None, -1))]], axis=axis)
        next_ = np.concatenate(
            [arr[_sl(arr.ndim, axis, slice(1, None))],
             arr[_sl(arr.ndim, axis, slice(-1, None))]], axis=axis)
    shape = list(arr.shape)
    shape[axis] *= 2
    out = np.zeros(shape)
    out[_sl(arr.ndim, axis, slice(0, None, 2))] = 0.75 * arr + 0.25 * prev_
    out[_sl(arr.ndim, axis, slice(1, None, 2))] = 0.75 * arr + 0.25 * next_
    return out


def _prolong_normal(arr: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """Copy overlaying faces, average for in-between faces."""
    ndim = arr.ndim
    if periodic:
        n = arr.shape[axis]
        shape = list(arr.shape)
        shape[axis] = 2 * n
        out = np.zeros(shape)
        out[_sl(ndim, axis, slice(0, None, 2))] = arr
        out[_sl(ndim, axis, slice(1, None, 2))] = 0.5 * (arr + np.roll(arr, -1, axis=axis))
        return out
    n = arr.shape[axis] - 1
    shape = list(arr.shape)
    shape[axis] = 2 * n + 1
    out = np.zeros(shape)
    out[_sl(ndim, axis, slice(0, None, 2))] = arr
    out[_sl(ndim, axis, slice(1, None, 2))] = 0.5 * (
        arr[_sl(ndim, axis, slice(None, -1))] + arr[_sl(ndim, axis, slice(1, None))]
    )
    return out


def prolong_face(coarse: FaceField) -> FaceField:
    """Staggered prolongation: linear where fine faces overlay coarse ones,
    bilinear (trilinear normal+tangential products in 3D) elsewhere."""
    grid_c = coarse.grid
    fine_grid = GridSpec(tuple(2 * n for n in grid_c.cells), grid_c.h / 2, grid_c.bc)
    comps = []
    for a in range(grid_c.dim):
        arr = coarse.components[a]
        for b in range(grid_c.dim):
            if b != a:
                arr = _prolong_tangential(arr, b, grid_c)
        arr = _prolong_normal(arr, a, grid_c.periodic(a))
        comps.append(arr)
    return FaceField(fine_grid, tuple(comps))


# ---------------------------------------------------------------------------
# smoothers
# ---------------------------------------------------------------------------


@functools.cache
def _color(ndim: int, parity: int) -> tuple[tuple[slice, ...], ...]:
    """One Gauss-Seidel color: the strided sub-lattices ``[o0::2, o1::2, ...]``
    whose offset sum has the given parity (entries with that index-sum parity)."""
    return tuple(
        tuple(slice(o, None, 2) for o in offsets)
        for offsets in itertools.product((0, 1), repeat=ndim)
        if sum(offsets) % 2 == parity
    )


def _relax(x, res, diag, omega, parity, delta=None) -> None:
    """``x += omega * res / diag`` on one color, in place; the correction
    is also stored in ``delta`` when given.  All arguments are views of the
    unknowns."""
    for s in _color(x.ndim, parity):
        step = omega * (res[s] / diag[s])
        x[s] += step
        if delta is not None:
            delta[s] = step


def _sweep(grid, x, res, interior, diag, couplings, omega) -> None:
    """One two-color Gauss-Seidel sweep of ``x[interior]``, in place.

    ``res`` is the full residual, formed once: after the red relaxation it
    is brought up to date at black entries from red's correction through
    the operator's negated off-diagonal ``couplings`` (``res += c * delta``).
    """
    view, r, d = x[interior], res[interior], diag[interior]
    delta = np.zeros_like(res)
    _relax(view, r, d, omega, 0, delta[interior])
    for w, axis, lower in couplings:
        _add_neighbors(res, delta, w, axis, grid.periodic(axis), lower)
    _relax(view, r, d, omega, 1)


def smooth_cell(phi: CellField, rhs: CellField, grid: GridSpec,
                coeff: CoefficientSet, diag: CellField, omega: float) -> None:
    """One red-black Gauss-Seidel sweep on the pressure operator, in place,
    through the couplings of :func:`lrho_couplings`."""
    res = rhs.data - apply_Lrho(phi, coeff).data
    _sweep(grid, phi.data, res, (slice(None),) * grid.dim, diag.data,
           lrho_couplings(grid, coeff), omega)


def smooth_face(u: FaceField, rhs: FaceField, grid: GridSpec,
                coeff: CoefficientSet, diag: FaceField, omega: float) -> None:
    """One 2d-colored Gauss-Seidel sweep on the velocity operator, in place.

    Colors are relaxed in the order red-x, black-x, red-y, black-y(,
    red-z, black-z); updates are visible across colors.  Each component is
    swept with its own residual and the couplings of
    :func:`viscous_couplings`.
    """
    for a in range(grid.dim):
        res = rhs.components[a] - apply_A_row(u, coeff, a)
        _sweep(grid, u.components[a], res, grid.interior_slices(a),
               diag.components[a], viscous_couplings(grid, coeff, a), omega)


# ---------------------------------------------------------------------------
# V-cycle
# ---------------------------------------------------------------------------


class FieldKind(NamedTuple):
    """What the V-cycle needs of one field kind."""

    zeros: Callable
    operator: Callable
    restrict: Callable
    prolong: Callable
    smooth: Callable
    diagonal: Callable


def field_kind(kind: str) -> FieldKind:
    """The V-cycle's pieces for cell-centered or staggered fields.

    Built per call, not at import, so every piece is this module's current
    attribute (wrappers installed on the module see each call).
    """
    if kind == "cell":
        return FieldKind(CellField.zeros, apply_Lrho, restrict_cell,
                         prolong_cell, smooth_cell, MgHierarchy.diag_cell)
    if kind == "face":
        return FieldKind(FaceField.zeros, apply_A, restrict_face,
                         prolong_face, smooth_face, MgHierarchy.diag_face)
    raise ValueError("kind must be 'cell' or 'face'")


def vcycle(rhs, hierarchy: MgHierarchy, params: SmootherParams, kind: str):
    """One residual-correction V-cycle from a zero initial guess.

    ``kind`` selects the cell-centered pressure solver or the staggered
    velocity solver.  With fixed sweep counts the cycle is a constant
    linear operator in ``rhs``.
    """
    return _vcycle_level(rhs, hierarchy, params, field_kind(kind), 0)


def _vcycle_level(rhs, hierarchy, params, fk: FieldKind, level):
    grid, coeff = hierarchy.levels[level]
    x = fk.zeros(grid)
    diag = fk.diagonal(hierarchy, level)

    def smooth(x, sweeps):
        for _ in range(sweeps):
            fk.smooth(x, rhs, grid, coeff, diag, params.omega)

    if level == len(hierarchy) - 1:
        smooth(x, params.bottom_sweeps)
        return x

    smooth(x, params.sweeps_down)
    coarse_rhs = fk.restrict(rhs - fk.operator(x, coeff))
    correction = _vcycle_level(coarse_rhs, hierarchy, params, fk, level + 1)
    x = x + fk.prolong(correction)
    smooth(x, params.sweeps_up)
    return x


def mg_cycles(rhs, hierarchy: MgHierarchy, params: SmootherParams, kind: str):
    """Repeated V-cycles from a zero guess; yields the iterate after each.

    The residual feeding the next cycle is formed only when the next
    iterate is requested, so stopping after any cycle costs nothing extra.
    """
    fk = field_kind(kind)
    grid, coeff = hierarchy.levels[0]
    x = fk.zeros(grid)
    res = rhs
    while True:
        x = x + _vcycle_level(res, hierarchy, params, fk, 0)
        yield x
        res = rhs - fk.operator(x, coeff)


def mg_solve(rhs, hierarchy: MgHierarchy, params: SmootherParams,
             n_cycles: int, kind: str):
    """Apply ``n_cycles`` V-cycles from a zero guess; linear in ``rhs``."""
    if n_cycles < 1:
        raise ValueError("need at least one cycle")
    cycles = mg_cycles(rhs, hierarchy, params, kind)
    for _ in range(n_cycles):
        x = next(cycles)
    return x
