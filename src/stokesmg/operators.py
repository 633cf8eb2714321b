"""Coefficients, null projection and rescaling around the staggered-grid
operators.

The coefficient set (only what the operators read) and the averaging that
builds it from cell fields, the pressure Laplacian, the null components of
the velocity operator and their projection, and the system rescaling.  The
operators themselves and the smoother diagonals (``div``, ``grad``,
``apply_Lrho``, ``lrho_diagonal``, ``apply_A``, ``helmholtz_diagonal`` and
``apply_M``) are the functions of :mod:`kernels`, imported here; the
compiled library alone holds their coupling weights and wall rules, and
their numpy formulation, which fixes every output bit, is the oracle in
``tests/reference.py``.  All operators are pure functions of their inputs;
wall-normal output rows are zeroed because boundary faces are not unknowns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    FREE_SLIP,
    CellField,
    FaceField,
    GridSpec,
    NodeEdgeField,
    StokesVector,
    edge_planes,
)
from .kernels import (
    apply_A,
    apply_Lrho,
    apply_M,
    div,
    grad,
    helmholtz_diagonal,
    lrho_diagonal,
)


class ViscousForm(enum.Enum):
    LAPLACIAN = "laplacian"
    STRESS = "stress"
    STRESS_BULK = "stress_bulk"


LAPLACIAN = ViscousForm.LAPLACIAN
STRESS = ViscousForm.STRESS
STRESS_BULK = ViscousForm.STRESS_BULK


# ---------------------------------------------------------------------------
# coefficient container and averaging
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientSet:
    """Exactly what the operators, smoothers and Schur inverse read.

    The density enters only on faces: ``rho_face`` and ``mu_node_edge`` are
    arithmetic averages of cell-centered fields (one-sided copies on wall
    boundaries), and :func:`make_coefficients` derives them from the cell
    density and viscosity and checks the cell density.  A set is frozen,
    so every one has passed the checks below; :func:`dataclasses.replace`
    derives a checked variant, and the kernels describe each set to the
    compiled library once.
    """

    theta: float
    rho_face: FaceField
    mu_cell: CellField
    mu_node_edge: NodeEdgeField
    gamma_cell: CellField
    viscous_form: ViscousForm = STRESS

    def __post_init__(self):
        object.__setattr__(self, "viscous_form", ViscousForm(self.viscous_form))
        # min/max propagate NaN, and a NaN fails every comparison below
        if not 0 <= self.theta < np.inf:
            raise ValueError("theta must be nonnegative and finite")
        mu_lo, mu_hi = self.mu_cell.data.min(), self.mu_cell.data.max()
        if not 0 <= mu_lo <= mu_hi < np.inf:
            raise ValueError("viscosity must be nonnegative and finite")
        if self.theta == 0 and not mu_hi > 0:
            raise ValueError("steady flow (theta = 0) needs nonzero viscosity")
        if not -np.inf < self.gamma_cell.data.min() <= self.gamma_cell.data.max() < np.inf:
            raise ValueError("bulk viscosity must be finite")
        if not all(0 < c.min() <= c.max() < np.inf for c in self.rho_face.components):
            raise ValueError("face density must be positive and finite")

    @property
    def grid(self) -> GridSpec:
        return self.mu_cell.grid


def average_cell_to_faces(f: CellField) -> FaceField:
    """Arithmetic mean of the two adjacent cells onto each face."""
    grid = f.grid
    comps = []
    for a in range(grid.dim):
        comps.append(_avg_to_stagger(f.data, a, grid.periodic(a)))
    return FaceField(grid, tuple(comps))


def average_cell_to_node_edge(f: CellField) -> NodeEdgeField:
    """Mean of the neighboring cells onto nodes (2D) or edges (3D).

    Interior values average the four surrounding cells; wall boundaries fall
    back to the available neighbors (two on a face of the domain, one in a
    corner).
    """
    grid = f.grid
    arrays = {}
    for axes in edge_planes(grid.dim):
        arr = f.data
        for a in axes:
            arr = _avg_to_stagger(arr, a, grid.periodic(a))
        arrays[axes] = arr
    return NodeEdgeField(grid, arrays)


def make_coefficients(
    grid: GridSpec,
    theta: float,
    rho_cell: CellField,
    mu_cell: CellField,
    gamma_cell: CellField | None = None,
    viscous_form: ViscousForm = STRESS,
) -> CoefficientSet:
    """The set of cell-centered fields; the cell density must be finite,
    and positive for unsteady flow, before it is averaged onto faces."""
    theta = float(theta)
    # min/max propagate NaN, and a NaN fails both comparisons
    rho_lo, rho_hi = rho_cell.data.min(), rho_cell.data.max()
    if not -np.inf < rho_lo <= rho_hi < np.inf:
        raise ValueError("density must be finite")
    if theta > 0 and not rho_lo > 0:
        raise ValueError("density must be positive for unsteady flow")
    if gamma_cell is None:
        gamma_cell = CellField.zeros(grid)
    return CoefficientSet(
        theta=theta,
        rho_face=average_cell_to_faces(rho_cell),
        mu_cell=mu_cell,
        mu_node_edge=average_cell_to_node_edge(mu_cell),
        gamma_cell=gamma_cell,
        viscous_form=viscous_form,
    )


# ---------------------------------------------------------------------------
# staggered averaging and slicing on raw component arrays
# ---------------------------------------------------------------------------


def _avg_to_stagger(arr: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """0.5*(arr[i-1] + arr[i]) at the axis-staggered positions."""
    if periodic:
        return 0.5 * (arr + np.roll(arr, 1, axis=axis))
    shape = list(arr.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    mid = _sl(arr.ndim, axis, slice(1, -1))
    out[mid] = 0.5 * (arr[_sl(arr.ndim, axis, slice(1, None))]
                      + arr[_sl(arr.ndim, axis, slice(None, -1))])
    out[_sl(arr.ndim, axis, 0)] = arr[_sl(arr.ndim, axis, 0)]
    out[_sl(arr.ndim, axis, -1)] = arr[_sl(arr.ndim, axis, -1)]
    return out


def _sl(ndim: int, axis: int, what) -> tuple:
    sl = [slice(None)] * ndim
    sl[axis] = what
    return tuple(sl)


def lap_pressure(p: CellField) -> CellField:
    """Scalar pressure Laplacian, exactly div(grad(p))."""
    return div(grad(p))


# ---------------------------------------------------------------------------
# null components and rescaling
# ---------------------------------------------------------------------------


def velocity_null_components(grid: GridSpec, coeff: CoefficientSet) -> tuple[int, ...]:
    """Components whose constant field lies in the null space of A.

    A constant axis-``a`` velocity is annihilated only for steady flow with
    axis ``a`` periodic and no no-slip wall transverse to it (no-slip walls
    see the constant through the one-sided tangential flux).
    """
    if coeff.theta > 0:
        return ()
    out = []
    for a in range(grid.dim):
        if not grid.periodic(a):
            continue
        if all(
            grid.periodic(b)
            or (grid.bc[b][0] is FREE_SLIP and grid.bc[b][1] is FREE_SLIP)
            for b in range(grid.dim)
            if b != a
        ):
            out.append(a)
    return tuple(out)


def project_nulls(x: StokesVector, coeff: CoefficientSet) -> StokesVector:
    """Remove the pressure constant and any velocity constants from a copy
    of x in a fresh buffer (see :meth:`StokesVector.copy`)."""
    out = x.copy()
    out.p.data -= out.p.data.mean()
    for a in velocity_null_components(x.grid, coeff):
        view = out.u.interior(a)
        view -= view.mean()
    return out


@dataclass(frozen=True)
class RescaleSpec:
    """Velocity-equation scale factor c (pressure unknowns carry the same c)."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("scale factor must be positive")

    def unscale_solution(self, x: StokesVector) -> StokesVector:
        return StokesVector(x.u, (1.0 / self.c) * x.p)


def rescale(coeff: CoefficientSet, rhs: StokesVector):
    """Rescale velocity equations and pressure unknowns by c = h / mu_max.

    Returns ``(coeff', rhs', spec)``.  The scaled operator is
    ``[[cA, G], [-D, 0]]`` acting on ``(x_u, c x_p)``; ``spec`` maps the
    scaled solution back exactly.  Inviscid systems are left unchanged.
    """
    mu0 = float(coeff.mu_cell.data.max())
    c = coeff.grid.h / mu0 if mu0 > 0 else 1.0
    scaled = replace(
        coeff,
        theta=c * coeff.theta,
        mu_cell=c * coeff.mu_cell,
        mu_node_edge=NodeEdgeField(
            coeff.grid, {k: c * v for k, v in coeff.mu_node_edge.arrays.items()}
        ),
        gamma_cell=c * coeff.gamma_cell,
    )
    # a fresh buffer: sharing rhs.p, a view, would keep all of rhs's alive
    out = rhs.copy()
    for comp in out.u.components:
        comp *= c
    return scaled, out, RescaleSpec(c)
