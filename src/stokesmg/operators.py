"""Discrete staggered-grid operators.

Divergence, gradient, pressure Laplacians, the three viscous forms, the
velocity operator combining inertial and viscous effects, the full saddle
operator, coefficient averaging, boundary homogenization and system
rescaling.  All operators are pure functions of their inputs; wall-normal
output rows are zeroed because boundary faces are not unknowns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    FREE_SLIP,
    NO_SLIP,
    CellField,
    FaceField,
    GridSpec,
    NodeEdgeField,
    StokesVector,
    edge_planes,
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


@dataclass
class CoefficientSet:
    """Everything entering the velocity operator and the Schur diagonal.

    ``rho_face`` and ``mu_node_edge`` are arithmetic averages of the
    cell-centered fields (one-sided copies on wall boundaries); use
    :func:`make_coefficients` to derive them consistently.
    """

    theta: float
    rho_cell: CellField
    rho_face: FaceField
    mu_cell: CellField
    mu_node_edge: NodeEdgeField
    gamma_cell: CellField
    viscous_form: ViscousForm = STRESS

    def __post_init__(self):
        # min/max propagate NaN, and a NaN fails every comparison below
        if not 0 <= self.theta < np.inf:
            raise ValueError("theta must be nonnegative and finite")
        rho_lo, rho_hi = self.rho_cell.data.min(), self.rho_cell.data.max()
        if not -np.inf < rho_lo <= rho_hi < np.inf:
            raise ValueError("density must be finite")
        if self.theta > 0 and not rho_lo > 0:
            raise ValueError("density must be positive for unsteady flow")
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
        return self.rho_cell.grid

    @property
    def inviscid(self) -> bool:
        return not np.any(self.mu_cell.data > 0)


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
    if gamma_cell is None:
        gamma_cell = CellField.zeros(grid)
    return CoefficientSet(
        theta=float(theta),
        rho_cell=rho_cell,
        rho_face=average_cell_to_faces(rho_cell),
        mu_cell=mu_cell,
        mu_node_edge=average_cell_to_node_edge(mu_cell),
        gamma_cell=gamma_cell,
        viscous_form=viscous_form,
    )


# ---------------------------------------------------------------------------
# stencil primitives on raw component arrays
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


def _diff_stagger_to_center(arr: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """arr[i+1] - arr[i] where arr is axis-staggered; result is centered."""
    if periodic:
        return np.roll(arr, -1, axis=axis) - arr
    return np.diff(arr, axis=axis)


def _diff_center_to_stagger(arr: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """arr[i] - arr[i-1] at staggered positions; wall rows are zero."""
    if periodic:
        return arr - np.roll(arr, 1, axis=axis)
    shape = list(arr.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    out[_sl(arr.ndim, axis, slice(1, -1))] = np.diff(arr, axis=axis)
    return out


def _zero_boundary(arr: np.ndarray, axis: int) -> None:
    arr[_sl(arr.ndim, axis, 0)] = 0.0
    arr[_sl(arr.ndim, axis, -1)] = 0.0


# ---------------------------------------------------------------------------
# divergence / gradient / pressure operators
# ---------------------------------------------------------------------------


def div(u: FaceField) -> CellField:
    """Cell-centered divergence; reads stored boundary faces."""
    grid = u.grid
    out = np.zeros(grid.cells)
    for a in range(grid.dim):
        out += _diff_stagger_to_center(u.components[a], a, grid.periodic(a))
    return CellField(grid, out / grid.h)


def grad(p: CellField) -> FaceField:
    """Face-centered pressure gradient; wall-normal faces are zero."""
    grid = p.grid
    comps = tuple(
        _diff_center_to_stagger(p.data, a, grid.periodic(a)) / grid.h
        for a in range(grid.dim)
    )
    return FaceField(grid, comps)


def lap_pressure(p: CellField) -> CellField:
    """Scalar pressure Laplacian, exactly div(grad(p))."""
    return div(grad(p))


def apply_Lrho(p: CellField, coeff: CoefficientSet) -> CellField:
    """Density-weighted pressure Poisson operator D (1/rho) G."""
    grid = p.grid
    g = grad(p)
    comps = tuple(
        g.components[a] / coeff.rho_face.components[a] for a in range(grid.dim)
    )
    return div(FaceField(grid, comps))


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------


@dataclass
class BoundaryValues:
    """Prescribed wall velocities.

    ``normal[(axis, side)]`` holds the normal component on that wall's
    boundary faces (shape: the component array with its own axis dropped).
    ``tangential[(axis, side, comp)]`` holds the ``comp`` velocity on the
    wall plane of ``(axis, side)`` (shape: the ``comp`` array with ``axis``
    dropped).  Missing entries mean zero; ``side`` is 0 (low) or 1 (high).
    """

    grid: GridSpec
    normal: dict
    tangential: dict

    @classmethod
    def zeros(cls, grid: GridSpec) -> BoundaryValues:
        return cls(grid, {}, {})

    def normal_values(self, axis: int, side: int) -> np.ndarray:
        shape = tuple(n for a, n in enumerate(self.grid.cells) if a != axis)
        vals = self.normal.get((axis, side))
        if vals is None:
            return np.zeros(shape)
        vals = np.asarray(vals, dtype=np.float64)
        if vals.shape != shape:
            raise ValueError(f"normal values for axis {axis} must have shape {shape}")
        return vals

    def tangential_values(self, axis: int, side: int, comp: int) -> np.ndarray:
        shape = tuple(
            n for a, n in enumerate(self.grid.face_shape(comp)) if a != axis
        )
        vals = self.tangential.get((axis, side, comp))
        if vals is None:
            return np.zeros(shape)
        vals = np.asarray(vals, dtype=np.float64)
        if vals.shape != shape:
            raise ValueError(
                f"tangential values for (axis {axis}, comp {comp}) must have shape {shape}"
            )
        return vals


def _tangential_gradient(
    ua: np.ndarray,
    a: int,
    b: int,
    grid: GridSpec,
    bvals: BoundaryValues | None,
) -> np.ndarray:
    """(d u_a / d x_b) at the (a, b)-staggered positions.

    Wall rows use the one-sided difference between the first interior value
    and the prescribed wall velocity (distance h/2, hence the factor two).
    """
    h = grid.h
    ndim = ua.ndim
    if grid.periodic(b):
        return (ua - np.roll(ua, 1, axis=b)) / h
    shape = list(ua.shape)
    shape[b] += 1
    out = np.zeros(shape)
    out[_sl(ndim, b, slice(1, -1))] = np.diff(ua, axis=b) / h
    lo = bvals.tangential_values(b, 0, a) if bvals is not None else 0.0
    hi = bvals.tangential_values(b, 1, a) if bvals is not None else 0.0
    out[_sl(ndim, b, 0)] = 2.0 * (ua[_sl(ndim, b, 0)] - lo) / h
    out[_sl(ndim, b, -1)] = 2.0 * (hi - ua[_sl(ndim, b, -1)]) / h
    return out


def _cross_gradient(ub: np.ndarray, a: int, grid: GridSpec) -> np.ndarray:
    """(d u_b / d x_a) at the (a, b)-staggered positions.

    ``u_b`` is cell-centered along ``a``, so the wall planes normal to ``a``
    are never consumed by interior rows; they are left zero.
    """
    return _diff_center_to_stagger(ub, a, grid.periodic(a)) / grid.h


def viscous_row(u: FaceField, coeff: CoefficientSet, a: int,
                bvals: BoundaryValues | None = None,
                div_u: CellField | None = None) -> np.ndarray:
    """Row block ``a`` of :func:`apply_viscous`, evaluating only its rows.

    The stress-bulk form reads ``div_u``; callers assembling several rows
    pass it to share one divergence, otherwise it is computed here.
    """
    grid = u.grid
    h = grid.h
    form = coeff.viscous_form
    mu_c = coeff.mu_cell.data
    normal_coef = mu_c if form is LAPLACIAN else 2.0 * mu_c
    ua = u.components[a]
    flux_n = normal_coef * _diff_stagger_to_center(ua, a, grid.periodic(a)) / h
    if form is STRESS_BULK:
        div_u = div(u) if div_u is None else div_u
        flux_n = flux_n + (coeff.gamma_cell.data - (2.0 / 3.0) * mu_c) * div_u.data
    res = _diff_center_to_stagger(flux_n, a, grid.periodic(a)) / h
    for b in range(grid.dim):
        if b == a:
            continue
        mu_e = coeff.mu_node_edge.plane(a, b)
        flux_t = _tangential_gradient(ua, a, b, grid, bvals)
        if form is not LAPLACIAN:
            flux_t = flux_t + _cross_gradient(u.components[b], a, grid)
        flux_t = mu_e * flux_t
        if not grid.periodic(b):
            if grid.bc[b][0] is FREE_SLIP:
                flux_t[_sl(flux_t.ndim, b, 0)] = 0.0
            if grid.bc[b][1] is FREE_SLIP:
                flux_t[_sl(flux_t.ndim, b, -1)] = 0.0
        res += _diff_stagger_to_center(flux_t, b, grid.periodic(b)) / h
    if not grid.periodic(a):
        _zero_boundary(res, a)
    return res


def apply_viscous(u: FaceField, coeff: CoefficientSet,
                  bvals: BoundaryValues | None = None) -> FaceField:
    """Discrete viscous term in the requested form.

    Laplacian: component-wise div(mu grad u_a).  Stress: the strain-tensor
    form with node/edge viscosities on the cross fluxes.  StressBulk adds
    the (gamma - 2/3 mu)(div u) isotropic flux.  Tangential momentum flux is
    zero on free-slip walls; stencils reaching outside the domain use
    one-sided differences against the wall values.
    """
    div_u = div(u) if coeff.viscous_form is STRESS_BULK else None
    return FaceField(u.grid, tuple(
        viscous_row(u, coeff, a, bvals, div_u) for a in range(u.grid.dim)
    ))


def apply_A_row(u: FaceField, coeff: CoefficientSet, a: int,
                bvals: BoundaryValues | None = None,
                div_u: CellField | None = None) -> np.ndarray:
    """Row block ``a`` of :func:`apply_A` (see :func:`viscous_row`)."""
    out = (coeff.theta * coeff.rho_face.components[a] * u.components[a]
           - viscous_row(u, coeff, a, bvals, div_u))
    if not u.grid.periodic(a):
        _zero_boundary(out, a)
    return out


def apply_A(u: FaceField, coeff: CoefficientSet,
            bvals: BoundaryValues | None = None) -> FaceField:
    """Velocity operator theta*rho*u - L_mu u on the unknown faces."""
    div_u = div(u) if coeff.viscous_form is STRESS_BULK else None
    return FaceField(u.grid, tuple(
        apply_A_row(u, coeff, a, bvals, div_u) for a in range(u.grid.dim)
    ))


def apply_M(x: StokesVector, coeff: CoefficientSet) -> StokesVector:
    """Saddle operator: (A u + G p, -D u)."""
    return StokesVector(apply_A(x.u, coeff) + grad(x.p), -div(x.u))


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
    """Remove the pressure constant and any velocity constants from x."""
    out = x.copy()
    out.p.data -= out.p.data.mean()
    for a in velocity_null_components(x.grid, coeff):
        view = out.u.interior(a)
        view -= view.mean()
    return out


# ---------------------------------------------------------------------------
# operator couplings and diagonals (needed by the multigrid smoothers)
# ---------------------------------------------------------------------------


def lrho_weights(grid: GridSpec, coeff: CoefficientSet, a: int) -> np.ndarray:
    """Coupling 1/(rho h^2) across each axis-``a`` face in D (1/rho) G.

    Entry ``k`` couples cells ``k - 1`` and ``k``; wall faces carry no flux
    and couple nothing.
    """
    return (1.0 / grid.h**2) / coeff.rho_face.components[a]


def lrho_diagonal(grid: GridSpec, coeff: CoefficientSet) -> CellField:
    """Diagonal of D (1/rho) G: minus each cell's interior face couplings."""
    out = np.zeros(grid.cells)
    for a in range(grid.dim):
        beta = lrho_weights(grid, coeff, a)
        if not grid.periodic(a):
            _zero_boundary(beta, a)
        out -= _edge_pair_sum(beta, a, grid.periodic(a))
    return CellField(grid, out)


def viscous_self_weights(grid: GridSpec, coeff: CoefficientSet, a: int):
    """Couplings of the axis-``a`` velocity to its own neighbors in -L_mu.

    Returns ``(normal, tangential)``, all divided by h^2.  ``normal`` is
    the cell-centered normal coefficient of the viscous form: entry ``k``
    couples a-faces ``k`` and ``k + 1``.  ``tangential[b]`` is the ``(a, b)``
    node/edge viscosity: entry ``k`` couples rows ``k - 1`` and ``k`` along
    ``b``.  On a wall along ``b`` that entry is the one-sided wall coupling,
    which reaches no neighbor and enters only the diagonal.
    """
    inv_h2 = 1.0 / grid.h**2
    mu_c = coeff.mu_cell.data
    form = coeff.viscous_form
    if form is LAPLACIAN:
        normal = inv_h2 * mu_c
    elif form is STRESS:
        normal = (2.0 * inv_h2) * mu_c
    else:
        normal = inv_h2 * (2.0 * mu_c + (coeff.gamma_cell.data - (2.0 / 3.0) * mu_c))
    tangential = {
        b: inv_h2 * coeff.mu_node_edge.plane(a, b)
        for b in range(grid.dim) if b != a
    }
    return normal, tangential


def helmholtz_diagonal(grid: GridSpec, coeff: CoefficientSet) -> FaceField:
    """Diagonal of A = theta*rho - L_mu; boundary faces are set to one.

    The couplings of :func:`viscous_self_weights` summed per face, with each
    wall coupling doubled on no-slip walls (one-sided difference over h/2)
    and dropped on free-slip walls (no tangential flux).
    """
    comps = []
    for a in range(grid.dim):
        normal, tangential = viscous_self_weights(grid, coeff, a)
        diag = (coeff.theta * coeff.rho_face.components[a]
                + _pair_sum(normal, a, grid.periodic(a)))
        for b, w in tangential.items():
            if not grid.periodic(b):
                for end, bc in ((0, grid.bc[b][0]), (-1, grid.bc[b][1])):
                    w[_sl(w.ndim, b, end)] *= 2.0 if bc is NO_SLIP else 0.0
            diag += _edge_pair_sum(w, b, grid.periodic(b))
        if not grid.periodic(a):
            diag[_sl(diag.ndim, a, 0)] = 1.0
            diag[_sl(diag.ndim, a, -1)] = 1.0
        comps.append(diag)
    return FaceField(grid, tuple(comps))


def _pair_sum(cell_arr: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """cell_arr[i-1] + cell_arr[i] at the staggered positions (wall rows 0)."""
    if periodic:
        return cell_arr + np.roll(cell_arr, 1, axis=axis)
    shape = list(cell_arr.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    out[_sl(cell_arr.ndim, axis, slice(1, -1))] = (
        cell_arr[_sl(cell_arr.ndim, axis, slice(1, None))]
        + cell_arr[_sl(cell_arr.ndim, axis, slice(None, -1))]
    )
    return out


def _edge_pair_sum(edge_arr: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """edge_arr[j] + edge_arr[j+1] at the centered positions along ``axis``."""
    if periodic:
        return edge_arr + np.roll(edge_arr, -1, axis=axis)
    return (
        edge_arr[_sl(edge_arr.ndim, axis, slice(None, -1))]
        + edge_arr[_sl(edge_arr.ndim, axis, slice(1, None))]
    )


# ---------------------------------------------------------------------------
# boundary homogenization and rescaling
# ---------------------------------------------------------------------------


def boundary_lift(bvals: BoundaryValues) -> FaceField:
    """FaceField holding the prescribed normal values on boundary faces."""
    grid = bvals.grid
    u_b = FaceField.zeros(grid)
    for a in range(grid.dim):
        if grid.periodic(a):
            continue
        arr = u_b.components[a]
        arr[_sl(arr.ndim, a, 0)] = bvals.normal_values(a, 0)
        arr[_sl(arr.ndim, a, -1)] = bvals.normal_values(a, 1)
    return u_b


def homogenize(bvals: BoundaryValues, coeff: CoefficientSet,
               rhs: StokesVector) -> StokesVector:
    """Subtract the affine boundary contribution from the right-hand side.

    The returned right-hand side belongs to the strictly homogeneous
    problem; adding ``bvals`` back onto the boundary faces of its solution
    solves the original affine problem.  Raises if the prescribed normal
    flow violates the divergence-theorem compatibility with the divergence
    source carried in ``rhs.p``.
    """
    grid = rhs.grid
    u_b = boundary_lift(bvals)
    d = grid.dim
    hd = grid.h**d
    boundary_flux = float(div(u_b).data.sum()) * hd
    source_integral = -float(rhs.p.data.sum()) * hd
    scale = max(
        1.0,
        float(np.abs(div(u_b).data).sum()) * hd,
        float(np.abs(rhs.p.data).sum()) * hd,
    )
    if abs(boundary_flux - source_integral) > 1e-10 * scale:
        raise ValueError(
            "incompatible boundary data: net boundary flux "
            f"{boundary_flux:g} != divergence-source integral {source_integral:g}"
        )
    contrib_u = apply_A(u_b, coeff, bvals)
    contrib_p = -div(u_b)
    return StokesVector(rhs.u - contrib_u, rhs.p - contrib_p)


@dataclass(frozen=True)
class RescaleSpec:
    """Velocity-equation scale factor c (pressure unknowns carry the same c)."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("scale factor must be positive")

    def unscale_solution(self, x: StokesVector) -> StokesVector:
        return StokesVector(x.u, (1.0 / self.c) * x.p)

    def scale_solution(self, x: StokesVector) -> StokesVector:
        return StokesVector(x.u, self.c * x.p)


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
    return scaled, StokesVector(c * rhs.u, rhs.p), RescaleSpec(c)
