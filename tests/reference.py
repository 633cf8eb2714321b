"""Independent reference implementations used as test oracles.

Everything here is written as plain scalar loops or algebraic (Kronecker /
Fourier) constructions, deliberately avoiding the vectorized slicing of the
package code so the two paths share no machinery.  The exceptions are the
flux-scaled operator section, whose whole-array formulas fix the rounding
the package's row scaling must reproduce, and the numpy operators,
transfers, two-colour sweep and smoother diagonals, which fix the rounding
of the compiled library, and the Krylov reduction loops, which fix the
summation order of the library's dot product, Gram-Schmidt step and basis
combination.  The V-cycle recursion over the library's stand-alone entries
fixes the order of the stages the library's one-call V-cycle runs.
"""

from __future__ import annotations

import functools
import math
import itertools
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from stokesmg import kernels
from stokesmg.grid import FREE_SLIP, NO_SLIP, CellField, FaceField, GridSpec, StokesVector
from stokesmg.multigrid import _block_mean
from stokesmg.operators import (
    LAPLACIAN,
    STRESS,
    STRESS_BULK,
    CoefficientSet,
    _sl,
)


def _zero_boundary(arr: np.ndarray, axis: int) -> None:
    """Zero the two boundary planes of ``arr`` normal to ``axis``."""
    arr[_sl(arr.ndim, axis, 0)] = 0.0
    arr[_sl(arr.ndim, axis, -1)] = 0.0


# ---------------------------------------------------------------------------
# scalar-loop stencil oracles (any BC, any coefficients)
# ---------------------------------------------------------------------------


def ref_div(u: FaceField) -> np.ndarray:
    grid = u.grid
    h = grid.h
    out = np.zeros(grid.cells)
    for idx in np.ndindex(grid.cells):
        total = 0.0
        for a in range(grid.dim):
            lo = list(idx)
            hi = list(idx)
            hi[a] += 1
            if grid.periodic(a):
                hi[a] %= grid.cells[a]
            total += u.components[a][tuple(hi)] - u.components[a][tuple(lo)]
        out[idx] = total / h
    return out


def ref_grad(p: CellField) -> list[np.ndarray]:
    grid = p.grid
    h = grid.h
    comps = []
    for a in range(grid.dim):
        arr = np.zeros(grid.face_shape(a))
        for idx in np.ndindex(arr.shape):
            if not grid.periodic(a) and idx[a] in (0, grid.cells[a]):
                continue  # boundary faces are not unknowns
            hi = list(idx)
            lo = list(idx)
            lo[a] -= 1
            if grid.periodic(a):
                lo[a] %= grid.cells[a]
            arr[idx] = (p.data[tuple(hi)] - p.data[tuple(lo)]) / h
        comps.append(arr)
    return comps


class GhostVelocity:
    """Component accessor resolving periodic wrap and wall ghost reflection.

    No-slip ghosts reflect through the zero wall velocity
    (u_ghost = -u_int); free-slip ghosts copy the interior value.  Only one
    layer outside the domain is ever consulted.
    """

    def __init__(self, u: FaceField):
        self.u = u
        self.grid = u.grid

    def __call__(self, a: int, idx) -> float:
        grid = self.grid
        arr = self.u.components[a]
        idx = list(idx)
        for axis in range(grid.dim):
            n = arr.shape[axis]
            if grid.periodic(axis):
                idx[axis] %= n
                continue
            if 0 <= idx[axis] < n:
                continue
            if axis == a:
                raise IndexError("normal index out of range")
            # ghost across a wall the component runs tangential to
            side = 0 if idx[axis] < 0 else 1
            interior = list(idx)
            interior[axis] = 0 if side == 0 else n - 1
            kind = grid.bc[axis][side]
            if kind is NO_SLIP:
                return -self(a, interior)
            if kind is FREE_SLIP:
                return self(a, interior)
            raise AssertionError
        return arr[tuple(idx)]


def _cell(data: np.ndarray, grid, idx):
    idx = list(idx)
    for axis in range(grid.dim):
        idx[axis] %= grid.cells[axis]
    return data[tuple(idx)]


def _edge_mu(mu_ne, a: int, b: int, idx):
    arr = mu_ne.plane(a, b)
    idx = list(idx)
    for axis in range(arr.ndim):
        idx[axis] %= arr.shape[axis]
    return arr[tuple(idx)]


def ref_viscous(u: FaceField, coeff) -> list[np.ndarray]:
    """Loop transcription of the three viscous forms with ghost handling."""
    grid = u.grid
    h2 = grid.h * grid.h
    form = coeff.viscous_form
    ug = GhostVelocity(u)
    mu = coeff.mu_cell.data
    nf = 1.0 if form is LAPLACIAN else 2.0
    if form is STRESS_BULK:
        bulk = (coeff.gamma_cell.data - 2.0 / 3.0 * coeff.mu_cell.data) * ref_div(u)

    out = []
    for a in range(grid.dim):
        res = np.zeros(grid.face_shape(a))
        for idx in np.ndindex(res.shape):
            if not grid.periodic(a) and idx[a] in (0, grid.cells[a]):
                continue
            total = 0.0
            # normal flux difference: cells idx[a]-1 and idx[a] along a
            cell_hi = list(idx)
            cell_lo = list(idx)
            cell_lo[a] -= 1
            for cell, s in ((cell_hi, 1.0), (cell_lo, -1.0)):
                up = list(idx)
                up[a] = cell[a] + 1
                dn = list(idx)
                dn[a] = cell[a]
                flux = nf * _cell(mu, grid, cell) * (ug(a, up) - ug(a, dn))
                if form is STRESS_BULK:
                    flux += _cell(bulk, grid, cell) * grid.h
                total += s * flux
            # tangential fluxes: edges at idx[b] and idx[b]+1 along each b
            for b in range(grid.dim):
                if b == a:
                    continue
                for off, s in ((1, 1.0), (0, -1.0)):
                    eidx = list(idx)
                    eidx[b] += off
                    on_wall = not grid.periodic(b) and (
                        eidx[b] == 0 or eidx[b] == grid.cells[b]
                    )
                    side = 0 if eidx[b] == 0 else 1
                    if on_wall and grid.bc[b][side] is FREE_SLIP:
                        continue  # zero tangential momentum flux
                    up = list(idx)
                    up[b] = eidx[b]
                    dn = list(idx)
                    dn[b] = eidx[b] - 1
                    flux = ug(a, up) - ug(a, dn)
                    if form is not LAPLACIAN:
                        bup = list(eidx)
                        bdn = list(eidx)
                        bdn[a] -= 1
                        # u_b is stored on the wall plane itself
                        flux += ug(b, bup) - ug(b, bdn)
                    total += s * _edge_mu(coeff.mu_node_edge, a, b, eidx) * flux
            res[idx] = total / h2
        out.append(res)
    return out


def ref_apply_A(u: FaceField, coeff) -> list[np.ndarray]:
    grid = u.grid
    visc = ref_viscous(u, coeff)
    out = []
    for a in range(grid.dim):
        arr = coeff.theta * coeff.rho_face.components[a] * u.components[a] - visc[a]
        if not grid.periodic(a):
            sl = [slice(None)] * grid.dim
            for side in (0, -1):
                sl[a] = side
                arr[tuple(sl)] = 0.0
            sl[a] = slice(None)
        out.append(arr)
    return out


def ref_apply_Lrho(p: CellField, coeff) -> np.ndarray:
    grid = p.grid
    g = ref_grad(p)
    scaled = FaceField(
        grid, tuple(g[a] / coeff.rho_face.components[a] for a in range(grid.dim))
    )
    # zero the wall faces again (division preserved zeros, but be explicit)
    for a in range(grid.dim):
        if not grid.periodic(a):
            sl = [slice(None)] * grid.dim
            for side in (0, -1):
                sl[a] = side
                scaled.components[a][tuple(sl)] = 0.0
    return ref_div(scaled)


# ---------------------------------------------------------------------------
# flux-scaled operators: bitwise oracle for the row scaling
# ---------------------------------------------------------------------------
# These divide every difference by h, in the package's operation order
# otherwise; the package sums unscaled differences and scales each row once
# by 1/h^2.  Power-of-two scalings are exact, so for a power-of-two h both
# round identically.


def _at(ndim: int, axis: int, end: int) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = end
    return tuple(idx)


def _to_center(arr: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """arr[i+1] - arr[i] of an axis-staggered array."""
    if periodic:
        return np.roll(arr, -1, axis=axis) - arr
    return np.diff(arr, axis=axis)


def _to_stagger(arr: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """arr[i] - arr[i-1] at the axis-staggered positions; wall rows zero."""
    if periodic:
        return arr - np.roll(arr, 1, axis=axis)
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (1, 1)
    return np.pad(np.diff(arr, axis=axis), pad)


def flux_scaled_apply_A(u: FaceField, coeff) -> list[np.ndarray]:
    grid = u.grid
    h = grid.h
    form = coeff.viscous_form
    mu_c = coeff.mu_cell.data
    div_u = np.zeros(grid.cells)
    for a in range(grid.dim):
        div_u = div_u + _to_center(u.components[a], a, grid.periodic(a))
    div_u = div_u / h
    out = []
    for a in range(grid.dim):
        ua = u.components[a]
        flux_n = _to_center(ua, a, grid.periodic(a))
        if form is not LAPLACIAN:
            flux_n = flux_n * 2.0
        flux_n = flux_n * mu_c / h
        if form is STRESS_BULK:
            flux_n = flux_n + (coeff.gamma_cell.data - (2.0 / 3.0) * mu_c) * div_u
        visc = _to_stagger(flux_n, a, grid.periodic(a)) / h
        for b in range(grid.dim):
            if b == a:
                continue
            flux_t = _to_stagger(ua, b, grid.periodic(b))
            if not grid.periodic(b):
                flux_t[_at(ua.ndim, b, 0)] = ua[_at(ua.ndim, b, 0)] * 2.0
                flux_t[_at(ua.ndim, b, -1)] = (0.0 - ua[_at(ua.ndim, b, -1)]) * 2.0
            flux_t = flux_t / h
            if form is not LAPLACIAN:
                flux_t = flux_t + _to_stagger(u.components[b], a, grid.periodic(a)) / h
            flux_t = flux_t * coeff.mu_node_edge.plane(a, b)
            for side, end in ((0, 0), (1, -1)):
                if not grid.periodic(b) and grid.bc[b][side] is FREE_SLIP:
                    flux_t[_at(ua.ndim, b, end)] = 0.0
            visc = visc + _to_center(flux_t, b, grid.periodic(b)) / h
        row = coeff.theta * coeff.rho_face.components[a] * ua - visc
        if not grid.periodic(a):
            row[_at(ua.ndim, a, 0)] = row[_at(ua.ndim, a, -1)] = 0.0
        out.append(row)
    return out


def flux_scaled_apply_Lrho(p: CellField, coeff) -> np.ndarray:
    grid = p.grid
    out = np.zeros(grid.cells)
    for a in range(grid.dim):
        flux = _to_stagger(p.data, a, grid.periodic(a)) / grid.h
        flux = flux / coeff.rho_face.components[a]
        out = out + _to_center(flux, a, grid.periodic(a))
    return out / grid.h


# ---------------------------------------------------------------------------
# numpy operators and transfers: bitwise oracle for the compiled library
# ---------------------------------------------------------------------------
# Whole-array formulation of the operators and transfers in
# stokesmg/sweeps.c (unscaled differences, each row scaled once by 1/h^2).
# The compiled entries must round every entry, signed zeros included, as
# these do.


class _Cuts(NamedTuple):
    """Index tuples picking ``[:-1]``, ``[1:]``, ``[1:-1]``, ``[0]`` and
    ``[-1]`` along one axis."""

    head: tuple
    tail: tuple
    inner: tuple
    first: tuple
    last: tuple


@functools.cache
def _cuts(ndim: int, axis: int) -> _Cuts:
    """The numpy helpers' index tuples, built once per (ndim, axis)."""
    return _Cuts(*(_sl(ndim, axis, what) for what in
                   (slice(None, -1), slice(1, None), slice(1, -1), 0, -1)))


def _diff_stagger_to_center(arr: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """arr[i+1] - arr[i] where arr is axis-staggered; result is centered."""
    cut = _cuts(arr.ndim, axis)
    if not periodic:
        return np.subtract(arr[cut.tail], arr[cut.head])
    out = np.empty_like(arr)
    np.subtract(arr[cut.tail], arr[cut.head], out=out[cut.head])
    np.subtract(arr[cut.first], arr[cut.last], out=out[cut.last])
    return out


def _diff_center_to_stagger(arr: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """arr[i] - arr[i-1] at staggered positions; wall rows are zero."""
    cut = _cuts(arr.ndim, axis)
    if periodic:
        out = np.empty_like(arr)
        np.subtract(arr[cut.tail], arr[cut.head], out=out[cut.tail])
        np.subtract(arr[cut.first], arr[cut.last], out=out[cut.first])
        return out
    shape = list(arr.shape)
    shape[axis] += 1
    out = np.empty(shape)
    np.subtract(arr[cut.tail], arr[cut.head], out=out[cut.inner])
    _zero_boundary(out, axis)
    return out


def div(u: FaceField) -> CellField:
    grid = u.grid
    out = np.zeros(grid.cells)
    for a in range(grid.dim):
        out += _diff_stagger_to_center(u.components[a], a, grid.periodic(a))
    out /= grid.h
    return CellField(grid, out)


def grad(p: CellField) -> FaceField:
    grid = p.grid
    comps = tuple(
        _diff_center_to_stagger(p.data, a, grid.periodic(a))
        for a in range(grid.dim)
    )
    for c in comps:
        c /= grid.h
    return FaceField(grid, comps)


def apply_Lrho(p: CellField, coeff) -> CellField:
    grid = p.grid
    out = np.zeros(grid.cells)
    for a in range(grid.dim):
        flux = _diff_center_to_stagger(p.data, a, grid.periodic(a))
        flux /= coeff.rho_face.components[a]
        out += _diff_stagger_to_center(flux, a, grid.periodic(a))
    out *= 1.0 / grid.h**2
    return CellField(grid, out)


def viscous_row(u: FaceField, coeff, a: int, div_u=None) -> np.ndarray:
    """Row block ``a`` of :func:`apply_viscous`.  The stress-bulk form reads
    ``div_u``, computed here when not given."""
    grid = u.grid
    h = grid.h
    form = coeff.viscous_form
    mu_c = coeff.mu_cell.data
    ua = u.components[a]
    flux_n = _diff_stagger_to_center(ua, a, grid.periodic(a))
    if form is not LAPLACIAN:
        flux_n *= 2.0  # exact, so (2 d) mu rounds like d (2 mu)
    flux_n *= mu_c
    if form is STRESS_BULK:
        div_u = div(u) if div_u is None else div_u
        bulk = (2.0 / 3.0) * mu_c
        np.subtract(coeff.gamma_cell.data, bulk, out=bulk)
        bulk *= div_u.data
        bulk *= h  # div_u carries 1/h
        flux_n += bulk
    res = _diff_center_to_stagger(flux_n, a, grid.periodic(a))
    for b in range(grid.dim):
        if b == a:
            continue
        # d u_a / d x_b at the (a, b)-staggered positions; a wall row takes
        # the one-sided difference against a zero wall velocity (distance
        # h/2, hence the factor two); 0 - u keeps +0 where -u gives -0
        flux_t = _diff_center_to_stagger(ua, b, grid.periodic(b))
        if not grid.periodic(b):
            cut = _cuts(ua.ndim, b)
            first, last = flux_t[cut.first], flux_t[cut.last]
            np.multiply(ua[cut.first], 2.0, out=first)
            np.subtract(0.0, ua[cut.last], out=last)
            last *= 2.0
        if form is not LAPLACIAN:
            # d u_b / d x_a; u_b is cell-centered along a, so the wall
            # planes normal to a (left zero) feed no interior row
            flux_t += _diff_center_to_stagger(u.components[b], a, grid.periodic(a))
        flux_t *= coeff.mu_node_edge.plane(a, b)
        if not grid.periodic(b):
            if grid.bc[b][0] is FREE_SLIP:
                flux_t[cut.first] = 0.0
            if grid.bc[b][1] is FREE_SLIP:
                flux_t[cut.last] = 0.0
        res += _diff_stagger_to_center(flux_t, b, grid.periodic(b))
    res *= 1.0 / h**2
    if not grid.periodic(a):
        _zero_boundary(res, a)
    return res


def apply_viscous(u: FaceField, coeff) -> FaceField:
    div_u = div(u) if coeff.viscous_form is STRESS_BULK else None
    return FaceField(u.grid, tuple(
        viscous_row(u, coeff, a, div_u) for a in range(u.grid.dim)
    ))


def apply_A_row(u: FaceField, coeff, a: int, div_u=None) -> np.ndarray:
    """Row block ``a`` of :func:`apply_A`; steady flow forms no mass term."""
    out = viscous_row(u, coeff, a, div_u)
    if coeff.theta == 0:
        return np.negative(out, out=out)
    m = coeff.theta * coeff.rho_face.components[a]
    m *= u.components[a]
    m -= out
    if not u.grid.periodic(a):
        _zero_boundary(m, a)  # the mass term reads the boundary faces
    return m


def apply_A(u: FaceField, coeff, rhs=None) -> FaceField:
    """theta*rho*u - L_mu u, or ``rhs`` minus it."""
    div_u = div(u) if coeff.viscous_form is STRESS_BULK else None
    comps = [apply_A_row(u, coeff, a, div_u) for a in range(u.grid.dim)]
    if rhs is not None:
        for c, b in zip(comps, rhs.components):
            np.subtract(b, c, out=c)
    return FaceField(u.grid, tuple(comps))


def apply_M(x: StokesVector, coeff) -> StokesVector:
    au = apply_A(x.u, coeff)
    for c, gp in zip(au.components, grad(x.p).components):
        c += gp
    du = div(x.u)
    np.negative(du.data, out=du.data)
    return StokesVector(au, du)


def saddle_residual(x: StokesVector, coeff, rhs: StokesVector) -> StokesVector:
    """``rhs - M x`` at the unknowns, +0 on the boundary faces."""
    mx = apply_M(x, coeff)
    comps = []
    for a, (b, c) in enumerate(zip(rhs.u.components, mx.u.components)):
        r = b - c
        if not x.grid.periodic(a):
            _zero_boundary(r, a)
        comps.append(r)
    return StokesVector(FaceField(x.grid, tuple(comps)),
                        CellField(x.grid, rhs.p.data - mx.p.data))


def restrict_cell(fine: CellField) -> CellField:
    grid = fine.grid
    return CellField(grid.coarsened(), _block_mean(fine.data, range(grid.dim)))


def prolong_cell(coarse: CellField) -> CellField:
    grid = coarse.grid
    out = coarse.data
    for a in range(grid.dim):
        out = np.repeat(out, 2, axis=a)
    return CellField(GridSpec(tuple(2 * n for n in grid.cells), grid.h / 2, grid.bc), out)


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


def _prolong_tangential(arr: np.ndarray, axis: int, grid_c) -> np.ndarray:
    """3/4-1/4 interpolation doubling a tangential (cell-centered) axis;
    wall rows clamp to the nearest interior row."""
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
# numpy two-colour sweep: bitwise oracle for the compiled smoothers
# ---------------------------------------------------------------------------
# Whole-array formulation of the sweeps in stokesmg/sweeps.c: the residual
# from the operator rows above, the red relaxation, the black residual
# brought up to date by _add_neighbors over the coupling lists, and the
# black relaxation; and the diagonals the sweeps divide by, summed from the
# same coupling lists.  The kernels must round every entry as these do.


def _add_neighbors(out, delta, w, axis: int, periodic: bool, lower: bool) -> None:
    """Add each entry's two ``w``-weighted axis neighbors in ``delta`` to ``out``.

    ``w[k]`` couples entries ``k`` and ``k + 1``, or ``k - 1`` and ``k`` when
    ``lower``; a bounded axis then has two wall entries that couple nothing.
    Full arrays, so the sum stays exact where an odd periodic count makes a
    color touch itself across the wrap.
    """
    if periodic:
        s = 1 if lower else -1
        prod = np.multiply(w, delta)
        other = np.roll(prod, -s, axis=axis)
        np.multiply(w, np.roll(delta, s, axis=axis), out=prod)
        prod += other
        out += prod
        return
    cut = _cuts(delta.ndim, axis)
    if lower:
        w = w[cut.inner]
    prod = np.multiply(w, delta[cut.tail])
    below = out[cut.head]
    below += prod
    np.multiply(w, delta[cut.head], out=prod)
    above = out[cut.tail]
    above += prod


def lrho_couplings(grid: GridSpec, coeff: CoefficientSet) -> list:
    """Couplings ``(w, axis, lower)`` of D (1/rho) G, negated.

    Per axis, ``w`` is -1/(rho h^2) across each face (see
    :func:`_add_neighbors`); wall faces carry no flux, so their entries,
    which feed only the diagonal, are zero.
    """
    out = []
    for a in range(grid.dim):
        w = (-1.0 / grid.h**2) / coeff.rho_face.components[a]
        if not grid.periodic(a):
            _zero_boundary(w, a)
        out.append((w, a, True))
    return out


def viscous_couplings(grid: GridSpec, coeff: CoefficientSet, a: int) -> list:
    """Couplings ``(w, axis, lower)`` of the axis-``a`` velocity in -L_mu.

    Divided by h^2.  The normal coefficient of the viscous form couples
    a-faces ``k`` and ``k + 1``; the ``(a, b)`` node/edge viscosity couples
    rows ``k - 1`` and ``k`` along each ``b != a``.  On a wall along ``b``
    that entry is the one-sided wall coupling, which reaches no neighbor and
    enters only the diagonal: doubled on no-slip walls (difference over
    h/2), dropped on free-slip walls (no tangential flux).
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
    out = [(normal, a, False)]
    for b in range(grid.dim):
        if b == a:
            continue
        w = inv_h2 * coeff.mu_node_edge.plane(a, b)
        if not grid.periodic(b):
            for end, bc in ((0, grid.bc[b][0]), (-1, grid.bc[b][1])):
                w[_sl(w.ndim, b, end)] *= 2.0 if bc is NO_SLIP else 0.0
        out.append((w, b, True))
    return out


def _coupling_diagonal(grid: GridSpec, diag: np.ndarray, couplings) -> np.ndarray:
    """Add each coupling's neighbor sums and wall entries to ``diag`` (the
    operator's shift), in place; each coupling is summed on its own first."""
    ones = np.ones_like(diag)
    for w, axis, lower in couplings:
        part = np.zeros_like(diag)
        _add_neighbors(part, ones, w, axis, grid.periodic(axis), lower)
        if lower and not grid.periodic(axis):
            for end in (0, -1):
                part[_sl(part.ndim, axis, end)] += w[_sl(w.ndim, axis, end)]
        diag += part
    return diag


def lrho_diagonal(grid: GridSpec, coeff: CoefficientSet) -> CellField:
    """Diagonal of D (1/rho) G, summed from :func:`lrho_couplings`."""
    return CellField(grid, _coupling_diagonal(
        grid, np.zeros(grid.cells), lrho_couplings(grid, coeff)))


def helmholtz_diagonal(grid: GridSpec, coeff: CoefficientSet) -> FaceField:
    """Diagonal of A = theta*rho - L_mu, summed from :func:`viscous_couplings`;
    boundary faces are set to one."""
    comps = []
    for a in range(grid.dim):
        diag = _coupling_diagonal(grid, coeff.theta * coeff.rho_face.components[a],
                                  viscous_couplings(grid, coeff, a))
        if not grid.periodic(a):
            diag[_sl(diag.ndim, a, [0, -1])] = 1.0
        comps.append(diag)
    return FaceField(grid, tuple(comps))


def _color(ndim: int, parity: int) -> tuple[tuple[slice, ...], ...]:
    """One Gauss-Seidel color: the strided sub-lattices ``[o0::2, o1::2, ...]``
    whose offset sum has the given parity (entries with that index-sum parity)."""
    return tuple(
        tuple(slice(o, None, 2) for o in offsets)
        for offsets in itertools.product((0, 1), repeat=ndim)
        if sum(offsets) % 2 == parity
    )


def _relax(x, res, diag, omega, parity, delta=None) -> None:
    """``x += omega * res / diag`` on one color, in place.  The correction
    is formed in ``delta`` when given (and kept there), else in ``res``,
    which it overwrites.  All arguments are views of the unknowns."""
    step = res if delta is None else delta
    for s in _color(x.ndim, parity):
        st, xs = step[s], x[s]
        np.divide(res[s], diag[s], out=st)
        if omega != 1.0:
            st *= omega
        xs += st


def _sweep(grid, x, res, interior, diag, couplings, omega) -> None:
    """One two-color Gauss-Seidel sweep of ``x[interior]``, in place.

    ``res`` is the full residual, formed once and owned by the sweep: after
    the red relaxation it is brought up to date at black entries from red's
    correction through the operator's negated off-diagonal ``couplings``
    (``res += c * delta``), and the black relaxation consumes it.
    """
    view, r, d = x[interior], res[interior], diag[interior]
    delta = np.zeros_like(res)
    _relax(view, r, d, omega, 0, delta[interior])
    for w, axis, lower in couplings:
        _add_neighbors(res, delta, w, axis, grid.periodic(axis), lower)
    _relax(view, r, d, omega, 1)


def smooth_cell(phi, rhs, grid, coeff, diag, omega, zero_guess=False) -> None:
    """The numpy red-black sweep on the pressure operator, in place."""
    if zero_guess:
        res = rhs.data.copy()
    else:
        res = apply_Lrho(phi, coeff).data
        np.subtract(rhs.data, res, out=res)
    _sweep(grid, phi.data, res, (slice(None),) * grid.dim, diag.data,
           lrho_couplings(grid, coeff), omega)


def smooth_face(u, rhs, grid, coeff, diag, omega, zero_guess=False) -> None:
    """The numpy 2d-colored sweep on the velocity operator, in place: one
    residual and one :func:`_sweep` per component, in axis order."""
    for a in range(grid.dim):
        if zero_guess and a == 0:
            res = rhs.components[a].copy()
        else:
            res = np.subtract(rhs.components[a], apply_A_row(u, coeff, a))
        _sweep(grid, u.components[a], res, grid.interior_slices(a),
               diag.components[a], viscous_couplings(grid, coeff, a), omega)


# ---------------------------------------------------------------------------
# the V-cycle as a recursion over the library's stand-alone entries
# ---------------------------------------------------------------------------


def vcycle(rhs, hierarchy, params, level=0):
    """The V-cycle that ``multigrid.vcycle`` runs in one library call, as a
    recursion over :mod:`kernels`' stand-alone sweep, residual and transfer
    entries, looked up at each call (tests replace them to watch the
    cycle).  Per level: zero x, ``sweeps_down`` sweeps (the first from x =
    0), the residual restricted to the coarser level's right-hand side, its
    V-cycle prolonged and added to every entry of x, ``sweeps_up`` sweeps;
    the coarsest level runs ``bottom_sweeps`` sweeps from x = 0."""
    coeff = hierarchy.levels[level]
    grid = coeff.grid
    if isinstance(rhs, CellField):
        x, diag = CellField.zeros(grid), hierarchy.diag_cell(level)
        smooth, residual = kernels.smooth_cell, kernels.apply_Lrho
        restrict, prolong = kernels.restrict_cell, kernels.prolong_cell
    else:
        x, diag = FaceField.zeros(grid), hierarchy.diag_face(level)
        smooth, residual = kernels.smooth_face, kernels.apply_A
        restrict, prolong = kernels.restrict_face, kernels.prolong_face

    def relax(sweeps, from_zero):
        # the zero-iterate flag goes by position, as tracing wrappers of the
        # smoothers read it
        for k in range(sweeps):
            smooth(x, rhs, grid, coeff, diag, params.omega, from_zero and k == 0)

    if level == len(hierarchy) - 1:
        relax(params.bottom_sweeps, True)
        return x
    relax(params.sweeps_down, True)
    correction = vcycle(restrict(residual(x, coeff, rhs=rhs)), hierarchy, params,
                        level + 1)
    for xa, ca in zip(field_arrays(x), field_arrays(prolong(correction)), strict=True):
        xa += ca
    relax(params.sweeps_up, False)
    return x


def field_arrays(field) -> tuple[np.ndarray, ...]:
    """The data arrays of a cell or face field."""
    return (field.data,) if isinstance(field, CellField) else field.components


# ---------------------------------------------------------------------------
# Kronecker assembly for periodic constant coefficients (independent algebra)
# ---------------------------------------------------------------------------


def _d1(n: int) -> sp.csr_matrix:
    """Circulant staggered difference u_{i+1} - u_i (face -> cell)."""
    rows, cols, vals = [], [], []
    for i in range(n):
        rows += [i, i]
        cols += [i, (i + 1) % n]
        vals += [-1.0, 1.0]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def kron_stress_matrix(n: int, h: float, mu0: float, dim: int = 2,
                       gamma0: float | None = None, form=STRESS) -> np.ndarray:
    """Dense -L_mu for periodic constant viscosity via Kronecker products.

    With ``gamma0`` set, builds the bulk-augmented stress operator instead;
    the Laplacian ``form`` is block-diagonal, without the cross blocks.
    """
    D = _d1(n) / h           # face -> cell along one axis
    G = -_d1(n).T / h        # cell -> face along one axis
    eye = sp.identity(n, format="csr")

    def lift(op, axis):
        mats = [eye] * dim
        mats[axis] = op
        out = mats[-1]
        for m in mats[-2::-1]:
            out = sp.kron(out, m, format="csr")
        return out

    # F-order flattening: first index fastest; kron(A_last, ..., A_first)
    Dx = [lift(D, a) for a in range(dim)]
    Gx = [lift(G, a) for a in range(dim)]

    blocks = [[None] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            if a == b:
                op = (1.0 if form is LAPLACIAN else 2.0) * (Gx[a] @ Dx[a])
                for c in range(dim):
                    if c != a:
                        op = op + Dx[c] @ Gx[c]
                blocks[a][b] = mu0 * op
            elif form is not LAPLACIAN:
                blocks[a][b] = mu0 * (Dx[b] @ Gx[a])
    if gamma0 is not None:
        for a in range(dim):
            for b in range(dim):
                blocks[a][b] = blocks[a][b] + (gamma0 - 2.0 / 3.0 * mu0) * (
                    Gx[a] @ Dx[b]
                )
    L = sp.bmat(blocks, format="csr")
    return (-L).toarray()


def staggered_symbol(k: np.ndarray, h: float) -> np.ndarray:
    """Purely imaginary symbols of the one-sided staggered differences."""
    return 2j * np.sin(np.asarray(k) * h / 2.0) / h


def stress_symbol_matrix(k, h, mu0, gamma0=None) -> np.ndarray:
    """Fourier symbol of the stress (optionally bulk) operator."""
    d = staggered_symbol(np.asarray(k, dtype=float), h)
    dim = len(d)
    L = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            if a == b:
                L[a, b] = mu0 * (2.0 * d[a] ** 2 + sum(d[c] ** 2 for c in range(dim) if c != a))
            else:
                L[a, b] = mu0 * d[a] * d[b]
    if gamma0 is not None:
        for a in range(dim):
            for b in range(dim):
                L[a, b] += (gamma0 - 2.0 / 3.0 * mu0) * d[a] * d[b]
    return L


# ---------------------------------------------------------------------------
# dense shift-and-LU inverse of a singular symmetric operator
# ---------------------------------------------------------------------------


def dense_shifted_solve(A: np.ndarray, null_vectors: list[np.ndarray],
                        b: np.ndarray) -> np.ndarray:
    """``(A + sigma sum_v v v^T)^{-1} b`` by dense LU, sigma = max|diag A|.

    The null vectors are orthonormal; the shift makes A invertible without
    changing its inverse on the complement of their span.
    """
    shifted = A.copy()
    sigma = np.abs(np.diag(A)).max()
    for v in null_vectors:
        shifted += sigma * np.outer(v, v)
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(shifted), b)


# ---------------------------------------------------------------------------
# Krylov reductions, summed in the library's documented order
# ---------------------------------------------------------------------------


#: entries per block of the library's reductions
RED_BLOCK = 4096


def krylov_dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` over blocks of ``RED_BLOCK`` entries: in each, product k
    into running sum k mod 4, each from 0.0 in increasing k, combined as
    (s0 + s1) + (s2 + s3); the block sums then added left to right from the
    first one's (+0.0 for no entries)."""
    a, b = a.tolist(), b.tolist()
    sums = []
    for start in range(0, len(a), RED_BLOCK):
        lanes = [0.0, 0.0, 0.0, 0.0]
        for k in range(start, min(start + RED_BLOCK, len(a))):
            lanes[k % 4] += a[k] * b[k]
        sums.append((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
    if not sums:
        return 0.0
    total = sums[0]
    for s in sums[1:]:
        total += s
    return total


def arnoldi(V: np.ndarray, j: int, w: np.ndarray):
    """One Arnoldi step on copies: ``(h, w, next)``, where for i = 0 ... j
    in turn ``h[i] = V[i] . w`` and ``w = w - h[i] V[i]`` entry by entry
    (``h[i] V[i]`` rounded first), ``h[j + 1] = w . w``, and ``next`` is
    ``w / sqrt(h[j + 1])`` when that is positive and finite, else None."""
    h, w = [], w.copy()
    for i in range(j + 1):
        h.append(krylov_dot(V[i], w))
        w = np.array([wk - h[i] * vk for vk, wk in zip(V[i].tolist(), w.tolist())])
    h.append(krylov_dot(w, w))
    following = None
    if 0.0 < h[-1] < math.inf:
        norm = math.sqrt(h[-1])
        following = np.array([wk / norm for wk in w.tolist()])
    return np.array(h), w, following


def combine(V: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x + sum_i y[i] V[i]``: per entry the products are added in order
    of i to 0.0, then the sum to x."""
    rows, weights, out = [row.tolist() for row in V], y.tolist(), []
    for k, xk in enumerate(x.tolist()):
        s = 0.0
        for yi, row in zip(weights, rows):
            s += yi * row[k]
        out.append(xk + s)
    return np.array(out)
