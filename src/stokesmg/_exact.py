"""Dense exact subsolvers for small grids.

Operators are assembled column-by-column with unit vectors and factorized
with LU; singular operators (pressure constants, periodic-steady velocity
constants) are shifted on their null space so the factorization stays exact
on the consistent subspace.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .grid import (
    CellField,
    FaceField,
    GridSpec,
    pack_cell,
    pack_face,
    unpack_cell,
    unpack_face,
)
from .operators import CoefficientSet, apply_A, apply_Lrho, velocity_null_components

MAX_DENSE_DOFS = 20_000


def probe_columns(op_vec, n: int) -> np.ndarray:
    """Matrix whose column j is ``op_vec(e_j)``."""
    cols = []
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        cols.append(op_vec(e))
        e[j] = 0.0
    return np.array(cols).T


def lrho_matrix(grid: GridSpec, coeff: CoefficientSet) -> np.ndarray:
    n = grid.n_cell_unknowns()
    if n > MAX_DENSE_DOFS:
        raise ValueError(f"{n} cells exceed dense cap {MAX_DENSE_DOFS}")
    return probe_columns(
        lambda v: pack_cell(apply_Lrho(unpack_cell(grid, v), coeff)), n
    )


def _null_shift(A: np.ndarray, null_vectors: list[np.ndarray]) -> np.ndarray:
    if not null_vectors:
        return A
    sigma = np.abs(np.diag(A)).max()
    A = A.copy()
    for v in null_vectors:
        A += sigma * np.outer(v, v)
    return A


def shifted_face_operator_matrix(grid: GridSpec, coeff: CoefficientSet) -> np.ndarray:
    """Dense A with each constant-velocity null component shifted out."""
    sizes = [grid.n_face_unknowns(a) for a in range(grid.dim)]
    nu = sum(sizes)
    if nu > MAX_DENSE_DOFS:
        raise ValueError(f"{nu} velocity unknowns exceed dense cap {MAX_DENSE_DOFS}")
    A = probe_columns(
        lambda v: pack_face(apply_A(unpack_face(grid, v), coeff)), nu
    )
    offsets = np.cumsum([0] + sizes)
    nulls = []
    for a in velocity_null_components(grid, coeff):
        v = np.zeros(nu)
        v[offsets[a] : offsets[a + 1]] = 1.0 / np.sqrt(sizes[a])
        nulls.append(v)
    return _null_shift(A, nulls)


class DenseFaceSolver:
    """Exact velocity subsolver (A^{-1}) on the unknown faces."""

    def __init__(self, grid: GridSpec, coeff: CoefficientSet):
        self.grid = grid
        self._lu = scipy.linalg.lu_factor(shifted_face_operator_matrix(grid, coeff))

    def solve(self, b: FaceField) -> FaceField:
        return unpack_face(self.grid, scipy.linalg.lu_solve(self._lu, pack_face(b)))


class DenseCellSolver:
    """Exact pressure Poisson subsolver (L_rho^{-1}) on the mean-zero space."""

    def __init__(self, grid: GridSpec, coeff: CoefficientSet):
        self.grid = grid
        L = lrho_matrix(grid, coeff)
        n = L.shape[0]
        ones = np.full(n, 1.0 / np.sqrt(n))
        self._lu = scipy.linalg.lu_factor(_null_shift(L, [ones]))

    def solve(self, b: CellField) -> CellField:
        return unpack_cell(self.grid, scipy.linalg.lu_solve(self._lu, pack_cell(b)))
