"""Exact subsolvers for small grids, by sparse LU.

The velocity operator A and the pressure Poisson operator L_rho are
recovered from their matrix-free implementations by grouped (coloured)
probing, one operator call per component and colour (Curtis, Powell and
Reid, J. Inst. Math. Appl. 13, 1974), and factorized with SuperLU.
Singular operators (pressure constants, periodic-steady velocity constants)
are bordered with their null vectors, so each solve applies
``(A + sigma V V^T)^{-1}``: the exact inverse on the consistent subspace and
a scaled identity on the null space.  scipy.sparse is imported on first
use: importing the package, or solving with multigrid subsolvers only,
does not load it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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


def require_exact_size(grid: GridSpec) -> None:
    """The one exact-subsolver cap: at most ``MAX_DENSE_DOFS`` Stokes
    unknowns (velocity plus pressure) on ``grid``, else ``ValueError``."""
    n = grid.n_unknowns()
    if n > MAX_DENSE_DOFS:
        raise ValueError(f"exact subsolvers capped at {MAX_DENSE_DOFS} DOFs, grid has {n}")


def probe_columns(op_vec, n: int) -> np.ndarray:
    """Dense matrix whose column j is ``op_vec(e_j)``."""
    cols = []
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        cols.append(op_vec(e))
        e[j] = 0.0
    return np.array(cols).T


def _axis_colours(m: int, periodic: bool) -> np.ndarray:
    """Colours ``k mod 3`` of the indices along one axis of length ``m``.

    Any three consecutive indices get distinct colours.  On a periodic axis
    that 3 does not divide, the last ``m mod 3`` indices get colours of
    their own so that this holds across the wrap; below 3 every index has
    its own colour.
    """
    k = np.arange(m)
    full = m - m % 3 if periodic else m
    return np.where(k < full, k % 3, k - full + min(full, 3))


def _column_along(p_len: int, colours: np.ndarray, periodic: bool, c: int) -> np.ndarray:
    """Per row index ``p < p_len``: the column index within ``p - 1 .. p + 1``
    of colour ``c`` along one axis, or -1 where there is none."""
    m = len(colours)
    p = np.arange(p_len)
    q = np.full(p_len, -1)
    for delta in (-1, 0, 1):
        t = (p + delta) % m if periodic else p + delta
        ok = (t >= 0) & (t < m)
        ok[ok] = colours[t[ok]] == c
        q[ok] = t[ok]
    return q


def probe_sparse(op_vec, grid: GridSpec, shapes: list[tuple[int, ...]]):
    """CSC matrix of a square operator on unknowns packed as ``shapes`` blocks.

    ``op_vec`` maps a packed vector to a packed vector; block ``b`` holds an
    array of shape ``shapes[b]`` in Fortran order on ``grid``'s axes.  Every
    stencil must reach only +-1 index on each axis, across blocks too.  One
    probe per block and colour tuple sets that block's entries of the
    colour to one, and each output row takes the unique window column of
    the colour.  Row r's image involves only its window, where the probe
    equals a unit vector, so the entries are bitwise those of
    :func:`probe_columns`.  A nonzero row with no window column of the
    probe's colour shows a stencil reaching further and raises
    ``RuntimeError``; a longer reach that lands on a window colour cannot
    be seen here.
    """
    import scipy.sparse

    offsets = np.cumsum([0] + [math.prod(s) for s in shapes])
    n = int(offsets[-1])
    rows, cols, vals = [], [], []
    for b, shape_b in enumerate(shapes):
        colours = [_axis_colours(m, grid.periodic(ax)) for ax, m in enumerate(shape_b)]
        strides = np.cumprod((1,) + shape_b[:-1])
        for c in np.ndindex(*(int(col.max()) + 1 for col in colours)):
            x = np.zeros(n)
            block = functools.reduce(np.multiply.outer,
                                     [col == ci for col, ci in zip(colours, c)])
            x[offsets[b]:offsets[b + 1]] = block.ravel(order="F")
            y = op_vec(x)
            for a, shape_a in enumerate(shapes):
                q = np.ix_(*(_column_along(p_len, colours[ax], grid.periodic(ax), c[ax])
                             for ax, p_len in enumerate(shape_a)))
                valid = functools.reduce(np.logical_and, [q_ax >= 0 for q_ax in q])
                col_index = offsets[b] + sum(s * q_ax for s, q_ax in zip(strides, q))
                nz = np.flatnonzero(y[offsets[a]:offsets[a + 1]])
                if not valid.ravel(order="F")[nz].all():
                    raise RuntimeError(
                        f"probe of block {b}, colour {c}: a nonzero row of block "
                        f"{a} has no column within +-1 index"
                    )
                rows.append(offsets[a] + nz)
                cols.append(col_index.ravel(order="F")[nz])
                vals.append(y[offsets[a] + nz])
    return scipy.sparse.csc_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


class _SparseSolver:
    """SuperLU of ``[[A, V], [V^T, 0]]``, V the constants of ``null_blocks``.

    ``A`` is the coloured probe of ``op_vec`` on ``shapes`` blocks, and each
    column of V is one block's normalized constant.  ``solve_packed``
    returns ``x + V V^T b / sigma`` with x the bordered solution and sigma =
    max|diag A|, which is ``(A + sigma V V^T)^{-1} b`` for symmetric A with
    null space V, whether or not b is consistent.
    """

    def __init__(self, op_vec, grid: GridSpec, shapes: list[tuple[int, ...]],
                 null_blocks: tuple[int, ...]):
        import scipy.sparse.linalg

        sizes = [math.prod(s) for s in shapes]
        n = sum(sizes)
        A = probe_sparse(op_vec, grid, shapes)
        offsets = np.cumsum([0] + sizes)
        self._nulls = np.zeros((n, len(null_blocks)))
        for j, b in enumerate(null_blocks):
            self._nulls[offsets[b]:offsets[b + 1], j] = 1.0 / np.sqrt(sizes[b])
        self._sigma = float(np.abs(A.diagonal()).max())
        if null_blocks:
            V = scipy.sparse.csc_array(self._nulls)
            A = scipy.sparse.block_array([[A, V], [V.T, None]], format="csc")
        # A and its border are structurally symmetric: minimum degree on
        # A^T + A fills in less than the default column ordering
        self._lu = scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A")

    def solve_packed(self, b: np.ndarray) -> np.ndarray:
        """Solve for a packed vector, or for each column of a 2-D array."""
        n, k = self._nulls.shape
        rhs = np.zeros((n + k,) + b.shape[1:])
        rhs[:n] = b
        coef = self._nulls.T @ b / self._sigma
        return self._lu.solve(rhs)[:n] + self._nulls @ coef


class DenseFaceSolver(_SparseSolver):
    """Exact velocity subsolver (A^{-1}) on the unknown faces.

    The constant-velocity null components of
    :func:`stokesmg.operators.velocity_null_components` are bordered.
    """

    def __init__(self, grid: GridSpec, coeff: CoefficientSet):
        require_exact_size(grid)
        self.grid = grid
        u = FaceField.zeros(grid)
        super().__init__(
            lambda v: pack_face(apply_A(unpack_face(grid, v), coeff)),
            grid, [u.interior(a).shape for a in range(grid.dim)],
            velocity_null_components(grid, coeff),
        )

    def solve(self, b: FaceField) -> FaceField:
        return unpack_face(self.grid, self.solve_packed(pack_face(b)))


class DenseCellSolver(_SparseSolver):
    """Exact pressure Poisson subsolver (L_rho^{-1}) on the mean-zero space."""

    def __init__(self, grid: GridSpec, coeff: CoefficientSet):
        require_exact_size(grid)
        self.grid = grid
        super().__init__(
            lambda v: pack_cell(apply_Lrho(unpack_cell(grid, v), coeff)),
            grid, [grid.cells], (0,),
        )

    def solve(self, b: CellField) -> CellField:
        return unpack_cell(self.grid, self.solve_packed(pack_cell(b)))
