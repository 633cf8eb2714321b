"""Staggered (MAC) grid geometry, field containers, and field algebra.

Index conventions, fixed for the whole package:

* Cells are indexed ``(i, j[, k])`` with ``0 <= i < n_x`` etc.; cell
  ``(i, j)`` has its center at ``((i + 1/2) h, (j + 1/2) h)``.
* The axis-``a`` velocity component lives on ``a``-faces.  Face ``i`` along
  its own axis is the *low* face of cell ``i``.  Wall-bounded axes store
  ``n + 1`` entries (boundary faces included, which are not unknowns);
  periodic axes store ``n`` (face 0 sits between cells ``n - 1`` and ``0``).
* Node/edge arrays are staggered in two axes and cell-centered in the rest.
* Unknown DOFs flatten axis-major (first index fastest, Fortran order), so
  dense assembly and on-disk histories are bit-reproducible.
* A :class:`StokesVector` built by :meth:`StokesVector.zeros`,
  :meth:`~StokesVector.copy` or :meth:`~StokesVector.view` keeps its
  fields in one contiguous buffer, ``[u_0 | u_1 (| u_2) | p]``, each array
  in its own C order with its boundary faces; GMRES works on that buffer.
* Every field array is C-contiguous float64 from construction:
  :class:`CellField`, :class:`FaceField` and :class:`NodeEdgeField` store
  ``np.ascontiguousarray(x, dtype=np.float64)`` (the same object when ``x``
  already is one, a copy otherwise), which the compiled kernels read in
  place and refuse in any other form.  A field's arrays are fixed at
  construction (see :class:`_Fixed`); their values may change in place.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np


class BoundaryCondition(enum.Enum):
    PERIODIC = "periodic"
    NO_SLIP = "no_slip"
    FREE_SLIP = "free_slip"


PERIODIC = BoundaryCondition.PERIODIC
NO_SLIP = BoundaryCondition.NO_SLIP
FREE_SLIP = BoundaryCondition.FREE_SLIP


class LayoutError(ValueError):
    """Two fields do not live on the same grid/staggering."""


def require_real(name: str, value) -> None:
    """Refuse a real ``name`` that is a ``bool`` (an int to Python, but
    no real) or no real number at all, which would fail only at its first
    comparison."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular staggered grid.

    ``cells`` holds the per-axis cell counts (integers, never truncated),
    ``h`` the (shared) grid spacing (a real number, stored as a float) and
    ``bc`` one ``(low, high)`` pair of boundary conditions per axis, each
    stored as its member when given by value (``"no_slip"``).  Periodic
    conditions must match across an axis.  Solvers expect every count to be
    even and at least 4, so at least one multigrid coarsening exists; counts
    of 2 or 3 are legal only for internally generated coarse levels and tiny
    dense test grids.
    """

    cells: tuple[int, ...]
    h: float
    bc: tuple[tuple[BoundaryCondition, BoundaryCondition], ...]

    def __post_init__(self):
        try:
            cells = tuple(operator.index(n) for n in self.cells)
        except TypeError:
            raise ValueError(f"cell counts must be integers, got {self.cells!r}") from None
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "bc", tuple((BoundaryCondition(lo), BoundaryCondition(hi))
                                             for lo, hi in self.bc))
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if len(self.bc) != self.dim:
            raise ValueError("need one (low, high) bc pair per axis")
        if any(n < 2 for n in cells):
            raise ValueError(f"cell counts must be >= 2, got {cells}")
        require_real("grid spacing", self.h)
        try:
            h = float(self.h)
        except OverflowError:  # an integer beyond the float range
            h = math.inf
        # the stencils scale by 1/h^2, which must neither overflow nor vanish;
        # Python floats overflow to inf without a warning
        if not (h > 0 and 0 < h * h < math.inf and 1.0 / (h * h) < math.inf):
            raise ValueError(f"grid spacing {h!r}: h, h*h and 1/(h*h) must be "
                             "positive and finite")
        object.__setattr__(self, "h", h)
        for axis, (lo, hi) in enumerate(self.bc):
            if (lo is PERIODIC) != (hi is PERIODIC):
                raise ValueError(
                    f"axis {axis}: periodic on one side requires periodic on the other"
                )

    @property
    def dim(self) -> int:
        return len(self.cells)

    def periodic(self, axis: int) -> bool:
        return self.bc[axis][0] is PERIODIC

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(n * self.h for n in self.cells)

    def face_shape(self, axis: int) -> tuple[int, ...]:
        """Shape of the axis-``axis`` velocity component array."""
        shape = list(self.cells)
        if not self.periodic(axis):
            shape[axis] += 1
        return tuple(shape)

    def node_edge_shape(self, axes: tuple[int, int]) -> tuple[int, ...]:
        """Shape of the array staggered in both of ``axes`` (nodes/edges)."""
        shape = list(self.cells)
        for a in axes:
            if not self.periodic(a):
                shape[a] += 1
        return tuple(shape)

    def interior_slices(self, axis: int) -> tuple[slice, ...]:
        """Slices selecting the unknown entries of the axis-``axis`` component."""
        sl = [slice(None)] * self.dim
        if not self.periodic(axis):
            sl[axis] = slice(1, -1)
        return tuple(sl)

    def n_cell_unknowns(self) -> int:
        return int(np.prod(self.cells))

    def n_face_unknowns(self, axis: int) -> int:
        counts = list(self.cells)
        if not self.periodic(axis):
            counts[axis] -= 1
        return int(np.prod(counts))

    def n_unknowns(self) -> int:
        """Total unknown DOFs: all cells plus interior faces of each component."""
        return self.n_cell_unknowns() + sum(
            self.n_face_unknowns(a) for a in range(self.dim)
        )

    def can_coarsen(self) -> bool:
        return all(n % 2 == 0 and n >= 4 for n in self.cells)

    def coarsened(self) -> GridSpec:
        """The grid with every count halved and ``h`` doubled.  Built once
        and linked both ways (see :meth:`refined`), so the multigrid levels
        and the transfers between them share one object per grid."""
        coarse = self.__dict__.get("_coarse")
        if coarse is None:
            if not all(n % 2 == 0 for n in self.cells):
                raise ValueError(f"cannot halve odd cell counts {self.cells}")
            coarse = replace(self, cells=tuple(n // 2 for n in self.cells), h=2 * self.h)
            object.__setattr__(self, "_coarse", coarse)
            object.__setattr__(coarse, "_fine", self)
        return coarse

    def refined(self) -> GridSpec:
        """The grid this one was coarsened from: every count doubled and
        ``h`` halved, built once."""
        fine = self.__dict__.get("_fine")
        if fine is None:
            fine = GridSpec(tuple(2 * n for n in self.cells), self.h / 2, self.bc)
            object.__setattr__(fine, "_coarse", self)
            object.__setattr__(self, "_fine", fine)
        return fine

    def __getstate__(self):
        # a grid's value is its fields; the linked coarse and fine grids
        # are rebuilt on demand
        return {name: self.__dict__[name] for name in ("cells", "h", "bc")}

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """Meshgrid (ij indexing) of cell-center coordinates."""
        axes_1d = [(np.arange(n) + 0.5) * self.h for n in self.cells]
        return tuple(np.meshgrid(*axes_1d, indexing="ij"))


class _Fixed:
    """A field whose attributes are fixed at construction: rebinding one to
    another object raises, since the compiled kernels keep the addresses of
    a coefficient set's arrays.  Rebinding the same object, as augmented
    assignment after an in-place write (``f.data -= m``) does, is allowed.
    The constructors check their arrays and then store them into
    ``__dict__``, past this check."""

    def __setattr__(self, name, value):
        if name in self.__dict__ and self.__dict__[name] is not value:
            raise AttributeError(f"{type(self).__name__}.{name} is fixed at construction; "
                                 "write into its arrays instead")
        object.__setattr__(self, name, value)


@dataclass(init=False)
class CellField(_Fixed):
    """One scalar per cell."""

    grid: GridSpec
    data: np.ndarray

    def __init__(self, grid: GridSpec, data: np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.shape != grid.cells:
            raise LayoutError(
                f"cell data shape {data.shape} != grid cells {grid.cells}"
            )
        fields = self.__dict__
        fields["grid"], fields["data"] = grid, data

    @classmethod
    def zeros(cls, grid: GridSpec) -> CellField:
        return cls(grid, np.zeros(grid.cells))

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> CellField:
        return cls(grid, np.full(grid.cells, float(value)))

    def copy(self) -> CellField:
        return CellField(self.grid, self.data.copy())

    def __add__(self, other):
        _check_same_layout(self, other)
        return CellField(self.grid, self.data + other.data)

    def __sub__(self, other):
        _check_same_layout(self, other)
        return CellField(self.grid, self.data - other.data)

    def __mul__(self, a: float):
        return CellField(self.grid, self.data * a)

    __rmul__ = __mul__

    def __neg__(self):
        return CellField(self.grid, -self.data)


@dataclass(init=False)
class FaceField(_Fixed):
    """A velocity-like field: one array per axis, each on its own faces."""

    grid: GridSpec
    components: tuple[np.ndarray, ...]

    def __init__(self, grid: GridSpec, components: tuple[np.ndarray, ...]):
        comps = tuple(np.ascontiguousarray(c, dtype=np.float64) for c in components)
        if len(comps) != grid.dim:
            raise LayoutError("need one component per axis")
        for a, c in enumerate(comps):
            if c.shape != grid.face_shape(a):
                raise LayoutError(
                    f"component {a} shape {c.shape} != {grid.face_shape(a)}"
                )
        fields = self.__dict__
        fields["grid"], fields["components"] = grid, comps

    @classmethod
    def zeros(cls, grid: GridSpec) -> FaceField:
        return cls(grid, tuple(np.zeros(grid.face_shape(a)) for a in range(grid.dim)))

    def copy(self) -> FaceField:
        return FaceField(self.grid, tuple(c.copy() for c in self.components))

    def interior(self, axis: int) -> np.ndarray:
        """View of the unknown (non-boundary) entries of one component."""
        return self.components[axis][self.grid.interior_slices(axis)]

    def __add__(self, other):
        _check_same_layout(self, other)
        return FaceField(
            self.grid,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other):
        _check_same_layout(self, other)
        return FaceField(
            self.grid,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __mul__(self, a: float):
        return FaceField(self.grid, tuple(c * a for c in self.components))

    __rmul__ = __mul__

    def __neg__(self):
        return FaceField(self.grid, tuple(-c for c in self.components))


def edge_planes(dim: int) -> tuple[tuple[int, int], ...]:
    """Staggering-axis pairs of the node/edge arrays, sorted."""
    if dim == 2:
        return ((0, 1),)
    return ((0, 1), (0, 2), (1, 2))


@dataclass(init=False)
class NodeEdgeField(_Fixed):
    """Corner/edge coefficient storage.

    In 2D a single array on nodes; in 3D one array per edge orientation,
    keyed by the pair of axes in which the array is staggered (the ``(a, b)``
    array holds the edges running along the remaining axis).  ``arrays`` is
    a read-only mapping.
    """

    grid: GridSpec
    arrays: Mapping[tuple[int, int], np.ndarray]

    def __init__(self, grid: GridSpec, arrays: Mapping[tuple[int, int], np.ndarray]):
        want = edge_planes(grid.dim)
        if tuple(sorted(arrays)) != want:
            raise LayoutError(f"expected arrays keyed {want}, got {sorted(arrays)}")
        arrays = {axes: np.ascontiguousarray(arr, dtype=np.float64)
                  for axes, arr in arrays.items()}
        for axes, arr in arrays.items():
            if arr.shape != grid.node_edge_shape(axes):
                raise LayoutError(
                    f"{axes} array shape {arr.shape} != "
                    f"{grid.node_edge_shape(axes)}"
                )
        fields = self.__dict__
        fields["grid"], fields["arrays"] = grid, MappingProxyType(arrays)

    @classmethod
    def zeros(cls, grid: GridSpec) -> NodeEdgeField:
        return cls(
            grid,
            {axes: np.zeros(grid.node_edge_shape(axes)) for axes in edge_planes(grid.dim)},
        )

    def plane(self, a: int, b: int) -> np.ndarray:
        return self.arrays[tuple(sorted((a, b)))]

    def __reduce__(self):
        # a read-only mapping does not pickle; the constructor rebuilds one
        return NodeEdgeField, (self.grid, dict(self.arrays))

    def copy(self) -> NodeEdgeField:
        return NodeEdgeField(self.grid, {k: v.copy() for k, v in self.arrays.items()})


@dataclass
class StokesVector:
    """Paired velocity/pressure unknown (or right-hand side).

    ``buffer`` is the one array the fields view when the vector was built
    by :meth:`zeros`, :meth:`copy` or :meth:`view`, and None when it was
    built from separately stored fields.
    """

    u: FaceField
    p: CellField
    buffer: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        if self.u.grid != self.p.grid:
            raise LayoutError("u and p must share one GridSpec")

    @property
    def grid(self) -> GridSpec:
        return self.u.grid

    @staticmethod
    def buffer_size(grid: GridSpec) -> int:
        """Entries of a vector's buffer: every face of each velocity
        component, boundary faces included, and every cell."""
        return grid.n_cell_unknowns() + sum(
            math.prod(grid.face_shape(a)) for a in range(grid.dim))

    @classmethod
    def view(cls, grid: GridSpec, buffer: np.ndarray) -> StokesVector:
        """The vector whose fields view ``buffer`` (no copy), laid out
        ``[u_0 | u_1 (| u_2) | p]``, each array in C order."""
        if not (buffer.ndim == 1 and buffer.dtype == np.float64
                and buffer.flags.c_contiguous):
            raise LayoutError("a Stokes buffer must be 1-D contiguous float64")
        shapes = [grid.face_shape(a) for a in range(grid.dim)] + [grid.cells]
        arrays, pos = [], 0
        for shape in shapes:
            n = math.prod(shape)
            arrays.append(buffer[pos : pos + n].reshape(shape))
            pos += n
        if pos != len(buffer):
            raise LayoutError(f"buffer length {len(buffer)} != {pos} entries")
        out = cls(FaceField(grid, tuple(arrays[:-1])), CellField(grid, arrays[-1]))
        out.buffer = buffer
        return out

    @classmethod
    def zeros(cls, grid: GridSpec) -> StokesVector:
        return cls.view(grid, np.zeros(cls.buffer_size(grid)))

    def copy(self) -> StokesVector:
        """A copy in a fresh buffer."""
        out = StokesVector.view(self.grid, np.empty(self.buffer_size(self.grid)))
        for dst, src in zip(out.u.components, self.u.components):
            dst[...] = src
        out.p.data[...] = self.p.data
        return out

    def __add__(self, other):
        return StokesVector(self.u + other.u, self.p + other.p)

    def __sub__(self, other):
        return StokesVector(self.u - other.u, self.p - other.p)

    def __mul__(self, a: float):
        return StokesVector(self.u * a, self.p * a)

    __rmul__ = __mul__

    def __neg__(self):
        return StokesVector(-self.u, -self.p)


def _check_same_layout(a, b):
    if type(a) is not type(b):
        raise LayoutError(f"mixed field types {type(a).__name__}/{type(b).__name__}")
    ga = a.grid if not isinstance(a, StokesVector) else a.u.grid
    gb = b.grid if not isinstance(b, StokesVector) else b.u.grid
    if ga != gb:
        raise LayoutError("fields live on different grids")


def dot(a, b) -> float:
    """Euclidean inner product over unknown DOFs.

    Boundary-held Dirichlet faces are excluded, so only true unknowns
    contribute; symmetric and bilinear by construction.  Each array is
    summed by the library's dot product (:func:`kernels.sum_products`).
    """
    from .kernels import sum_products

    _check_same_layout(a, b)
    if isinstance(a, CellField):
        return sum_products(a.data, b.data)
    if isinstance(a, FaceField):
        total = 0.0
        for axis in range(a.grid.dim):
            total += sum_products(a.interior(axis), b.interior(axis))
        return total
    if isinstance(a, StokesVector):
        return dot(a.u, b.u) + dot(a.p, b.p)
    raise LayoutError(f"unsupported field type {type(a).__name__}")


def norm2(x) -> float:
    """Euclidean norm over unknown DOFs."""
    return float(np.sqrt(dot(x, x)))


# --- packing of unknown DOFs into flat vectors (dense assembly, GMRES) ----


def pack_cell(f: CellField) -> np.ndarray:
    return f.data.flatten(order="F")


def unpack_cell(grid: GridSpec, vec: np.ndarray) -> CellField:
    return CellField(grid, np.asarray(vec).reshape(grid.cells, order="F").copy())


def pack_face(f: FaceField) -> np.ndarray:
    return np.concatenate(
        [f.interior(a).ravel(order="F") for a in range(f.grid.dim)]
    )


def unpack_face(grid: GridSpec, vec: np.ndarray) -> FaceField:
    out = FaceField.zeros(grid)
    pos = 0
    for a in range(grid.dim):
        n = grid.n_face_unknowns(a)
        view = out.interior(a)
        view[...] = vec[pos : pos + n].reshape(view.shape, order="F")
        pos += n
    if pos != len(vec):
        raise LayoutError(f"vector length {len(vec)} != face unknowns {pos}")
    return out


def pack_stokes(x: StokesVector) -> np.ndarray:
    return np.concatenate([pack_face(x.u), pack_cell(x.p)])


def unpack_stokes(grid: GridSpec, vec: np.ndarray) -> StokesVector:
    nu = sum(grid.n_face_unknowns(a) for a in range(grid.dim))
    return StokesVector(unpack_face(grid, vec[:nu]), unpack_cell(grid, vec[nu:]))
