"""The stencil functions and the compiled library that runs them.

Every stencil of the package is one function here: the operators
:func:`div`, :func:`grad`, :func:`apply_Lrho`, :func:`apply_viscous`,
:func:`apply_A` (also the V-cycle's residual) and :func:`apply_M` (also
GMRES's true residual, ``rhs - M x``, in one buffer), the smoother
diagonals :func:`lrho_diagonal` and :func:`helmholtz_diagonal`, the
smoother sweeps :func:`smooth_cell` and :func:`smooth_face`, and the grid
transfers :func:`restrict_cell`, :func:`restrict_face`,
:func:`prolong_cell` and :func:`prolong_face`.  Each checks its arrays,
passes their addresses to one call of one entry of ``sweeps.c`` and
returns the field (the sweeps relax in place; the face sweep relaxes every
velocity component).  A field's components and the node/edge planes go as
one array of per-axis pointers.  :mod:`operators` and :mod:`multigrid`
import them; the package has no other copy of the stencils or of their
coupling weights and wall rules.

The Krylov reductions are here too: :func:`sum_products` (every inner
product and norm of the package), :func:`mgs_step` (one modified
Gram-Schmidt step fused with the next step's dot product) and
:func:`combine` (a GMRES iterate from its basis).  Each sums in one
documented order that depends on the vector length alone, never through
BLAS.

:func:`vcycle`, the operators and :func:`combine` run on the library's
team of threads on grids of at least ``smg_team_min_entries`` entries:
:func:`team_size` threads per process (one process of ``workers``), set
at :func:`load` and by :func:`set_threads`.  Every result is bitwise the
same at any team size.

The library is built on first use with the system C compiler (``cc``) at
``-O2 -ffp-contract=off`` (no fused multiply-add, no fast-math, no
host-specific code), so every entry rounds exactly as the numpy
formulation in ``tests/reference.py`` does.  It is kept in the user cache
directory, ``$XDG_CACHE_HOME/stokesmg`` or ``~/.cache/stokesmg``, under a
name keyed by a hash of the source, the flags and the compiler version; a
build is written to a temporary file and renamed into place, so concurrent
builders never load a partial file.  When that directory cannot be written
the library is built in a per-process temporary directory instead.  Each
process loads the library once; :func:`load` before forking workers shares
it with them.

There is no numpy fallback: without a working compiler :func:`load` raises
:class:`KernelBuildError`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import weakref
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .grid import (
    FREE_SLIP,
    NO_SLIP,
    CellField,
    FaceField,
    GridSpec,
    LayoutError,
    StokesVector,
    edge_planes,
)

if TYPE_CHECKING:
    from .operators import BoundaryValues, CoefficientSet

COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweeps.c")
#: marks the key compiled into a library, checked before it is loaded
KEY_TAG = b"stokesmg-sweeps-key:"

#: sweeps.c's codes of the viscous forms, by ``ViscousForm`` value
_FORMS = {"laplacian": 0, "stress": 1, "stress_bulk": 2}
_BC = {NO_SLIP: 1, FREE_SLIP: 2}

_library = None


class KernelBuildError(RuntimeError):
    """The stencil library could not be built: no compiler, or it failed."""


class _Grid3(ctypes.Structure):
    """``grid3`` of sweeps.c: a 2D grid leads with one dummy cell."""

    _fields_ = [
        ("n", ctypes.c_long * 3),
        ("lo", ctypes.c_int * 3),
        ("hi", ctypes.c_int * 3),
        ("first", ctypes.c_int),
        ("h", ctypes.c_double),
        ("inv_h2", ctypes.c_double),
        ("neg_inv_h2", ctypes.c_double),
    ]


def cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "stokesmg")


def _compiler_version(compiler: str) -> str:
    try:
        done = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True, check=False)
    except OSError as exc:
        raise KernelBuildError(
            f"no C compiler: '{compiler} --version' failed ({exc}); the "
            "operators, transfers and smoothers need one to build sweeps.c") from None
    if done.returncode != 0:
        raise KernelBuildError(
            f"'{compiler} --version' exited {done.returncode}: "
            f"{done.stderr.strip()!r}")
    return done.stdout


def library_key() -> str:
    """Hash of the source, the flags and the compiler version."""
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise KernelBuildError(
            f"no C compiler: '{COMPILER}' is not on PATH; the operators, "
            "transfers and smoothers need one to build sweeps.c")
    digest = hashlib.sha256()
    with open(SOURCE, "rb") as handle:
        digest.update(handle.read())
    digest.update("\0".join(FLAGS).encode())
    digest.update(_compiler_version(compiler).encode())
    return digest.hexdigest()[:24]


def _holds_key(path: str, key: str) -> bool:
    try:
        with open(path, "rb") as handle:
            return KEY_TAG + key.encode() in handle.read()
    except OSError:
        return False


def _compile(key: str, directory: str) -> str:
    """Build into ``directory`` by temporary file and rename; the path."""
    target = os.path.join(directory, f"sweeps-{key}.so")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
    os.close(fd)
    cmd = [COMPILER, *FLAGS, f'-DSMG_KEY="{KEY_TAG.decode()}{key}"',
           SOURCE, "-o", tmp]
    try:
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        except OSError as exc:
            raise KernelBuildError(f"'{' '.join(cmd)}' did not run: {exc}") from None
        if done.returncode != 0:
            raise KernelBuildError(
                f"'{' '.join(cmd)}' exited {done.returncode}: "
                f"{done.stderr.strip()!r}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


_ptr, _dbl, _int, _long = ctypes.c_void_p, ctypes.c_double, ctypes.c_int, ctypes.c_long
_Axes = ctypes.c_void_p * 3


class _Level(ctypes.Structure):
    """``smg_level`` of sweeps.c: one level of a V-cycle plan."""

    _fields_ = [("g", _Grid3), ("diag", _Axes), ("mu", _ptr), ("gamma", _ptr),
                ("rho", _Axes), ("ne", _Axes)]


_ptrs, _grid, _plan = (ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(_Grid3),
                       ctypes.POINTER(_Level))

#: result and argument types of each entry of sweeps.c
SIGNATURES = {
    "smg_face_sweep": (_int, [_grid, _int, _dbl, _dbl, _int, _ptrs, _ptrs, _ptrs,
                              _ptr, _ptr, _ptrs, _ptrs]),
    "smg_cell_sweep": (_int, [_grid, _dbl, _int, _ptr, _ptr, _ptr, _ptrs]),
    "smg_face_apply": (_int, [_grid, _int, _dbl, _int, _ptrs, _ptr, _ptrs, _ptr, _ptr,
                              _ptr, _ptrs, _ptrs, _ptrs, _ptrs, _ptr]),
    "smg_cell_apply": (_int, [_grid, _ptr, _ptr, _ptrs, _ptr]),
    "smg_face_diag": (None, [_grid, _int, _dbl, _ptr, _ptr, _ptrs, _ptrs, _ptrs]),
    "smg_cell_diag": (None, [_grid, _ptrs, _ptr]),
    "smg_grad": (None, [_grid, _ptr, _ptrs]),
    "smg_div": (None, [_grid, _ptrs, _ptr]),
    "smg_restrict_cell": (_int, [_grid, _ptr, _ptr]),
    "smg_restrict_face": (_int, [_grid, _ptrs, _ptrs]),
    "smg_prolong_cell": (_int, [_grid, _ptr, _ptr]),
    "smg_prolong_face": (_int, [_grid, _ptrs, _ptrs]),
    "smg_face_vcycle": (_int, [_long, _plan, _int, _dbl, _dbl, _int, _int, _int, _ptrs,
                               _ptrs]),
    "smg_cell_vcycle": (_int, [_long, _plan, _dbl, _int, _int, _int, _ptr, _ptr]),
    "smg_dot": (_dbl, [_long, _ptr, _ptr]),
    "smg_mgs_step": (_dbl, [_long, _dbl, _ptr, _ptr, _ptr]),
    "smg_combine": (None, [_long, _long, _ptr, _ptr, _ptr, _ptr]),
    "smg_set_threads": (None, [_int]),
}


def _bind(path: str):
    lib = ctypes.CDLL(path)
    for name, (restype, argtypes) in SIGNATURES.items():
        entry = getattr(lib, name)
        entry.restype, entry.argtypes = restype, argtypes
    return lib


def team_size(workers: int = 1) -> int:
    """Threads per library call for a process that is one of ``workers``
    running at once: the cores this process may run on, shared out."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this system
        cores = os.cpu_count() or 1
    return max(1, cores // workers)


def set_threads(n: int) -> None:
    """Run each parallel library call on ``n`` threads from now on (1: on
    the calling thread alone).  Outputs do not depend on ``n``."""
    (_library or load()).smg_set_threads(n)


def load():
    """The loaded stencil library, built first if the cache lacks it, with
    its calls set to :func:`team_size` threads.

    A cold build takes about a second; a cached load takes a few
    milliseconds, most of them the compiler version check of the key.
    """
    if _library is not None:
        return _library
    key = library_key()
    directory = cache_dir()
    path = os.path.join(directory, f"sweeps-{key}.so")
    if not _holds_key(path, key):
        try:
            os.makedirs(directory, exist_ok=True)
            path = _compile(key, directory)
        except OSError:
            # the cache cannot be written: build for this process only
            private = tempfile.mkdtemp(prefix="stokesmg-")
            try:
                lib = _bind(_compile(key, private))
            finally:
                shutil.rmtree(private, ignore_errors=True)
            return _ready(lib)
    return _ready(_bind(path))


def _ready(lib):
    global _library
    lib.smg_set_threads(team_size())
    _library = lib
    return lib


class _Layout(NamedTuple):
    """A grid as the kernels see it: its C description and the shape of
    each array they read, with the 3D (dummy-led) plane slots of sweeps.c."""

    grid3: _Grid3
    lead: int
    cells: tuple
    faces: tuple
    planes: tuple  # per slot (0, 1), (0, 2), (1, 2): (plane key, shape) or None


def _layout(grid: GridSpec) -> _Layout:
    lead = 3 - grid.dim
    g = _Grid3()
    g.first = lead
    for ax in range(3):
        n, lo, hi = 1, 0, 0
        if ax >= lead:
            n = grid.cells[ax - lead]
            lo, hi = (_BC.get(bc, 0) for bc in grid.bc[ax - lead])
        g.n[ax], g.lo[ax], g.hi[ax] = n, lo, hi
    g.h = grid.h
    g.inv_h2 = 1.0 / grid.h**2
    g.neg_inv_h2 = -1.0 / grid.h**2
    planes = []
    for x, y in ((0, 1), (0, 2), (1, 2)):
        key = (x - lead, y - lead)
        planes.append((key, grid.node_edge_shape(key)) if key in edge_planes(grid.dim)
                      else None)
    return _Layout(g, lead, grid.cells,
                   tuple(grid.face_shape(a) for a in range(grid.dim)), tuple(planes))


#: id(obj) -> (weak reference to obj, value) of the objects kernels read
_memo: dict[int, tuple] = {}


def _remember(obj, make):
    """``make(obj)``, computed once while ``obj`` lives.

    A grid description or an array's data address costs microseconds to
    build, as much as a whole sweep on a coarse level, and callers pass the
    same grids and coefficients again and again.
    """
    key = id(obj)
    hit = _memo.get(key)
    if hit is not None and hit[0]() is obj:
        return hit[1]
    value = make(obj)
    _memo[key] = (weakref.ref(obj, lambda _, k=key: _memo.pop(k, None)), value)
    return value


def _data(arr: np.ndarray) -> int:
    return arr.ctypes.data


_F64 = np.dtype(np.float64)


def _address(arr: np.ndarray, shape: tuple, iterate=False) -> int:
    """Data address of ``arr`` once its shape, type and C order are checked.
    Fields hold C-contiguous arrays from construction, so a strided one was
    put there around the constructor and is refused, never copied; the
    iterate is written in place, so it must also be writable."""
    if arr.shape != shape or arr.dtype is not _F64 or not arr.flags.c_contiguous:
        raise LayoutError(f"kernel array of shape {arr.shape} and type {arr.dtype}, "
                          f"expected {shape} float64 in C order")
    if iterate and not arr.flags.writeable:
        raise LayoutError("smoother iterate must be writable")
    return _remember(arr, _data)


def _check(status: int) -> None:
    if status != 0:
        raise MemoryError("kernel workspace allocation failed")


def _start(grid: GridSpec):
    """The library and ``grid``'s layout."""
    return _library or load(), _remember(grid, _layout)


#: ``OUT_*`` of sweeps.c, what ``smg_face_apply`` gives: ``A u``, the
#: residual ``base - A u``, the saddle operator ``(A u + G p, -D u)`` and
#: its residual
_OPERATOR, _RESIDUAL, _SADDLE, _SADDLE_RESIDUAL = range(4)


def _output(shape: tuple) -> tuple[np.ndarray, int]:
    arr = np.empty(shape)
    return arr, _remember(arr, _data)


def _per_axis(lay: _Layout, addresses) -> _Axes:
    """One pointer per 3D axis, NULL on a 2D grid's leading one."""
    return _Axes(*[None] * lay.lead, *addresses)


def _faces(lay: _Layout, arrays, iterate=False) -> _Axes:
    return _per_axis(lay, [_address(c, s, iterate)
                           for c, s in zip(arrays, lay.faces)])


def _outputs(lay: _Layout, shapes) -> tuple[tuple, _Axes]:
    pairs = [_output(s) for s in shapes]
    return tuple(arr for arr, _ in pairs), _per_axis(lay, [addr for _, addr in pairs])


def _viscosity(lay: _Layout, coeff) -> tuple:
    """``mu``, ``gamma``, ``rho`` per face axis and the node/edge planes per
    3D plane slot (NULL: no plane), as the velocity operator, its diagonal
    and its sweep read them."""
    planes = coeff.mu_node_edge.arrays
    return (_address(coeff.mu_cell.data, lay.cells),
            _address(coeff.gamma_cell.data, lay.cells),
            _faces(lay, coeff.rho_face.components),
            _Axes(*[slot and _address(planes[slot[0]], slot[1]) for slot in lay.planes]))


def _walls(bvals, lay: _Layout):
    """Pointers to the tangential wall velocities the operator reads, at
    ``(3 a + b) 2 + side`` in 3D axes; missing ones stay NULL (zero).  Wall
    values are not fields: each is read from a C-contiguous copy that the
    returned array's ``values`` keeps alive."""
    grid = bvals.grid
    walls = (ctypes.c_void_p * 18)()
    walls.values = []
    for a in range(grid.dim):
        for b in range(grid.dim):
            for side in (0, 1):
                if b != a and not grid.periodic(b) and (b, side, a) in bvals.tangential:
                    vals = np.ascontiguousarray(bvals.tangential_values(b, side, a))
                    walls.values.append(vals)
                    slot = (3 * (a + lay.lead) + b + lay.lead) * 2 + side
                    walls[slot] = _address(vals, vals.shape)
    return walls


# ---------------------------------------------------------------------------
# divergence, gradient and the pressure operator
# ---------------------------------------------------------------------------


def div(u: FaceField) -> CellField:
    """Cell-centered divergence; reads stored boundary faces."""
    lib, lay = _start(u.grid)
    out, addr = _output(lay.cells)
    lib.smg_div(lay.grid3, _faces(lay, u.components), addr)
    return CellField(u.grid, out)


def grad(p: CellField) -> FaceField:
    """Face-centered pressure gradient; wall-normal faces are zero."""
    lib, lay = _start(p.grid)
    out, ptrs = _outputs(lay, lay.faces)
    lib.smg_grad(lay.grid3, _address(p.data, lay.cells), ptrs)
    return FaceField(p.grid, out)


def apply_Lrho(p: CellField, coeff: CoefficientSet,
               rhs: CellField | None = None) -> CellField:
    """Density-weighted pressure Poisson operator D (1/rho) G, summed from
    unscaled differences and scaled once by 1/h^2; with ``rhs``, the
    residual ``rhs - D (1/rho) G p`` instead, in the same pass."""
    lib, lay = _start(p.grid)
    out, addr = _output(lay.cells)
    _check(lib.smg_cell_apply(
        lay.grid3, _address(p.data, lay.cells), rhs and _address(rhs.data, lay.cells),
        _faces(lay, coeff.rho_face.components), addr))
    return CellField(p.grid, out)


def lrho_diagonal(grid: GridSpec, coeff: CoefficientSet) -> CellField:
    """Diagonal of D (1/rho) G, which the pressure smoother divides by: each
    cell sums -1/(rho h^2) over its faces, a wall face adding nothing."""
    lib, lay = _start(grid)
    out, addr = _output(lay.cells)
    lib.smg_cell_diag(lay.grid3, _faces(lay, coeff.rho_face.components), addr)
    return CellField(grid, out)


# ---------------------------------------------------------------------------
# velocity operators
# ---------------------------------------------------------------------------


def apply_viscous(u: FaceField, coeff: CoefficientSet,
                  bvals: BoundaryValues | None = None) -> FaceField:
    """Discrete viscous term in the requested form.

    Laplacian: component-wise div(mu grad u_a).  Stress: the strain-tensor
    form with node/edge viscosities on the cross fluxes.  StressBulk adds
    the (gamma - 2/3 mu)(div u) isotropic flux.  Tangential momentum flux is
    zero on free-slip walls; stencils reaching outside the domain use
    one-sided differences against the wall values (distance h/2, hence a
    factor two).  Unscaled fluxes are summed and each row is multiplied by
    1/h^2 once, which for a power-of-two h rounds exactly like dividing
    each difference by h.
    """
    lib, lay = _start(u.grid)
    out, ptrs = _outputs(lay, lay.faces)
    # L_mu u is -(A u) at theta = 0, boundary faces included; negation is exact
    _check(lib.smg_face_apply(
        lay.grid3, _FORMS[coeff.viscous_form.value], 0.0, _OPERATOR,
        _faces(lay, u.components), None, None, None,
        *_viscosity(lay, coeff), bvals and _walls(bvals, lay), ptrs, None))
    for c in out:
        np.negative(c, out=c)
    return FaceField(u.grid, out)


def apply_A(u: FaceField, coeff: CoefficientSet,
            bvals: BoundaryValues | None = None,
            rhs: FaceField | None = None) -> FaceField:
    """Velocity operator theta*rho*u - L_mu u on the unknown faces (steady
    flow forms no mass term: -L_mu u); with ``rhs``, the residual
    ``rhs - A u`` instead, in the same pass, whose boundary faces carry
    ``rhs``."""
    lib, lay = _start(u.grid)
    out, ptrs = _outputs(lay, lay.faces)
    _check(lib.smg_face_apply(
        lay.grid3, _FORMS[coeff.viscous_form.value], coeff.theta,
        _OPERATOR if rhs is None else _RESIDUAL, _faces(lay, u.components),
        None, rhs and _faces(lay, rhs.components), None,
        *_viscosity(lay, coeff), bvals and _walls(bvals, lay), ptrs, None))
    return FaceField(u.grid, out)


def apply_M(x: StokesVector, coeff: CoefficientSet,
            rhs: StokesVector | None = None) -> StokesVector:
    """Saddle operator (A u + G p, -D u); with ``rhs``, the residual
    ``rhs - M x`` instead, in the same pass, whose boundary faces hold +0
    (they are not unknowns; ``rhs``'s are not read).  The result's fields
    view one fresh buffer."""
    grid = x.grid
    lib, lay = _start(grid)
    out = StokesVector.view(grid, np.empty(StokesVector.buffer_size(grid)))
    _check(lib.smg_face_apply(
        lay.grid3, _FORMS[coeff.viscous_form.value], coeff.theta,
        _SADDLE if rhs is None else _SADDLE_RESIDUAL,
        _faces(lay, x.u.components), _address(x.p.data, lay.cells),
        rhs and _faces(lay, rhs.u.components), rhs and _address(rhs.p.data, lay.cells),
        *_viscosity(lay, coeff), None, _faces(lay, out.u.components),
        _address(out.p.data, lay.cells)))
    return out


def helmholtz_diagonal(grid: GridSpec, coeff: CoefficientSet) -> FaceField:
    """Diagonal of A, which the velocity smoother divides by; boundary faces
    are set to one."""
    lib, lay = _start(grid)
    out, ptrs = _outputs(lay, lay.faces)
    lib.smg_face_diag(lay.grid3, _FORMS[coeff.viscous_form.value], coeff.theta,
                      *_viscosity(lay, coeff), ptrs)
    return FaceField(grid, out)


# ---------------------------------------------------------------------------
# smoothers
# ---------------------------------------------------------------------------


def smooth_cell(phi: CellField, rhs: CellField, grid: GridSpec,
                coeff: CoefficientSet, diag: CellField, omega: float,
                zero_guess: bool = False) -> None:
    """One red-black Gauss-Seidel sweep on the pressure operator, in place.

    ``zero_guess`` promises that ``phi`` is zero, so the residual is ``rhs``
    and the operator is not applied.  With finite coefficients the operator
    maps zero to exactly +0 and ``r - (+0)`` is ``r``, so the result is
    bitwise the same.
    """
    lib, lay = _start(grid)
    _check(lib.smg_cell_sweep(
        lay.grid3, omega, zero_guess, _address(phi.data, lay.cells, True),
        _address(rhs.data, lay.cells), _address(diag.data, lay.cells),
        _faces(lay, coeff.rho_face.components)))


def smooth_face(u: FaceField, rhs: FaceField, grid: GridSpec,
                coeff: CoefficientSet, diag: FaceField, omega: float,
                zero_guess: bool = False) -> None:
    """One 2d-colored Gauss-Seidel sweep on the velocity operator, in place.

    Colors are relaxed in the order red-x, black-x, red-y, black-y(,
    red-z, black-z); updates are visible across colors.  Each component is
    relaxed from its own residual.  ``zero_guess`` promises that ``u`` is
    zero, so the first component's residual is ``rhs`` and its operator row
    is not applied; later components see the first one's update and apply
    theirs.  The result is bitwise the same (see :func:`smooth_cell`).
    """
    lib, lay = _start(grid)
    _check(lib.smg_face_sweep(
        lay.grid3, _FORMS[coeff.viscous_form.value], coeff.theta, omega, zero_guess,
        _faces(lay, u.components, True), _faces(lay, rhs.components),
        _faces(lay, diag.components), *_viscosity(lay, coeff)))


# ---------------------------------------------------------------------------
# grid transfers
# ---------------------------------------------------------------------------


def restrict_cell(fine: CellField) -> CellField:
    """Simple averaging of the 2^d fine children."""
    coarse = fine.grid.coarsened()
    lib, lay = _start(fine.grid)
    out, addr = _output(coarse.cells)
    _check(lib.smg_restrict_cell(lay.grid3, _address(fine.data, lay.cells), addr))
    return CellField(coarse, out)


def prolong_cell(coarse: CellField) -> CellField:
    """Direct injection of each coarse value into its 2^d children."""
    fine = coarse.grid.refined()
    lib, lay = _start(coarse.grid)
    out, addr = _output(fine.cells)
    _check(lib.smg_prolong_cell(lay.grid3, _address(coarse.data, lay.cells), addr))
    return CellField(fine, out)


def restrict_face(fine: FaceField) -> FaceField:
    """Staggered 6-point (2D) / 12-point (3D) restriction.

    Tangential directions average the two overlaying rows; the normal
    direction applies the 1/4, 1/2, 1/4 stencil.  Boundary faces of the
    coarse result stay zero (they are not unknowns).
    """
    coarse = fine.grid.coarsened()
    lib, lay = _start(fine.grid)
    out, ptrs = _outputs(lay, [coarse.face_shape(a) for a in range(coarse.dim)])
    _check(lib.smg_restrict_face(lay.grid3, _faces(lay, fine.components), ptrs))
    return FaceField(coarse, out)


def prolong_face(coarse: FaceField) -> FaceField:
    """Staggered prolongation: linear where fine faces overlay coarse ones,
    bilinear (trilinear normal+tangential products in 3D) elsewhere.

    Tangential (cell-centered) axes interpolate 3/4-1/4, clamping wall rows
    to the nearest interior row so every weight row still sums to one
    (constants prolong to constants); along the normal axis overlaying
    faces copy and the faces between average.
    """
    fine = coarse.grid.refined()
    lib, lay = _start(coarse.grid)
    out, ptrs = _outputs(lay, [fine.face_shape(a) for a in range(fine.dim)])
    _check(lib.smg_prolong_face(lay.grid3, _faces(lay, coarse.components), ptrs))
    return FaceField(fine, out)


# ---------------------------------------------------------------------------
# V-cycles
# ---------------------------------------------------------------------------


def vcycle_plan(levels, diagonals) -> ctypes.Array:
    """Per ``(grid, coefficients)`` level, finest first, the grid and the
    addresses of the coefficients and of its diagonal.  The plan keeps
    those arrays alive, should a field be given another array later."""
    plan = (_Level * len(levels))()
    plan.arrays = []
    for level, (grid, coeff), diag in zip(plan, levels, diagonals, strict=True):
        lay = _remember(grid, _layout)
        face = isinstance(diag, FaceField)
        level.g = lay.grid3
        level.diag = (_faces(lay, diag.components) if face
                      else _Axes(_address(diag.data, lay.cells)))
        level.mu, level.gamma, level.rho, level.ne = _viscosity(lay, coeff)
        plan.arrays += [coeff.mu_cell.data, coeff.gamma_cell.data,
                        *coeff.rho_face.components, *coeff.mu_node_edge.arrays.values(),
                        *(diag.components if face else [diag.data])]
    return plan


def vcycle(rhs, grid: GridSpec, coeff: CoefficientSet, plan: ctypes.Array, params):
    """One V-cycle from zero on the finest ``grid`` of a plan with ``rhs``'s
    kind of diagonals, in one library call: bitwise the recursion over the
    sweeps, residuals and transfers here in ``tests/reference.py``."""
    lib, lay = _start(grid)
    counts = (params.omega, params.sweeps_down, params.sweeps_up, params.bottom_sweeps)
    if isinstance(rhs, CellField):
        x = CellField.zeros(grid)
        _check(lib.smg_cell_vcycle(len(plan), plan, *counts, _address(rhs.data, lay.cells),
                                   _address(x.data, lay.cells, True)))
    else:
        x = FaceField.zeros(grid)
        _check(lib.smg_face_vcycle(len(plan), plan, _FORMS[coeff.viscous_form.value],
                                   coeff.theta, *counts, _faces(lay, rhs.components),
                                   _faces(lay, x.components, True)))
    return x


# ---------------------------------------------------------------------------
# Krylov reductions
# ---------------------------------------------------------------------------


def _row(arr: np.ndarray) -> np.ndarray:
    """``arr`` as one C-order row of float64; a strided view is copied."""
    return np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)


def sum_products(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of ``a * b`` over all entries, in C order, by the library's dot
    product: entry k's product is added to running partial sum k mod 4
    (each starting at 0.0), and the four combine as ``(s0 + s1) + (s2 +
    s3)``.  No BLAS call, so the result does not depend on the BLAS thread
    count, and the order depends on the length alone."""
    a, b = _row(a), _row(b)
    if a.size != b.size:
        raise LayoutError(f"dot of {a.size} and {b.size} entries")
    return (_library or load()).smg_dot(a.size, a.ctypes.data, b.ctypes.data)


def mgs_step(h: float, v: np.ndarray, w: np.ndarray, following: np.ndarray) -> float:
    """One modified Gram-Schmidt step ``w -= h v`` in place (``h v``
    rounded first), fused with the next step's dot product: returns
    ``sum_products(following, w)`` of the updated ``w``, bitwise
    (``following`` may be ``w`` itself, for its norm)."""
    v, following = _row(v), _row(following)
    if not (w.shape == v.shape == following.shape and w.dtype is _F64
            and w.flags.c_contiguous and w.flags.writeable):
        raise LayoutError("a Gram-Schmidt step needs equal lengths and a writable "
                          "contiguous float64 w")
    return (_library or load()).smg_mgs_step(v.size, h, v.ctypes.data, w.ctypes.data,
                                             following.ctypes.data)


def combine(V: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x + sum_i y[i] V[i]`` in a fresh row: per entry, the products
    ``y[i] V[i]`` are added in order of i to 0.0, then to ``x``."""
    V, y, x = np.ascontiguousarray(V, dtype=np.float64), _row(y), _row(x)
    if V.ndim != 2 or V.shape != (y.size, x.size):
        raise LayoutError(f"combination of rows {V.shape} by {y.size} weights "
                          f"onto {x.size} entries")
    out = np.empty(x.size)
    (_library or load()).smg_combine(x.size, y.size, V.ctypes.data, y.ctypes.data,
                                     x.ctypes.data, out.ctypes.data)
    return out
