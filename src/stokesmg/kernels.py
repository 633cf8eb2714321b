"""The stencil functions and the compiled library that runs them.

Every stencil of the package is one function here: the operators
:func:`div`, :func:`grad`, :func:`apply_Lrho`, :func:`apply_A` (each also
the V-cycle's residual) and :func:`apply_M` (also GMRES's true residual,
``rhs - M x``, in one buffer), the smoother diagonals
:func:`lrho_diagonal` and :func:`helmholtz_diagonal`, the smoother sweeps
:func:`smooth_cell` and :func:`smooth_face`, and the grid transfers
:func:`restrict_cell`, :func:`restrict_face`, :func:`prolong_cell` and
:func:`prolong_face`.  Each checks its arrays, passes their addresses to
one call of one entry of ``sweeps.c`` and returns the field (the sweeps
relax in place; the face sweep relaxes every velocity component).  An
operator, a sweep, a diagonal and a transfer take the field kind, so each
pair of them is one caller of :func:`_apply`, :func:`_sweep`,
:func:`_diagonal` or :func:`_transfer` and one library entry; each
transfer runs one pass per axis, the cell prolongation's an injection.  A
field goes as one array of per-axis pointers (a cell field's first;
:func:`grad`, :func:`div` and :func:`apply_M` pass a pressure as its data
pointer alone), refused on another grid than the call's, and a
coefficient set as one ``smg_level``: its grid, viscous form, theta and
array addresses, built once per set and refused for a call on another
grid; a sweep's copy of it also holds the smoother diagonal.
:mod:`operators` and :mod:`multigrid` import them; the package has no
other copy of the stencils or of their coupling weights and wall rules.

The Krylov reductions are here too: :func:`sum_products` (every inner
product and norm of the package), :func:`arnoldi` (a whole modified
Gram-Schmidt step of GMRES: every dot product, update, norm and the
normalization) and :func:`combine` (a GMRES iterate from its basis).
Each sums in one documented blocked order that depends on the vector
length alone, never through BLAS.

:func:`vcycle`, the operators and the Krylov reductions run on the
library's team of threads on grids (or vectors) of at least
``smg_team_min_entries`` entries:
:func:`team_size` threads per process (one process of ``workers``), set
at :func:`load` and by :func:`set_threads`.  Every result is bitwise the
same at any team size.

The library is built on first use with the system C compiler (``cc``) at
``-O3 -ffp-contract=off`` (no fused multiply-add, no fast-math, no
host-specific code), so every entry rounds exactly as the numpy
formulation in ``tests/reference.py`` does; the row loops the optimizer
turns into SIMD code round each lane as the scalar loop would.  It is
kept in the user cache directory, ``$XDG_CACHE_HOME/stokesmg`` or
``~/.cache/stokesmg``, under a name keyed by a hash of the source, the
flags and the compiler version; a build is written to a temporary file and
renamed into place, so concurrent builders never load a partial file.
When that directory cannot be written the library is built in a
per-process temporary directory instead.  Each process loads the library
once; :func:`load` before forking workers shares it with them.

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
    PERIODIC,
    CellField,
    FaceField,
    GridSpec,
    LayoutError,
    StokesVector,
    edge_planes,
)

if TYPE_CHECKING:
    from .operators import CoefficientSet

COMPILER = "cc"
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweeps.c")
#: marks the key compiled into a library, checked before it is loaded
KEY_TAG = b"stokesmg-sweeps-key:"

#: sweeps.c's codes of the viscous forms, by ``ViscousForm`` value, and of
#: the boundary conditions
_FORMS = {"laplacian": 0, "stress": 1, "stress_bulk": 2}
_BC = {PERIODIC: 0, NO_SLIP: 1, FREE_SLIP: 2}

_library = None


class KernelBuildError(RuntimeError):
    """The stencil library could not be built: no compiler, or it failed."""


class _Grid3(ctypes.Structure):
    """``grid3`` of sweeps.c: a 2D grid leads with one dummy cell; h and
    1/h^2, rounded here, are its only scalars."""

    _fields_ = [
        ("n", ctypes.c_long * 3),
        ("lo", ctypes.c_int * 3),
        ("hi", ctypes.c_int * 3),
        ("first", ctypes.c_int),
        ("h", ctypes.c_double),
        ("inv_h2", ctypes.c_double),
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
    """``smg_level`` of sweeps.c: a coefficient set on its grid and, in a
    V-cycle plan, the level's smoother diagonal."""

    _fields_ = [("g", _Grid3), ("form", _int), ("theta", _dbl), ("diag", _Axes),
                ("mu", _ptr), ("gamma", _ptr), ("rho", _Axes), ("ne", _Axes)]


_ptrs, _grid, _lv = (ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(_Grid3),
                     ctypes.POINTER(_Level))

#: result and argument types of each entry of sweeps.c
SIGNATURES = {
    "smg_sweep": (_int, [_int, _lv, _dbl, _int, _ptrs, _ptrs]),
    "smg_apply": (_int, [_int, _lv, _ptrs, _ptrs, _ptrs]),
    "smg_saddle": (_int, [_lv, _ptrs, _ptr, _ptrs, _ptr, _ptrs, _ptr]),
    "smg_diag": (None, [_int, _lv, _ptrs]),
    "smg_grad": (None, [_grid, _ptr, _ptrs]),
    "smg_div": (None, [_grid, _ptrs, _ptr]),
    "smg_transfer": (_int, [_int, _int, _grid, _ptrs, _ptrs]),
    "smg_vcycle": (_int, [_int, _long, _lv, _dbl, _int, _int, _int, _ptrs, _ptrs]),
    "smg_dot": (_int, [_long, _ptr, _ptr, _ptr]),
    "smg_arnoldi": (_int, [_long, _long, _ptr, _ptr, _ptr]),
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

    A cold build takes about two seconds, the compiler peaking at about
    115 MB (gcc 12.2, x86-64); a cached load takes a few milliseconds,
    most of them the compiler version check of the key.
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
            lo, hi = (_BC[bc] for bc in grid.bc[ax - lead])
        g.n[ax], g.lo[ax], g.hi[ax] = n, lo, hi
    g.h = grid.h
    g.inv_h2 = 1.0 / grid.h**2
    planes = []
    for x, y in ((0, 1), (0, 2), (1, 2)):
        key = (x - lead, y - lead)
        planes.append((key, grid.node_edge_shape(key)) if key in edge_planes(grid.dim)
                      else None)
    return _Layout(g, lead, grid.cells,
                   tuple(grid.face_shape(a) for a in range(grid.dim)), tuple(planes))


#: id(obj) -> (weak reference to obj, value) of the grids and coefficient
#: sets kernels read
_memo: dict[int, tuple] = {}


def _remember(obj, make):
    """``make(obj)``, computed once while ``obj`` lives.

    A grid's layout or a coefficient set's level takes about 6 or 12
    microseconds to build (2D 8^2, a 2-core x86-64 VM), as long as a whole
    sweep on a coarse level, and callers pass the same grids and
    coefficients again and again.
    """
    key = id(obj)
    hit = _memo.get(key)
    if hit is not None and hit[0]() is obj:
        return hit[1]
    value = make(obj)
    _memo[key] = (weakref.ref(obj, lambda _, k=key: _memo.pop(k, None)), value)
    return value


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
    return arr.ctypes.data


def _check(status: int) -> None:
    if status != 0:
        raise MemoryError("kernel workspace allocation failed")


def _start(grid: GridSpec):
    """The library and ``grid``'s layout."""
    return _library or load(), _remember(grid, _layout)


def _on(kind, grid: GridSpec, field):
    """``field``, refused unless it is a ``kind`` field on ``grid``, the
    call's grid, even when its arrays have that grid's shapes: the library
    would read another kind's pointers as ``kind``'s."""
    if type(field) is not kind:
        raise LayoutError(f"a {type(field).__name__} where a {kind.__name__} belongs")
    if field.grid is not grid and field.grid != grid:
        raise LayoutError(f"a field on {field.grid} in a call on {grid}")
    return field


def _cell(grid: GridSpec, p: CellField, iterate=False) -> int:
    """Address of a cell field's data, for an entry that takes it alone."""
    return _address(_on(CellField, grid, p).data, grid.cells, iterate)


def _field(kind, grid: GridSpec, field, iterate=False) -> _Axes:
    """A ``kind`` field's per-axis pointers: a face field's components on
    their 3D axes, a cell field's data first; refused unless it is a
    ``kind`` field on ``grid`` (:func:`_on`)."""
    if kind is CellField:
        return _Axes(_cell(grid, field, iterate))
    lay, comps = _remember(grid, _layout), _on(FaceField, grid, field).components
    return _Axes(*[None] * lay.lead,
                 *[_address(c, s, iterate) for c, s in zip(comps, lay.faces)])


def _empty(kind, grid: GridSpec):
    """A field of ``kind`` on ``grid`` for a kernel to fill."""
    if kind is CellField:
        return CellField(grid, np.empty(grid.cells))
    return FaceField(grid, tuple(np.empty(s) for s in _remember(grid, _layout).faces))


def _describe(coeff: CoefficientSet) -> _Level:
    """``coeff`` as sweeps.c reads it: its grid, viscous form, theta and
    the addresses of its arrays, ``mu``, ``gamma``, ``rho`` per face axis
    and the node/edge planes per 3D plane slot (NULL: no plane).  The level
    keeps those arrays alive for as long as it is used."""
    grid = coeff.grid
    lay = _remember(grid, _layout)
    planes = coeff.mu_node_edge.arrays
    level = _Level(g=lay.grid3, form=_FORMS[coeff.viscous_form.value], theta=coeff.theta,
                   mu=_cell(grid, coeff.mu_cell), gamma=_cell(grid, coeff.gamma_cell),
                   rho=_field(FaceField, grid, coeff.rho_face),
                   ne=_Axes(*[slot and _address(planes[slot[0]], slot[1])
                              for slot in lay.planes]))
    level.arrays = [coeff.mu_cell.data, coeff.gamma_cell.data,
                    *coeff.rho_face.components, *planes.values()]
    return level


def _level(grid: GridSpec, coeff: CoefficientSet) -> _Level:
    """The level of ``coeff``, built once per coefficient set, for a call on
    ``grid``: coefficients on another grid are refused."""
    if coeff.grid != grid:
        raise LayoutError(f"coefficients on {coeff.grid} applied on {grid}")
    return _remember(coeff, _describe)


def _with_diagonal(kind, grid: GridSpec, coeff: CoefficientSet, diag) -> _Level:
    """A copy of ``coeff``'s level holding the addresses of the smoother
    diagonal ``diag`` of a ``kind`` field, for a sweep or a V-cycle plan.  The copy keeps that
    level and the diagonal's arrays alive for as long as it is used."""
    level = _level(grid, coeff)
    out = _Level.from_buffer_copy(level)
    out.diag = _field(kind, grid, diag)
    out.arrays = [level, *(diag.components if kind is FaceField else [diag.data])]
    return out


# ---------------------------------------------------------------------------
# divergence, gradient and the pressure operator
# ---------------------------------------------------------------------------


def div(u: FaceField) -> CellField:
    """Cell-centered divergence; reads stored boundary faces."""
    lib, lay = _start(u.grid)
    out = _empty(CellField, u.grid)
    lib.smg_div(lay.grid3, _field(FaceField, u.grid, u), _cell(u.grid, out))
    return out


def grad(p: CellField) -> FaceField:
    """Face-centered pressure gradient; wall-normal faces are zero."""
    lib, lay = _start(p.grid)
    out = _empty(FaceField, p.grid)
    lib.smg_grad(lay.grid3, _cell(p.grid, p), _field(FaceField, p.grid, out))
    return out


def _apply(kind, x, coeff: CoefficientSet, rhs):
    """The operator of ``kind`` fields on ``coeff`` applied to ``x``, or,
    with ``rhs``, the residual ``rhs - op x`` in the same pass."""
    grid = x.grid
    lib, _ = _start(grid)
    out = _empty(kind, grid)
    _check(lib.smg_apply(kind is CellField, _level(grid, coeff), _field(kind, grid, x),
                         rhs and _field(kind, grid, rhs), _field(kind, grid, out)))
    return out


def apply_Lrho(p: CellField, coeff: CoefficientSet,
               rhs: CellField | None = None) -> CellField:
    """Density-weighted pressure Poisson operator D (1/rho) G, summed from
    unscaled differences and scaled once by 1/h^2; with ``rhs``, the
    residual ``rhs - D (1/rho) G p`` instead, in the same pass."""
    return _apply(CellField, p, coeff, rhs)


def _diagonal(kind, grid: GridSpec, coeff: CoefficientSet):
    """The diagonal a sweep of a ``kind`` field on ``coeff`` divides by."""
    lib, _ = _start(grid)
    out = _empty(kind, grid)
    lib.smg_diag(kind is CellField, _level(grid, coeff), _field(kind, grid, out))
    return out


def lrho_diagonal(grid: GridSpec, coeff: CoefficientSet) -> CellField:
    """Diagonal of D (1/rho) G, which the pressure smoother divides by: each
    cell sums -1/(rho h^2) over its faces, a wall face adding nothing."""
    return _diagonal(CellField, grid, coeff)


# ---------------------------------------------------------------------------
# velocity operators
# ---------------------------------------------------------------------------


def apply_A(u: FaceField, coeff: CoefficientSet,
            rhs: FaceField | None = None) -> FaceField:
    """Velocity operator theta*rho*u - L_mu u on the unknown faces (steady
    flow forms no mass term: -L_mu u); with ``rhs``, the residual
    ``rhs - A u`` instead, in the same pass, whose boundary faces carry
    ``rhs``.  L_mu is the viscous term in the coefficients' form (Laplacian,
    stress or stress-bulk); on a no-slip wall, stencils reaching outside the
    domain use one-sided differences against a zero wall velocity, and
    free-slip walls carry no tangential momentum flux."""
    return _apply(FaceField, u, coeff, rhs)


def apply_M(x: StokesVector, coeff: CoefficientSet,
            rhs: StokesVector | None = None) -> StokesVector:
    """Saddle operator (A u + G p, -D u); with ``rhs``, the residual
    ``rhs - M x`` instead, in the same pass, whose boundary faces hold +0
    (they are not unknowns; ``rhs``'s are not read).  The result's fields
    view one fresh buffer."""
    grid = x.grid
    lib, _ = _start(grid)
    out = StokesVector.view(grid, np.empty(StokesVector.buffer_size(grid)))
    _check(lib.smg_saddle(
        _level(grid, coeff), _field(FaceField, grid, x.u), _cell(grid, x.p),
        rhs and _field(FaceField, grid, rhs.u), rhs and _cell(grid, rhs.p),
        _field(FaceField, grid, out.u), _cell(grid, out.p)))
    return out


def helmholtz_diagonal(grid: GridSpec, coeff: CoefficientSet) -> FaceField:
    """Diagonal of A, which the velocity smoother divides by; boundary faces
    are set to one."""
    return _diagonal(FaceField, grid, coeff)


# ---------------------------------------------------------------------------
# smoothers
# ---------------------------------------------------------------------------


def _sweep(kind, x, rhs, grid: GridSpec, coeff: CoefficientSet, diag, omega: float,
           zero_guess: bool) -> None:
    """One sweep of the ``kind`` field ``x`` in place, on the level of
    ``coeff`` holding ``diag``."""
    lib, _ = _start(grid)
    _check(lib.smg_sweep(kind is CellField, _with_diagonal(kind, grid, coeff, diag), omega,
                         zero_guess, _field(kind, grid, rhs), _field(kind, grid, x, True)))


def smooth_cell(phi: CellField, rhs: CellField, grid: GridSpec,
                coeff: CoefficientSet, diag: CellField, omega: float,
                zero_guess: bool = False) -> None:
    """One red-black Gauss-Seidel sweep on the pressure operator, in place.

    ``zero_guess`` promises that ``phi`` is zero, so the residual is ``rhs``
    and the operator is not applied.  With finite coefficients the operator
    maps zero to exactly +0 and ``r - (+0)`` is ``r``, so the result is
    bitwise the same.
    """
    _sweep(CellField, phi, rhs, grid, coeff, diag, omega, zero_guess)


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
    _sweep(FaceField, u, rhs, grid, coeff, diag, omega, zero_guess)


# ---------------------------------------------------------------------------
# grid transfers
# ---------------------------------------------------------------------------


def _transfer(kind, src, restricting: bool):
    """The ``kind`` field ``src`` restricted to the next coarser grid, or
    prolonged to the next finer one."""
    grid = src.grid
    target = grid.coarsened() if restricting else grid.refined()
    lib, lay = _start(grid)
    out = _empty(kind, target)
    _check(lib.smg_transfer(kind is CellField, restricting, lay.grid3,
                            _field(kind, grid, src), _field(kind, target, out)))
    return out


def restrict_cell(fine: CellField) -> CellField:
    """Simple averaging of the 2^d fine children."""
    return _transfer(CellField, fine, True)


def prolong_cell(coarse: CellField) -> CellField:
    """Direct injection of each coarse value into its 2^d children, one
    pass per axis."""
    return _transfer(CellField, coarse, False)


def restrict_face(fine: FaceField) -> FaceField:
    """Staggered 6-point (2D) / 12-point (3D) restriction.

    Tangential directions average the two overlaying rows; the normal
    direction applies the 1/4, 1/2, 1/4 stencil.  Boundary faces of the
    coarse result stay zero (they are not unknowns).
    """
    return _transfer(FaceField, fine, True)


def prolong_face(coarse: FaceField) -> FaceField:
    """Staggered prolongation: linear where fine faces overlay coarse ones,
    bilinear (trilinear normal+tangential products in 3D) elsewhere.

    Tangential (cell-centered) axes interpolate 3/4-1/4, clamping wall rows
    to the nearest interior row so every weight row still sums to one
    (constants prolong to constants); along the normal axis overlaying
    faces copy and the faces between average.
    """
    return _transfer(FaceField, coarse, False)


# ---------------------------------------------------------------------------
# V-cycles
# ---------------------------------------------------------------------------


def vcycle_plan(levels, diagonals) -> ctypes.Array:
    """Per level's coefficient set, finest first, a copy of the set's
    level holding the addresses of its diagonal (:func:`_with_diagonal`);
    the plan keeps those copies alive and remembers the kind of its
    diagonals, which is the kind it solves for."""
    kind = type(diagonals[0])
    held = [_with_diagonal(kind, coeff.grid, coeff, diag)
            for coeff, diag in zip(levels, diagonals, strict=True)]
    plan = (_Level * len(held))(*held)
    plan.levels, plan.kind = held, kind
    return plan


def vcycle(rhs, grid: GridSpec, plan: ctypes.Array, params):
    """One V-cycle from zero on the finest ``grid`` of a plan, whose kind
    ``rhs`` must have, in one library call: bitwise the recursion over the
    sweeps, residuals and transfers here in ``tests/reference.py``."""
    lib, _ = _start(grid)
    kind = plan.kind
    rhs_axes = _field(kind, grid, rhs)
    x = kind.zeros(grid)
    _check(lib.smg_vcycle(kind is CellField, len(plan), plan, params.omega,
                          params.sweeps_down, params.sweeps_up, params.bottom_sweeps,
                          rhs_axes, _field(kind, grid, x, True)))
    return x


# ---------------------------------------------------------------------------
# Krylov reductions
# ---------------------------------------------------------------------------


def _row(arr: np.ndarray) -> np.ndarray:
    """``arr`` as one C-order row of float64; a strided view is copied."""
    return np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)


def sum_products(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of ``a * b`` over all entries, in C order, by the library's dot
    product.  The entries are cut into blocks of 4096; in each block, entry
    k's product is added to running partial sum k mod 4 (each starting at
    0.0), and the four combine as ``(s0 + s1) + (s2 + s3)``; the block sums
    are then added left to right from the first one's.  No BLAS call, so the
    result does not depend on the BLAS thread count, and the order depends
    on the length alone, not on the team size."""
    a, b = _row(a), _row(b)
    if a.size != b.size:
        raise LayoutError(f"dot of {a.size} and {b.size} entries")
    out = ctypes.c_double()
    _check((_library or load()).smg_dot(a.size, a.ctypes.data, b.ctypes.data,
                                        ctypes.byref(out)))
    return out.value


def arnoldi(V: np.ndarray, j: int, w: np.ndarray) -> np.ndarray:
    """One Arnoldi step of modified Gram-Schmidt, in place: for i = 0 ... j
    in turn, ``h[i] = sum_products(V[i], w)`` and ``w -= h[i] V[i]``
    (``h[i] V[i]`` rounded first); then ``h[j + 1] = sum_products(w, w)``
    and, when that is positive and finite, ``V[j + 1] = w / sqrt(h[j +
    1])`` (else row ``j + 1`` is left as it was).  Returns the ``j + 2``
    values ``h``, each bitwise the dot product of the vectors it names, in
    one library call."""
    if not (V.ndim == 2 and 0 <= j and j + 2 <= V.shape[0] and w.shape == V.shape[1:]
            and all(a.dtype is _F64 and a.flags.c_contiguous and a.flags.writeable
                    for a in (V, w))):
        raise LayoutError("an Arnoldi step needs a writable contiguous float64 basis of "
                          "at least j + 2 rows and a w of its row length")
    h = np.empty(j + 2)
    _check((_library or load()).smg_arnoldi(w.size, j, V.ctypes.data, w.ctypes.data,
                                            h.ctypes.data))
    return h


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
