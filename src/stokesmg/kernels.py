"""The compiled smoother sweeps: build, cache and load ``sweeps.c``.

The library is built on first use with the system C compiler (``cc``) at
``-O2 -ffp-contract=off`` (no fused multiply-add, no fast-math, no
host-specific code), so its sweeps round exactly as the numpy formulation
in ``tests/reference.py`` does.  It is kept in the user cache directory,
``$XDG_CACHE_HOME/stokesmg`` or ``~/.cache/stokesmg``, under a name keyed
by a hash of the source, the flags and the compiler version; a build is
written to a temporary file and renamed into place, so concurrent builders
never load a partial file.  When that directory cannot be written the
library is built in a per-process temporary directory instead.  Each
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
from typing import NamedTuple

import numpy as np

from .grid import FREE_SLIP, NO_SLIP, GridSpec, LayoutError, edge_planes
from .operators import LAPLACIAN, STRESS, STRESS_BULK

COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweeps.c")
#: marks the key compiled into a library, checked before it is loaded
KEY_TAG = b"stokesmg-sweeps-key:"

_FORMS = {LAPLACIAN: 0, STRESS: 1, STRESS_BULK: 2}
_BC = {NO_SLIP: 1, FREE_SLIP: 2}

_library = None


class KernelBuildError(RuntimeError):
    """The sweep library could not be built: no compiler, or it failed."""


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
            "multigrid smoothers need one to build sweeps.c") from None
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
            f"no C compiler: '{COMPILER}' is not on PATH; the multigrid "
            "smoothers need one to build sweeps.c")
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


def _bind(path: str):
    lib = ctypes.CDLL(path)
    ptr, dbl, int_ = ctypes.c_void_p, ctypes.c_double, ctypes.c_int
    grid = ctypes.POINTER(_Grid3)
    lib.smg_face_sweep.argtypes = [grid, int_, int_, dbl, dbl, int_,
                                   *[ptr] * 11]
    lib.smg_face_sweep.restype = int_
    lib.smg_cell_sweep.argtypes = [grid, dbl, int_, *[ptr] * 6]
    lib.smg_cell_sweep.restype = int_
    return lib


def load():
    """The loaded sweep library, built first if the cache lacks it.

    A cold build takes under a second; a cached load takes a few
    milliseconds, most of them the compiler version check of the key.
    """
    global _library
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
                _library = _bind(_compile(key, private))
            finally:
                shutil.rmtree(private, ignore_errors=True)
            return _library
    _library = _bind(path)
    return _library


class _Layout(NamedTuple):
    """A grid as the sweeps see it: its C description and the shape of
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


#: id(obj) -> (weak reference to obj, value) of the objects sweeps read
_memo: dict[int, tuple] = {}


def _remember(obj, make):
    """``make(obj)``, computed once while ``obj`` lives.

    A grid description or an array's data address costs microseconds to
    build, as much as a whole sweep on a coarse level, and the V-cycle
    passes the same grids, coefficients and diagonals again and again.
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


def _address(arr: np.ndarray, shape: tuple, owners: list, iterate=False) -> int:
    """Data address of ``arr`` once its shape and type are checked.  An
    input held as a strided view is passed as a C-contiguous copy, kept
    alive in ``owners``; the iterate is written in place, so it must be
    C-contiguous and writable."""
    if arr.shape != shape or arr.dtype is not _F64:
        raise LayoutError(f"sweep array of shape {arr.shape} and type {arr.dtype}, "
                          f"expected {shape} float64")
    if iterate and not (arr.flags.c_contiguous and arr.flags.writeable):
        raise LayoutError("smoother iterate must be writable and C-contiguous")
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
        owners.append(arr)
    return _remember(arr, _data)


def _check(status: int) -> None:
    if status != 0:
        raise MemoryError("sweep workspace allocation failed")


def face_sweep(u, rhs, grid: GridSpec, coeff, diag, omega: float, a: int,
               zero_guess: bool) -> None:
    """Relax velocity component ``a`` of ``u`` by one sweep, in place.

    ``zero_guess`` promises that the residual is ``rhs`` (``u`` is zero).
    """
    lib = _library or load()
    lay = _remember(grid, _layout)
    face, owners = lay.faces[a], []
    comps = [_address(c, s, owners, True) for c, s in zip(u.components, lay.faces)]
    inputs = [_address(arr, shape, owners) for arr, shape in (
        (rhs.components[a], face), (diag.components[a], face),
        (coeff.mu_cell.data, lay.cells), (coeff.gamma_cell.data, lay.cells),
        (coeff.rho_face.components[a], face))]
    planes = coeff.mu_node_edge.arrays
    ne = [slot and _address(planes[slot[0]], slot[1], owners) for slot in lay.planes]
    _check(lib.smg_face_sweep(
        lay.grid3, a + lay.lead, _FORMS[coeff.viscous_form], coeff.theta, omega,
        zero_guess, *[None] * lay.lead, *comps, *inputs, *ne))


def cell_sweep(phi, rhs, grid: GridSpec, coeff, diag, omega: float,
               zero_guess: bool) -> None:
    """Relax ``phi`` by one sweep of the pressure operator, in place."""
    lib = _library or load()
    lay = _remember(grid, _layout)
    owners = []
    x = _address(phi.data, lay.cells, owners, True)
    inputs = [_address(arr, lay.cells, owners) for arr in (rhs.data, diag.data)]
    rho = [_address(c, s, owners) for c, s in zip(coeff.rho_face.components, lay.faces)]
    _check(lib.smg_cell_sweep(lay.grid3, omega, zero_guess, x, *inputs,
                              *[None] * lay.lead, *rho))
