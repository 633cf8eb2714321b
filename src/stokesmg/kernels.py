"""The compiled stencils: build, cache and load ``sweeps.c``.

The library holds the multigrid smoother sweeps and their diagonals, the
operators (``A``, ``L_mu``, ``D (1/rho) G``, ``D``, ``G``, the saddle
operator and the V-cycle's residuals) and the grid transfers; the package
has no other copy of them or of their coupling weights and wall rules.  It
is built on first use with the system C compiler (``cc``) at ``-O2
-ffp-contract=off`` (no fused multiply-add, no fast-math, no host-specific
code), so every entry rounds exactly as the numpy formulation in
``tests/reference.py`` does.  It is kept in the user cache directory,
``$XDG_CACHE_HOME/stokesmg`` or ``~/.cache/stokesmg``, under a name keyed by
a hash of the source, the flags and the compiler version; a build is
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

COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
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


def _bind(path: str):
    lib = ctypes.CDLL(path)
    ptr, dbl, int_ = ctypes.c_void_p, ctypes.c_double, ctypes.c_int
    ptrs, grid = ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(_Grid3)
    signatures = {
        "smg_face_sweep": (int_, [grid, int_, int_, dbl, dbl, int_, *[ptr] * 11]),
        "smg_cell_sweep": (int_, [grid, dbl, int_, *[ptr] * 6]),
        "smg_face_apply": (int_, [grid, int_, dbl, int_, ptrs, ptr, ptrs, ptr, ptr,
                                  ptrs, ptrs, ptrs, ptrs, ptr]),
        "smg_cell_apply": (int_, [grid, ptr, ptr, ptrs, ptr]),
        "smg_face_diag": (None, [grid, int_, dbl, ptr, ptr, ptrs, ptrs, ptrs]),
        "smg_cell_diag": (None, [grid, ptrs, ptr]),
        "smg_grad": (None, [grid, ptr, ptrs]),
        "smg_div": (None, [grid, ptrs, ptr]),
        "smg_restrict_cell": (int_, [grid, ptr, ptr]),
        "smg_restrict_face": (int_, [grid, ptrs, ptrs]),
        "smg_prolong_cell": (int_, [grid, ptr, ptr]),
        "smg_prolong_face": (int_, [grid, ptrs, ptrs]),
    }
    for name, (restype, argtypes) in signatures.items():
        entry = getattr(lib, name)
        entry.restype, entry.argtypes = restype, argtypes
    return lib


def load():
    """The loaded stencil library, built first if the cache lacks it.

    A cold build takes about a second; a cached load takes a few
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
    build, as much as a whole sweep on a coarse level, and the V-cycle
    passes the same grids, coefficients and diagonals again and again, and
    hands each level's residual, restriction and prolongation on from one
    kernel to the next.
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
        raise LayoutError(f"kernel array of shape {arr.shape} and type {arr.dtype}, "
                          f"expected {shape} float64")
    if iterate and not (arr.flags.c_contiguous and arr.flags.writeable):
        raise LayoutError("smoother iterate must be writable and C-contiguous")
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
        owners.append(arr)
    return _remember(arr, _data)


def _check(status: int) -> None:
    if status != 0:
        raise MemoryError("kernel workspace allocation failed")


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
    _check(lib.smg_face_sweep(
        lay.grid3, a + lay.lead, _FORMS[coeff.viscous_form.value], coeff.theta, omega,
        zero_guess, *[None] * lay.lead, *comps, *inputs, *_node_edges(lay, coeff, owners)))


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


# ---------------------------------------------------------------------------
# operators, diagonals and transfers: each returns fresh output arrays
# ---------------------------------------------------------------------------

#: what :func:`face_apply` gives (``OUT_*`` of sweeps.c): ``L_mu u``,
#: ``A u``, the residual ``base - A u`` and the saddle operator
#: ``(A u + G p, -D u)``
VISCOUS, OPERATOR, RESIDUAL, SADDLE = range(4)

_Axes = ctypes.c_void_p * 3


def _output(shape: tuple) -> tuple[np.ndarray, int]:
    arr = np.empty(shape)
    return arr, _remember(arr, _data)


def _per_axis(lay: _Layout, addresses) -> _Axes:
    """One pointer per 3D axis, NULL on a 2D grid's leading one."""
    return _Axes(*[None] * lay.lead, *addresses)


def _faces(lay: _Layout, arrays, owners: list) -> _Axes:
    return _per_axis(lay, [_address(c, s, owners) for c, s in zip(arrays, lay.faces)])


def _outputs(lay: _Layout, shapes) -> tuple[list, _Axes]:
    pairs = [_output(s) for s in shapes]
    return [arr for arr, _ in pairs], _per_axis(lay, [addr for _, addr in pairs])


def _node_edges(lay: _Layout, coeff, owners: list) -> list:
    """Node/edge viscosity addresses per 3D plane slot (None: no plane)."""
    planes = coeff.mu_node_edge.arrays
    return [slot and _address(planes[slot[0]], slot[1], owners) for slot in lay.planes]


def _walls(bvals, lay: _Layout, owners: list):
    """Pointers to the tangential wall velocities the operator reads, at
    ``(3 a + b) 2 + side`` in 3D axes; missing ones stay NULL (zero)."""
    grid = bvals.grid
    walls = (ctypes.c_void_p * 18)()
    for a in range(grid.dim):
        for b in range(grid.dim):
            for side in (0, 1):
                if b != a and not grid.periodic(b) and (b, side, a) in bvals.tangential:
                    vals = bvals.tangential_values(b, side, a)
                    owners.append(vals)
                    slot = (3 * (a + lay.lead) + b + lay.lead) * 2 + side
                    walls[slot] = _address(vals, vals.shape, owners)
    return walls


def face_apply(u, coeff, out: int, base=None, p=None, bvals=None):
    """The velocity operator ``out`` (see :data:`VISCOUS`) on every
    component: the output components, and ``-D u`` for :data:`SADDLE`
    (else None).  ``base`` is the residual's right-hand side, ``p`` the
    saddle operator's pressure, ``bvals`` the wall velocities (zero when
    None)."""
    if (out == RESIDUAL and base is None) or (out == SADDLE and p is None):
        raise ValueError("the residual needs base and the saddle operator p")
    lib = _library or load()
    lay = _remember(u.grid, _layout)
    owners = []
    res, res_ptrs = _outputs(lay, lay.faces)
    res_p, p_ptr = _output(lay.cells) if out == SADDLE else (None, None)
    _check(lib.smg_face_apply(
        lay.grid3, _FORMS[coeff.viscous_form.value], coeff.theta, out,
        _faces(lay, u.components, owners),
        p and _address(p.data, lay.cells, owners),
        base and _faces(lay, base.components, owners),
        _address(coeff.mu_cell.data, lay.cells, owners),
        _address(coeff.gamma_cell.data, lay.cells, owners),
        _faces(lay, coeff.rho_face.components, owners),
        _Axes(*_node_edges(lay, coeff, owners)),
        bvals and _walls(bvals, lay, owners), res_ptrs, p_ptr))
    return res, res_p


def cell_apply(p, coeff, rhs=None) -> np.ndarray:
    """``D (1/rho) G p``, or ``rhs - D (1/rho) G p`` with ``rhs``."""
    lib = _library or load()
    lay = _remember(p.grid, _layout)
    owners = []
    out, addr = _output(lay.cells)
    _check(lib.smg_cell_apply(
        lay.grid3, _address(p.data, lay.cells, owners),
        rhs and _address(rhs.data, lay.cells, owners),
        _faces(lay, coeff.rho_face.components, owners), addr))
    return out


def face_diag(grid: GridSpec, coeff) -> list:
    """The diagonal of ``A`` per component; boundary faces hold 1."""
    lib = _library or load()
    lay, owners = _remember(grid, _layout), []
    out, ptrs = _outputs(lay, lay.faces)
    lib.smg_face_diag(lay.grid3, _FORMS[coeff.viscous_form.value], coeff.theta,
                      _address(coeff.mu_cell.data, lay.cells, owners),
                      _address(coeff.gamma_cell.data, lay.cells, owners),
                      _faces(lay, coeff.rho_face.components, owners),
                      _Axes(*_node_edges(lay, coeff, owners)), ptrs)
    return out


def cell_diag(grid: GridSpec, coeff) -> np.ndarray:
    """The diagonal of ``D (1/rho) G``."""
    lib = _library or load()
    lay, owners = _remember(grid, _layout), []
    out, addr = _output(lay.cells)
    lib.smg_cell_diag(lay.grid3, _faces(lay, coeff.rho_face.components, owners), addr)
    return out


def grad(p) -> list:
    lib = _library or load()
    lay, owners = _remember(p.grid, _layout), []
    out, ptrs = _outputs(lay, lay.faces)
    lib.smg_grad(lay.grid3, _address(p.data, lay.cells, owners), ptrs)
    return out


def div(u) -> np.ndarray:
    lib = _library or load()
    lay, owners = _remember(u.grid, _layout), []
    out, addr = _output(lay.cells)
    lib.smg_div(lay.grid3, _faces(lay, u.components, owners), addr)
    return out


def _cell_transfer(entry: str, src, target: GridSpec) -> np.ndarray:
    """Library transfer ``entry`` of a cell field onto ``target``."""
    lib = _library or load()
    lay, owners = _remember(src.grid, _layout), []
    out, addr = _output(target.cells)
    _check(getattr(lib, entry)(lay.grid3, _address(src.data, lay.cells, owners), addr))
    return out


def _face_transfer(entry: str, src, target: GridSpec) -> list:
    """Library transfer ``entry`` of a face field onto ``target``."""
    lib = _library or load()
    lay, owners = _remember(src.grid, _layout), []
    out, ptrs = _outputs(lay, [target.face_shape(a) for a in range(target.dim)])
    _check(getattr(lib, entry)(lay.grid3, _faces(lay, src.components, owners), ptrs))
    return out


def restrict_cell(fine, coarse: GridSpec) -> np.ndarray:
    return _cell_transfer("smg_restrict_cell", fine, coarse)


def prolong_cell(coarse, fine: GridSpec) -> np.ndarray:
    return _cell_transfer("smg_prolong_cell", coarse, fine)


def restrict_face(fine, coarse: GridSpec) -> list:
    return _face_transfer("smg_restrict_face", fine, coarse)


def prolong_face(coarse, fine: GridSpec) -> list:
    return _face_transfer("smg_prolong_face", coarse, fine)
