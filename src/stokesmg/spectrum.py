"""Dense small-grid assembly and eigenvalue analysis.

Reproduces the saddle-operator and Schur-complement spectrum studies:
operators are assembled column-by-column with unit vectors, A^{-1} in the
Schur complement is the sparse exact velocity subsolver, and the
preconditioned Schur spectrum is obtained from the similar symmetric
matrix V^{1/2} S V^{1/2} with V the diagonal viscous Schur approximation.
scipy.linalg is imported on first use, so importing the package loads no
scipy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ._exact import DenseFaceSolver, probe_columns, require_exact_size
from .grid import (
    GridSpec,
    pack_cell,
    pack_face,
    pack_stokes,
    unpack_cell,
    unpack_face,
    unpack_stokes,
)
from .operators import CoefficientSet, apply_M, div, grad
from .schur import schur_diagonal

#: dense matrices are plain float arrays; rows/columns follow the packed
#: unknown-DOF order of :mod:`stokesmg.grid` (velocity components first,
#: axis-major within each block, then pressure).
DenseMatrix = np.ndarray

MAX_SPECTRUM_CELLS = 1024  # full spectra capped at 32x32


def require_spectrum_size(grid: GridSpec) -> None:
    """The one spectrum cap: at most ``MAX_SPECTRUM_CELLS`` cells on
    ``grid``, else ``ValueError``."""
    if grid.n_cell_unknowns() > MAX_SPECTRUM_CELLS:
        raise ValueError(
            f"{grid.n_cell_unknowns()} cells exceed spectrum cap {MAX_SPECTRUM_CELLS}")


def _space_size(grid: GridSpec, space: str) -> int:
    if space == "cell":
        return grid.n_cell_unknowns()
    if space == "face":
        return sum(grid.n_face_unknowns(a) for a in range(grid.dim))
    if space == "stokes":
        return grid.n_unknowns()
    raise ValueError(f"unknown space {space!r}")


_PACK = {"cell": pack_cell, "face": pack_face, "stokes": pack_stokes}
_UNPACK = {"cell": unpack_cell, "face": unpack_face, "stokes": unpack_stokes}


def assemble_dense(operator, grid: GridSpec, domain: str = "stokes",
                   codomain: str = "stokes") -> DenseMatrix:
    """Assemble a linear field operator by probing with unit vectors.

    ``operator`` maps a field of the ``domain`` space to one of the
    ``codomain`` space ('cell', 'face' or 'stokes'); column j of the result
    is the packed image of the j-th unit vector.  The grid must pass the
    exact-subsolver size cap (:func:`_exact.require_exact_size`).
    """
    require_exact_size(grid)
    n = _space_size(grid, domain)
    unpack = _UNPACK[domain]
    pack = _PACK[codomain]
    return probe_columns(lambda v: pack(operator(unpack(grid, v))), n)


def sym_eigenvalues(A: DenseMatrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    Rejects inputs whose asymmetry exceeds 1e-10 relative to the largest
    entry.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    scale = max(np.abs(A).max(), 1.0)
    if np.abs(A - A.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    import scipy.linalg

    return np.sort(scipy.linalg.eigvalsh(0.5 * (A + A.T)))


@dataclass
class SpectrumReport:
    """Sorted eigenvalues plus the clustering statistics of the study,
    computed from them, as the fields of its JSON report in order."""

    which: str
    n_dof: int
    n_eigenvalues: int = field(init=False)
    tol_zero: float
    tol_unit: float
    zero_multiplicity: int = field(init=False)
    non_unit_count: int = field(init=False)
    nonpositive_count: int = field(init=False)
    min_nonzero: float = field(init=False, default=0.0)
    max_nonzero: float = field(init=False, default=0.0)
    frac_near_unit: float = field(init=False, default=0.0)
    histogram_counts: list = field(init=False)
    histogram_edges: list = field(init=False)
    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        self.eigenvalues = np.sort(lam)
        self.n_eigenvalues = len(self.eigenvalues)
        nz = self.eigenvalues[np.abs(self.eigenvalues) > self.tol_zero]
        self.zero_multiplicity = int(np.sum(np.abs(self.eigenvalues) <= self.tol_zero))
        self.non_unit_count = int(np.sum(np.abs(self.eigenvalues - 1.0) > self.tol_unit))
        self.nonpositive_count = int(np.sum(self.eigenvalues <= self.tol_zero))
        if len(nz):
            self.min_nonzero = float(nz.min())
            self.max_nonzero = float(nz.max())
            self.frac_near_unit = float(np.mean((nz > 0.99) & (nz < 1.01)))
        counts, edges = np.histogram(self.eigenvalues, bins=50)
        self.histogram_counts = counts.tolist()
        self.histogram_edges = edges.tolist()

    def to_dict(self) -> dict:
        report = asdict(self)
        report["eigenvalues"] = self.eigenvalues.tolist()
        return report

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def schur_complement_matrix(grid: GridSpec, coeff: CoefficientSet) -> DenseMatrix:
    """S = -D A^{-1} G as a dense matrix (steady small grids).

    A^{-1} is :class:`stokesmg._exact.DenseFaceSolver`, applied to all
    columns of G at once.
    """
    G = assemble_dense(lambda p: grad(p), grid, domain="cell", codomain="face")
    D = assemble_dense(lambda u: div(u), grid, domain="face", codomain="cell")
    return -D @ DenseFaceSolver(grid, coeff).solve_packed(G)


def analyze_stokes_spectrum(grid: GridSpec, coeff: CoefficientSet,
                            which: str) -> SpectrumReport:
    """Spectrum of M, of S, or of the preconditioned product.

    ``which`` is one of ``M``, ``S`` or ``precondS``.  The Schur analyses
    require steady flow; the preconditioned spectrum is computed from
    V^{1/2} S V^{1/2}, similar to V S with V the diagonal Schur inverse.
    """
    require_spectrum_size(grid)
    if which == "M":
        M = assemble_dense(lambda x: apply_M(x, coeff), grid)
        lam = sym_eigenvalues(M)
        n_dof = grid.n_unknowns()
    elif which in ("S", "precondS"):
        if coeff.theta != 0:
            raise ValueError("Schur spectrum analysis is defined for steady flow")
        S = schur_complement_matrix(grid, coeff)
        if which == "precondS":
            w = np.sqrt(schur_diagonal(coeff).ravel(order="F"))
            S = w[:, None] * S * w[None, :]
        lam = sym_eigenvalues(S)
        n_dof = grid.n_cell_unknowns()
    else:
        raise ValueError(f"unknown analysis {which!r}; use M, S or precondS")
    tol_zero = 1e-8 * float(np.abs(lam).max())
    return SpectrumReport(which=which, n_dof=n_dof, eigenvalues=lam,
                          tol_zero=tol_zero, tol_unit=1e-8)
