"""Approximate inverse of the Schur complement.

The approximation combines the density-weighted Poisson solve for the
inertial part with a pressure-space viscosity diagonal chosen per viscous
form: mu for the Laplacian form, 2 mu for the stress form and
gamma + 4/3 mu when bulk viscosity is present.  For constant coefficients
on periodic grids these choices invert the Schur complement exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grid import CellField
from .multigrid import MAX_CYCLES, require_count
from .operators import (
    LAPLACIAN,
    STRESS,
    CoefficientSet,
    div,
    grad,
)


class SchurSign(enum.Enum):
    MINUS = "minus"
    PLUS = "plus"


MINUS = SchurSign.MINUS
PLUS = SchurSign.PLUS


@dataclass(frozen=True)
class SchurConfig:
    """Sign of the Schur inverse and V-cycles per pressure solve, at most
    :data:`multigrid.MAX_CYCLES`."""

    sign: SchurSign = MINUS
    pressure_cycles: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sign", SchurSign(self.sign))
        require_count("pressure_cycles", self.pressure_cycles, 1, MAX_CYCLES)


def schur_diagonal(coeff: CoefficientSet) -> np.ndarray:
    """Cell array of the local viscous part of the Schur inverse."""
    form = coeff.viscous_form
    if form is LAPLACIAN:
        return coeff.mu_cell.data
    if form is STRESS:
        return 2.0 * coeff.mu_cell.data
    return coeff.gamma_cell.data + (4.0 / 3.0) * coeff.mu_cell.data  # STRESS_BULK


def apply_schur_inv(r: CellField, coeff: CoefficientSet,
                    pressure_solve=None) -> CellField:
    """Approximate S^{-1} r = -theta * Lrho^{-1} r + V r.

    ``pressure_solve`` supplies the (inexact or exact) Poisson inverse and
    is only consulted for unsteady flow; steady applications are purely
    diagonal and never touch a Poisson solver.
    """
    if coeff.theta > 0:
        if pressure_solve is None:
            raise ValueError("unsteady Schur inverse needs a pressure solver")
        phi = pressure_solve(r)
        data = -coeff.theta * phi.data + schur_diagonal(coeff) * r.data
    else:
        data = schur_diagonal(coeff) * r.data
    return CellField(r.grid, data)


def exact_schur_apply(p: CellField, coeff: CoefficientSet, face_solver=None) -> CellField:
    """Reference -D A^{-1} G p via the exact velocity subsolver (small grids).

    Pass a prebuilt :class:`stokesmg._exact.DenseFaceSolver` to amortize the
    factorization over repeated applications.
    """
    from ._exact import DenseFaceSolver

    if face_solver is None:
        face_solver = DenseFaceSolver(p.grid, coeff)
    u = face_solver.solve(grad(p))
    return -div(u)
