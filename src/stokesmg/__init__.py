"""Staggered-grid finite-volume Stokes solvers.

Schur-complement preconditioners over geometric multigrid subsolvers
inside restarted GMRES, for steady and unsteady variable-coefficient
Stokes flow, plus the dense spectrum and benchmark tooling around them.
"""

__version__ = "0.1.0"

from .grid import (
    FREE_SLIP,
    NO_SLIP,
    PERIODIC,
    BoundaryCondition,
    CellField,
    FaceField,
    GridSpec,
    LayoutError,
    NodeEdgeField,
    StokesVector,
    dot,
    norm2,
)
from .operators import (
    LAPLACIAN,
    STRESS,
    STRESS_BULK,
    CoefficientSet,
    RescaleSpec,
    ViscousForm,
    apply_A,
    apply_Lrho,
    apply_M,
    div,
    grad,
    lap_pressure,
    make_coefficients,
    rescale,
)
from .multigrid import (
    MgHierarchy,
    SmootherParams,
    build_hierarchy,
    coarsen_coefficients,
    mg_solve,
    prolong_cell,
    prolong_face,
    restrict_cell,
    restrict_face,
    vcycle,
)
from .schur import SchurConfig, SchurSign, apply_schur_inv, exact_schur_apply
from .precond import PrecondConfig, Preconditioner, PrecondKind
from .krylov import ConvergenceHistory, GmresConfig, gmres_solve, true_residual
from .spectrum import SpectrumReport, analyze_stokes_spectrum, assemble_dense, sym_eigenvalues
from .problems import (
    BubbleSpec,
    CflSpec,
    bubble_coefficients,
    cfl_to_theta,
    constant_coefficients,
    make_rhs,
)
