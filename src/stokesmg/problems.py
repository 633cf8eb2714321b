"""Test-problem generators.

Constant-coefficient and bubble coefficient fields, random consistent
right-hand sides with known solutions, and the viscous-CFL
parameterization of the inertial coefficient.  Every problem, the inviscid
limit included (``mu0 = 0``), is built from cell fields through
:func:`operators.make_coefficients`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import CellField, GridSpec, StokesVector, require_real
from .multigrid import require_count
from .operators import (
    STRESS,
    CoefficientSet,
    ViscousForm,
    apply_M,
    make_coefficients,
    project_nulls,
)

#: bit-generator identifier recorded in output metadata for reproducibility
PRNG_NAME = "philox4x64-10"


def _generators(seed: int, n_streams: int):
    seqs = np.random.SeedSequence(int(seed)).spawn(n_streams)
    return [np.random.Generator(np.random.Philox(s)) for s in seqs]


@dataclass(frozen=True)
class BubbleSpec:
    """Smoothed sphere/disk of one fluid embedded in another.

    The coefficient profile is ``(r+1)/2 + (r-1)/2 * tanh(d/eps) + 0.1 R``
    with ``d`` the signed distance to the interface (positive outside by
    default, so the ambient phase carries the contrast factor) and ``R``
    per-cell uniform noise on (0, 1).  ``epsilon`` and ``radius`` default
    to the grid spacing and a quarter of the domain length.
    """

    r_mu: float = 100.0
    r_rho: float = 100.0
    epsilon: float | None = None
    radius: float | None = None
    noise_amp: float = 0.1
    seed: int = 0
    positive_outside: bool = True

    def __post_init__(self):
        require_count("seed", self.seed, 0)
        for name in ("r_mu", "r_rho", "epsilon", "radius", "noise_amp"):
            if getattr(self, name) is not None:
                require_real(name, getattr(self, name))
        if not (1 <= self.r_mu < math.inf and 1 <= self.r_rho < math.inf):
            raise ValueError("contrast ratios must be finite and >= 1")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError("smoothing width must be positive")
        if self.radius is not None and not 0 < self.radius < math.inf:
            raise ValueError("bubble radius must be positive and finite")


def bubble_profile(grid: GridSpec, r: float, spec: BubbleSpec,
                   noise: np.ndarray | None) -> np.ndarray:
    coords = grid.cell_centers()
    center = [0.5 * L for L in grid.lengths]
    radius = spec.radius if spec.radius is not None else 0.25 * max(grid.lengths)
    eps = spec.epsilon if spec.epsilon is not None else grid.h
    d = np.sqrt(sum((x - c) ** 2 for x, c in zip(coords, center))) - radius
    if not spec.positive_outside:
        d = -d
    f = 0.5 * (r + 1.0) + 0.5 * (r - 1.0) * np.tanh(d / eps)
    if noise is not None:
        f = f + spec.noise_amp * noise
    return f


def _bubble_field(grid: GridSpec, spec: BubbleSpec, stream: int, r: float,
                  scale: float) -> CellField:
    """``scale`` times the bubble profile of contrast ``r``, its noise drawn
    from substream ``stream`` of the seed (0: viscosity, 1: density), so a
    given seed describes one bubble across the whole viscous-CFL sweep."""
    gen = _generators(spec.seed, 2)[stream]
    noise = gen.random(grid.cells) if spec.noise_amp else None
    return CellField(grid, scale * bubble_profile(grid, r, spec, noise))


def bubble_coefficients(
    grid: GridSpec,
    spec: BubbleSpec,
    theta: float = 0.0,
    viscous_form: ViscousForm = STRESS,
    mu0: float = 1.0,
    rho0: float = 1.0,
    gamma0: float = 0.0,
) -> CoefficientSet:
    """Bubble viscosity/density fields with independent noise streams;
    ``mu0 = 0`` gives the inviscid bubble, a zero viscosity field."""
    mu = _bubble_field(grid, spec, 0, spec.r_mu, mu0) if mu0 else CellField.zeros(grid)
    gamma = CellField.full(grid, gamma0) if gamma0 else CellField.zeros(grid)
    return make_coefficients(grid, theta, bubble_density(grid, spec, rho0), mu, gamma,
                             viscous_form)


def bubble_density(grid: GridSpec, spec: BubbleSpec, rho0: float = 1.0) -> CellField:
    """The density field of the bubble problem, the one
    :func:`bubble_coefficients` builds."""
    return _bubble_field(grid, spec, 1, spec.r_rho, rho0)


def constant_coefficients(
    grid: GridSpec,
    mu0: float = 1.0,
    rho0: float = 1.0,
    theta: float = 0.0,
    viscous_form: ViscousForm = STRESS,
    gamma0: float = 0.0,
) -> CoefficientSet:
    """Uniform coefficient fields (averaging reproduces the constants)."""
    gamma = CellField.full(grid, gamma0) if gamma0 else CellField.zeros(grid)
    return make_coefficients(
        grid, theta, CellField.full(grid, rho0), CellField.full(grid, mu0),
        gamma, viscous_form,
    )


@dataclass(frozen=True)
class CflSpec:
    """Viscous CFL number beta = mu0 / (theta rho0 h^2).

    ``beta = inf`` is the steady limit (theta = 0); ``beta = 0`` the
    inviscid limit (mu = 0 with theta from a unit time step).
    """

    beta: float

    def __post_init__(self):
        require_real("beta", self.beta)
        if not self.beta >= 0:
            raise ValueError("viscous CFL number must be >= 0")

    @property
    def steady(self) -> bool:
        return math.isinf(self.beta)

    @property
    def inviscid(self) -> bool:
        return self.beta == 0.0


def cfl_to_theta(spec: CflSpec, mu0: float, rho0: float, h: float) -> float:
    """Invert beta = mu0 / (theta rho0 h^2) for theta."""
    if spec.steady:
        return 0.0
    if spec.inviscid:
        return 1.0
    scale = spec.beta * rho0 * h * h
    if scale == 0:
        raise ValueError(f"unsteady flow (beta = {spec.beta}) needs beta rho0 h^2 "
                         f"nonzero, got rho0 = {rho0} and h = {h}")
    return mu0 / scale


def make_rhs(grid: GridSpec, coeff: CoefficientSet, seed: int = 0):
    """Random consistent right-hand side with its known solution.

    Draws ``x_exact`` in the unknown space from a seeded Philox stream,
    projects out null components, and returns ``(M x_exact, x_exact)``.
    The projection removes only the mean of the pressure and of each
    velocity component with a null constant, so a draw on a grid of at
    least two cells per axis never comes out degenerate in practice.
    """
    require_count("seed", seed, 0)
    gen = _generators(seed, 1)[0]
    x = StokesVector.zeros(grid)
    for a in range(grid.dim):
        view = x.u.interior(a)
        view[...] = gen.standard_normal(view.shape)
    x.p.data[...] = gen.standard_normal(grid.cells)
    x = project_nulls(x, coeff)
    return apply_M(x, coeff), x
