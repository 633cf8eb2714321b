"""Workload definitions, input generation and the correctness gate.

Each solve workload builds its coefficients and right-hand side from the
benchmark seed (bubble noise from ``seed``, ``make_rhs`` from ``seed + 1``)
before any timing starts; the program only ever sees the generated inputs.
The sweep workload hands the seed to the CLI through ``--seed``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from stokesmg import (
    NO_SLIP,
    PERIODIC,
    STRESS,
    BubbleSpec,
    CflSpec,
    GmresConfig,
    GridSpec,
    PrecondConfig,
    PrecondKind,
    SmootherParams,
    bubble_coefficients,
    cfl_to_theta,
    constant_coefficients,
    make_rhs,
    norm2,
    rescale,
)
from stokesmg.schur import SchurConfig

#: statuses the program reports for a solve that reached its target
GOOD_STATUS = ("converged", "breakdown")

#: problem instances a run rotates over; instance 0 is seeded by --seed alone
INSTANCES = 3
INSTANCE_STRIDE = 1000

SWEEP_PRESET = "fig4-precond-compare"
#: bound on a sweep point's true-residual reduction.  The preset stops GMRES
#: on the preconditioned residual at rtol 1e-10; the true residual lags it
#: (P4 reached 4.6e-11 at 128^2 and 1.1e-10 at 16^2), so the gate sits a
#: decade above rtol
SWEEP_RESID_TOL = 1e-9


@dataclass(frozen=True)
class SolveSpec:
    """One solve workload: problem shape, solver settings and gate tolerances.

    ``err_tol`` bounds the relative 2-norm error against ``make_rhs``'s
    known solution; it sits well above the errors measured at seed 0 when
    the benchmark was introduced (noted beside each workload) and well
    below anything a wrong solution reaches.
    """

    cells: tuple[int, ...]
    bc: object
    bubble: bool
    beta: float
    kind: PrecondKind
    exact: bool
    do_rescale: bool
    rtol: float
    max_iters: int
    err_tol: float
    restart: int = 10

    def grid(self) -> GridSpec:
        return GridSpec(self.cells, 1.0, ((self.bc, self.bc),) * len(self.cells))

    def pcfg(self) -> PrecondConfig:
        return PrecondConfig(kind=self.kind, velocity_cycles=1,
                             schur=SchurConfig(pressure_cycles=1),
                             exact_subsolvers=self.exact)

    def gcfg(self) -> GmresConfig:
        return GmresConfig(restart=self.restart, max_iters=self.max_iters,
                           rtol=self.rtol)


SOLVES = {
    "bubble2d-steady-p2": SolveSpec(
        cells=(256, 256), bc=NO_SLIP, bubble=True, beta=math.inf,
        kind=PrecondKind.P2, exact=False, do_rescale=True,
        rtol=1e-10, max_iters=200, err_tol=1e-8),  # measured 3.6e-10
    "bubble3d-unsteady-p1": SolveSpec(
        cells=(48, 48, 48), bc=NO_SLIP, bubble=True, beta=1.0,
        kind=PrecondKind.P1, exact=False, do_rescale=True,
        rtol=1e-10, max_iters=200, err_tol=1e-7),  # measured 5.2e-9
    "periodic-exact-p1": SolveSpec(
        cells=(48, 48), bc=PERIODIC, bubble=False, beta=math.inf,
        kind=PrecondKind.P1, exact=True, do_rescale=True,
        rtol=1e-10, max_iters=10, err_tol=1e-12),  # measured 5.2e-14
}
SWEEP = "sweep-fig4-jobs2"
WORKLOADS = tuple(SOLVES) + (SWEEP,)


def instance_seeds(seed: int) -> list[int]:
    """Seeds of the problem instances one run rotates over.

    Rotating over a few noise realizations keeps a run's medians from
    hanging on one realization's iteration count.
    """
    return [seed + INSTANCE_STRIDE * i for i in range(INSTANCES)]


@dataclass
class SolveInputs:
    """Everything a timed repetition passes to the program."""

    spec: SolveSpec
    seed: int
    coeff: object
    rhs: object
    x_exact: object
    unscale: object
    pcfg: PrecondConfig
    gcfg: GmresConfig
    smoother: SmootherParams


def make_inputs(spec: SolveSpec, seed: int) -> SolveInputs:
    grid = spec.grid()
    theta = cfl_to_theta(CflSpec(spec.beta), 1.0, 1.0, grid.h)
    if spec.bubble:
        coeff = bubble_coefficients(grid, BubbleSpec(r_mu=100.0, r_rho=100.0, seed=seed),
                                    theta=theta, viscous_form=STRESS)
    else:
        coeff = constant_coefficients(grid, theta=theta, viscous_form=STRESS)
    rhs, x_exact = make_rhs(grid, coeff, seed=seed + 1)
    unscale = None
    if spec.do_rescale:
        coeff, rhs, scale = rescale(coeff, rhs)
        unscale = scale.unscale_solution
    return SolveInputs(spec, seed, coeff, rhs, x_exact, unscale, spec.pcfg(),
                       spec.gcfg(), SmootherParams())


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def solve_failures(x, history, inputs: SolveInputs) -> list[str]:
    """Reasons one solve fails the gate; empty when it passes.

    A solve fails when its status is not converged/breakdown, when the
    final true residual over the initial one exceeds the workload's rtol,
    or when the unscaled solution misses ``x_exact`` by more than
    ``err_tol`` relative to ``|x_exact|``.
    """
    out = []
    if history.status not in GOOD_STATUS:
        out.append(f"status {history.status}")
    reduction = history.final_true_residual() / history.entries[0].resid_true
    if not reduction <= inputs.spec.rtol:
        out.append(f"true-residual reduction {reduction:.3e} > {inputs.spec.rtol:g}")
    x_phys = inputs.unscale(x) if inputs.unscale is not None else x
    err = norm2(x_phys - inputs.x_exact) / norm2(inputs.x_exact)
    if not err <= inputs.spec.err_tol:
        out.append(f"relative error {err:.3e} > {inputs.spec.err_tol:g}")
    return out


def read_manifest(outdir: str) -> list[dict] | None:
    """The ``runs`` rows of a sweep's manifest, or None when it is unreadable."""
    try:
        with open(os.path.join(outdir, "manifest.json")) as handle:
            return json.load(handle)["runs"]
    except (OSError, ValueError, KeyError):
        return None


def sweep_failures(code: int, outdir: str, rows, n_points: int) -> list[str]:
    """Gate one CLI sweep: one reason per failed point.

    Each sweep point is one operation. It fails when the exit code is
    non-zero, when its manifest row did not converge, or when its final true
    residual over the initial one in its history CSV exceeds
    ``SWEEP_RESID_TOL``. A missing manifest (``rows`` None) fails every point.
    """
    if rows is None:
        return [f"no manifest; exit code {code}"] * n_points
    failed = []
    for row in rows:
        reasons = [f"exit code {code}"] if code != 0 else []
        if row["status"] not in GOOD_STATUS:
            reasons.append(f"status {row['status']}")
        with open(os.path.join(outdir, row["file"])) as handle:
            initial = float(handle.read().splitlines()[1].split(",")[3])
        reduction = row["resid_true"] / initial
        if not reduction <= SWEEP_RESID_TOL:
            reasons.append(f"true-residual reduction {reduction:.3e} > {SWEEP_RESID_TOL:g}")
        if reasons:
            failed.append(f"point {row['index']}: " + "; ".join(reasons))
    return failed
