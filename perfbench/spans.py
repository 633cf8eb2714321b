"""Span tracing around stokesmg's public functions, and per-layer metrics.

The traced run replaces module attributes with wrappers that record one
span per call (name, start, end, parent, and for smoothers the level's cell
count) in memory.  Each wrapper is installed where the caller looks the
function up, e.g. ``stokesmg.multigrid.smooth_face`` for the V-cycle or
``stokesmg.krylov.apply_M`` for GMRES, so the program itself is unchanged.
Span names are ``site:function``; ``site`` is the module whose call was
wrapped.  A span's self time is its duration minus its children's.

Per-layer metrics are sums per solve (medians over the traced
repetitions).  ``_s`` metrics are inclusive span time unless named
``self``; a layer that did not run on a workload reports 0.  Notes:

- ``operators.apply_A_*`` counts every apply_A call; the smoother evaluates
  its rows through a private kernel and makes none.  ``apply_Lrho`` calls
  include the smoother's and carry the per-call density check.
- ``multigrid.residual_s`` is apply_A/apply_Lrho called from the V-cycle,
  not from a smoother.  ``smooth_*.L<k>`` are per level (0 finest).
- ``multigrid.smooth_share`` is smoother self time over ``trace.solve_s``
  (the traced solve), reported with that base.
- ``exact.factor_s`` is dense-solver construction minus probing, and
  ``exact.factor_bytes`` is n^2 * 8 per dense factor, computed, not measured.
- Sweep points run in the CLI's worker processes; each worker traces its
  points (see :func:`traced_run_point`) and the sums cover all five.
"""

from __future__ import annotations

import functools
import math
import time

from stokesmg import _exact, cli, krylov, multigrid, operators, precond

MAX_LEVELS = 8  # 256^2 coarsens 256 -> 2: eight levels, the deepest workload

#: (name, unit) of every per-layer metric, in output order
PER_LAYER = [
    ("krylov.kernel_self_s", "s"),
    ("krylov.apply_op_calls", "count"),
    ("krylov.true_resid_s", "s"),
    ("krylov.pack_s", "s"),
    ("krylov.gmres_iters", "count"),
    ("operators.apply_M_s", "s"),
    ("operators.apply_M_calls", "count"),
    ("operators.apply_A_s", "s"),
    ("operators.apply_A_calls", "count"),
    ("operators.apply_Lrho_s", "s"),
    ("operators.apply_Lrho_calls", "count"),
    ("precond.apply_s", "s"),
    ("precond.apply_calls", "count"),
    ("precond.velocity_solve_s", "s"),
    ("precond.velocity_solve_calls", "count"),
    ("precond.pressure_solve_s", "s"),
    ("precond.pressure_solve_calls", "count"),
    ("schur.apply_inv_self_s", "s"),
    ("multigrid.build_hierarchy_s", "s"),
    ("multigrid.diag_s", "s"),
    *[(f"multigrid.{kind}.L{k}_{what}", unit)
      for kind in ("smooth_face", "smooth_cell")
      for k in range(MAX_LEVELS)
      for what, unit in (("s", "s"), ("calls", "count"))],
    ("multigrid.residual_s", "s"),
    ("multigrid.restrict_s", "s"),
    ("multigrid.prolong_s", "s"),
    ("multigrid.smooth_self_s", "s"),
    ("multigrid.smooth_share", "ratio"),
    ("multigrid.scalar_vcycles", "count"),
    ("multigrid.s_per_vcycle", "s"),
    ("exact.probe_s", "s"),
    ("exact.probe_applications", "count"),
    ("exact.factor_s", "s"),
    ("exact.solve_s", "s"),
    ("exact.factor_bytes", "B-computed"),
    ("cli.points", "count"),
    ("cli.workers", "count"),
    ("cli.point_wall_sum_s", "s"),
    ("cli.cpu_per_wall", "ratio"),
    ("trace.solve_s", "s"),
    ("trace.untraced_solve_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

SMOOTHERS = ("multigrid:smooth_face", "multigrid:smooth_cell")
RESIDUAL = ("multigrid:apply_A", "multigrid:apply_Lrho")
#: root spans whose duration is the traced solve time
SOLVE_ROOTS = ("bench:solve", "cli:gmres_solve")


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, attr]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def begin(self, name: str, attr=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attr])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, attr=None):
        """``fn`` recording a span per call; ``attr(*args)`` tags the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, attr(*args, **kwargs) if attr else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced


def _smoother_cells(x, rhs, grid, *rest):
    return grid.cells[0]


def _face_bytes(grid, coeff):
    n = sum(grid.n_face_unknowns(a) for a in range(grid.dim))
    return 8 * n * n


def _cell_bytes(grid, coeff):
    n = grid.n_cell_unknowns()
    return 8 * n * n


def install(tracer: Tracer, sweep_worker: bool = False):
    """Wrap the traced boundaries; returns a function that undoes it."""
    saved = []

    def patch(owner, attr, wrapper_of):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def span(site, attr=None):
        return lambda fn: tracer.wrap(fn, f"{site}:{fn.__qualname__}", attr)

    def traced_kernel(kernel):
        @functools.wraps(kernel)
        def run(apply_op, b, restart, max_iters, target, breakdown_tol, callback=None):
            op = tracer.wrap(apply_op, "krylov:apply_op")
            cb = callback and tracer.wrap(callback, "krylov:true_resid")
            return kernel(op, b, restart, max_iters, target, breakdown_tol, cb)

        return tracer.wrap(run, "krylov:gmres_kernel")

    def traced_probe(probe):
        def counted(op_vec, n):
            def op(v):
                tracer.count("exact.probe_applications")
                return op_vec(v)

            return probe(op, n)

        return tracer.wrap(functools.wraps(probe)(counted), "_exact:probe_columns")

    def traced_factor(init, nbytes):
        def build(self, grid, coeff):
            tracer.count("exact.factor_bytes", nbytes(grid, coeff))
            return init(self, grid, coeff)

        return tracer.wrap(functools.wraps(init)(build), f"_exact:{init.__qualname__}")

    patch(krylov, "gmres_kernel", traced_kernel)
    for name in ("apply_M", "pack_stokes", "unpack_stokes"):
        patch(krylov, name, span("krylov"))
    patch(operators, "apply_A", span("operators"))
    for name in ("build_hierarchy", "mg_solve", "apply_schur_inv", "apply_A"):
        patch(precond, name, span("precond"))
    for name in ("apply", "velocity_solve", "pressure_solve"):
        patch(precond.Preconditioner, name, span("precond"))
    for name in ("smooth_face", "smooth_cell"):
        patch(multigrid, name, span("multigrid", _smoother_cells))
    for name in ("apply_A", "apply_Lrho", "restrict_cell", "restrict_face",
                 "prolong_cell", "prolong_face"):
        patch(multigrid, name, span("multigrid"))
    for name in ("diag_cell", "diag_face"):
        patch(multigrid.MgHierarchy, name, span("multigrid"))
    patch(_exact, "probe_columns", traced_probe)
    patch(_exact.DenseFaceSolver, "__init__", lambda f: traced_factor(f, _face_bytes))
    patch(_exact.DenseCellSolver, "__init__", lambda f: traced_factor(f, _cell_bytes))
    for cls in (_exact.DenseFaceSolver, _exact.DenseCellSolver):
        patch(cls, "solve", span("_exact"))
    if sweep_worker:
        patch(cli, "gmres_solve", span("cli"))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


_cli_run_point = cli._run_point  # captured before any patching
_worker_tracer: Tracer | None = None  # one per sweep worker process


def traced_run_point(task):
    """Stand-in for ``cli._run_point`` that traces one sweep point.

    It runs in the CLI's worker processes, which unpickle it by module
    path.  The first call in a worker installs the wrappers there; each
    call returns the point's raw layer sums in its manifest row under
    ``perfbench_layers``.
    """
    global _worker_tracer
    if _worker_tracer is None:
        _worker_tracer = Tracer()
        install(_worker_tracer, sweep_worker=True)
    _worker_tracer.reset()
    row, csv_text = _cli_run_point(task)
    row["perfbench_layers"] = raw_layers(_worker_tracer)
    return row, csv_text


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def raw_layers(tracer: Tracer) -> dict[str, float]:
    """Additive per-layer sums of one traced stretch (times, calls, counts).

    Ratios are left to :func:`finish_layers` so sums from several sweep
    points can be added first.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update(tracer.counts)
    smoother_n = [s[4] for s in spans if s[0] in SMOOTHERS]
    fine = max(smoother_n) if smoother_n else 0

    def add(key, value):
        out[key] += value

    for s, own in zip(spans, selfs):
        name, dur = s[0], s[2] - s[1]
        func = name.split(":", 1)[1]
        parent = spans[s[3]][0] if s[3] >= 0 else None
        if name in SOLVE_ROOTS:
            add("trace.solve_s", dur)
        elif name == "krylov:gmres_kernel":
            add("krylov.kernel_self_s", own)
        elif name == "krylov:apply_op":
            add("krylov.apply_op_calls", 1)
        elif name == "krylov:true_resid":
            add("krylov.true_resid_s", dur)
        elif func in ("pack_stokes", "unpack_stokes"):
            add("krylov.pack_s", dur)
        elif func in ("apply_M", "apply_A", "apply_Lrho"):
            add(f"operators.{func}_s", dur)
            add(f"operators.{func}_calls", 1)
            if name in RESIDUAL and parent not in SMOOTHERS:
                add("multigrid.residual_s", dur)
        elif name.startswith("precond:Preconditioner."):
            key = func.split(".")[1]
            add(f"precond.{key}_s", dur)
            add(f"precond.{key}_calls", 1)
        elif name == "precond:apply_schur_inv":
            add("schur.apply_inv_self_s", own)
        elif name == "precond:build_hierarchy":
            add("multigrid.build_hierarchy_s", dur)
        elif func.startswith("MgHierarchy.diag_"):
            add("multigrid.diag_s", dur)
        elif name in SMOOTHERS:
            level = int(round(math.log2(fine / s[4])))
            add(f"multigrid.{func}.L{level}_s", dur)
            add(f"multigrid.{func}.L{level}_calls", 1)
            add("multigrid.smooth_self_s", own)
        elif func.startswith("restrict_"):
            add("multigrid.restrict_s", dur)
        elif func.startswith("prolong_"):
            add("multigrid.prolong_s", dur)
        elif name == "_exact:probe_columns":
            add("exact.probe_s", dur)
        elif name.startswith("_exact:") and func.endswith(".__init__"):
            add("exact.factor_s", own)
        elif name.startswith("_exact:") and func.endswith(".solve"):
            add("exact.solve_s", dur)
    return out


def finish_layers(raw: dict[str, float]) -> dict[str, float]:
    """Add the ratio metrics to summed raw layers."""
    out = dict(raw)
    solve = out["trace.solve_s"]
    out["multigrid.smooth_share"] = out["multigrid.smooth_self_s"] / solve if solve else 0.0
    return out
