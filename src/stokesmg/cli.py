"""Batch experiment driver.

``stokesmg run`` executes GMRES solves over a cartesian sweep of config
fields, ``stokesmg mg-bench`` benchmarks the multigrid subsolvers alone,
``stokesmg spectrum`` emits dense eigenvalue reports, and
``stokesmg presets list`` shows the shipped experiment presets.  Configs
are single JSON trees (schema in the README); outputs are plot-ready CSV
files plus a JSON manifest, written atomically with the manifest last.

Exit codes: 0 success, 1 solver non-convergence (history still written),
2 invalid config or option, cap violation, or input the library refuses
(no partial outputs), 3 a solve hit non-finite values (NaN or infinity;
history still written), 4 the compiled stencil library could not be built
(no C compiler, or the compiler failed; no outputs).  Library modules check
their own inputs (``ValueError``); this module checks only config keys,
JSON value types, names, even cell counts and ``--jobs``, and runs every
check before it writes anything.  ``run``, ``mg-bench`` and ``spectrum``
load the stencil library before they write anything, and ``run`` before its
``--jobs`` workers fork, so the workers share one build.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, kernels
from ._exact import require_exact_size
from .grid import (
    FREE_SLIP,
    NO_SLIP,
    PERIODIC,
    CellField,
    FaceField,
    GridSpec,
    norm2,
)
from .krylov import GmresConfig, gmres_solve
from .multigrid import MAX_CYCLES, SmootherParams, build_hierarchy, mg_cycles
from .operators import LAPLACIAN, STRESS, STRESS_BULK, apply_A, apply_Lrho, rescale
from .precond import PrecondConfig, PrecondKind
from .problems import (
    PRNG_NAME,
    BubbleSpec,
    CflSpec,
    bubble_coefficients,
    bubble_density,
    cfl_to_theta,
    constant_coefficients,
    inviscid_coefficients,
    make_rhs,
)
from .schur import SchurConfig, SchurSign

OUT_ENV_VAR = "STOKESMG_OUT"

_BC = {
    "periodic": PERIODIC,
    "no_slip": NO_SLIP,
    "free_slip": FREE_SLIP,
}
_FORM = {
    "laplacian": LAPLACIAN,
    "stress": STRESS,
    "stress_bulk": STRESS_BULK,
}

CSV_HEADER = "iteration,scalar_vcycles,resid_precond,resid_true,restart_flag"
MG_CSV_HEADER = "solver,sweeps,cycle,resid,resid_rel"


class ConfigError(ValueError):
    """Invalid configuration; like any ``ValueError``, maps to exit code 2."""


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def _set(tree: dict, path: str, value) -> None:
    parts = path.split(".")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config path {path!r} crosses a non-object node")
    node[parts[-1]] = value


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


_JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}


def _typed(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind``: ``bool`` true or false,
    ``int`` an integer (a count), ``float`` any number (returned as a
    float), ``str`` a string (a name).  Only ``bool`` takes booleans."""
    types, name = _JSON_TYPES[kind]
    _require(isinstance(value, types) and isinstance(value, bool) == (kind is bool),
             f"{what} must be {name}, got {value!r}")
    try:
        return float(value) if kind is float else value
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{what} is out of range") from None


def _get(node: dict, key: str, default, kind: type, nullable: bool = False):
    """Config key ``key`` of ``node`` (``default`` when absent), typed by
    :func:`_typed`; ``nullable`` also lets JSON null through."""
    value = node.get(key, default)
    return value if nullable and value is None else _typed(value, kind, key)


_LEAF = None
_ANY = "any"
_SCHEMA = {
    "problem": {
        "kind": _LEAF, "dim": _LEAF, "cells": _LEAF, "h": _LEAF, "bc": _LEAF,
        "viscous_form": _LEAF, "mu0": _LEAF, "rho0": _LEAF, "gamma0": _LEAF,
        "beta": _LEAF, "seed": _LEAF, "rescale": _LEAF,
        "bubble": {"r_mu": _LEAF, "r_rho": _LEAF, "epsilon": _LEAF,
                   "radius": _LEAF, "noise_amp": _LEAF,
                   "positive_outside": _LEAF},
    },
    "solver": {
        "precond": {"kind": _LEAF, "velocity_cycles": _LEAF,
                    "pressure_cycles": _LEAF, "schur_sign": _LEAF,
                    "exact_subsolvers": _LEAF},
        "gmres": {"restart": _LEAF, "max_iters": _LEAF, "rtol": _LEAF,
                  "atol": _LEAF, "track_true_residual": _LEAF},
        "smoother": {"omega": _LEAF, "sweeps_down": _LEAF, "sweeps_up": _LEAF,
                     "bottom_sweeps": _LEAF},
    },
    "sweep": _ANY,
    "mg_bench": {"target": _LEAF, "sweeps": _LEAF, "max_cycles": _LEAF,
                 "rtol": _LEAF},
    "spectrum": {"which": _LEAF},
    "_sweep_point": _ANY,
}


def validate_keys(tree: dict, schema=None, prefix: str = "") -> None:
    """Reject unknown config keys so sweep-path typos fail loudly."""
    if schema is None:
        schema = _SCHEMA
    for key, value in tree.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {prefix + key!r} must be an object")
            validate_keys(value, sub, prefix + key + ".")


def build_grid(problem: dict) -> GridSpec:
    dim = _get(problem, "dim", 2, int)
    # checked before (cells,) * dim is built from it
    _require(dim in (2, 3), f"dim must be 2 or 3, got {dim}")
    cells = problem.get("cells", 64)
    if isinstance(cells, list):
        cells = tuple(_typed(n, int, "cells entry") for n in cells)
    else:
        cells = (_typed(cells, int, "cells"),) * dim
    _require(len(cells) == dim, "cells must match dim")
    _require(all(n >= 4 and n % 2 == 0 for n in cells),
             f"cell counts must be even and >= 4, got {cells}")
    h = _get(problem, "h", 1.0, float)
    bc_spec = problem.get("bc", "no_slip")
    if not isinstance(bc_spec, list):
        bc_spec = [_typed(bc_spec, str, "bc")] * dim
    _require(len(bc_spec) == dim, "bc must be a name or one name per axis")
    bc = []
    for name in bc_spec:
        _require(_typed(name, str, "bc entry") in _BC,
                 f"unknown boundary condition {name!r}")
        bc.append((_BC[name], _BC[name]))
    return GridSpec(cells, h, tuple(bc))


def _parse_beta(problem: dict) -> CflSpec:
    raw = problem.get("beta", "inf")
    if isinstance(raw, str):
        _require(raw in ("inf", "infinity"), f"beta must be a number or 'inf', got {raw!r}")
        return CflSpec(math.inf)
    return CflSpec(_typed(raw, float, "beta"))


def build_problem(problem: dict, seed_override: int | None = None):
    """Return (grid, coeff, rhs, seed) for a problem block."""
    grid = build_grid(problem)
    kind = _get(problem, "kind", "constant", str)
    _require(kind in ("constant", "bubble"), f"unknown problem kind {kind!r}")
    form_name = _get(problem, "viscous_form", "stress", str)
    _require(form_name in _FORM, f"unknown viscous form {form_name!r}")
    form = _FORM[form_name]
    mu0 = _get(problem, "mu0", 1.0, float)
    rho0 = _get(problem, "rho0", 1.0, float)
    gamma0 = _get(problem, "gamma0", 0.0, float)
    seed = _get(problem, "seed", 0, int) if seed_override is None else int(seed_override)
    cfl = _parse_beta(problem)
    theta = cfl_to_theta(cfl, mu0, rho0, grid.h)

    bubble_cfg = problem.get("bubble", {})
    spec = BubbleSpec(
        r_mu=_get(bubble_cfg, "r_mu", 100.0, float),
        r_rho=_get(bubble_cfg, "r_rho", 100.0, float),
        epsilon=_get(bubble_cfg, "epsilon", None, float, nullable=True),
        radius=_get(bubble_cfg, "radius", None, float, nullable=True),
        noise_amp=_get(bubble_cfg, "noise_amp", 0.1, float),
        seed=seed,
        positive_outside=_get(bubble_cfg, "positive_outside", True, bool),
    )

    if cfl.inviscid:
        if kind == "bubble":
            rho = bubble_density(grid, spec, rho0)
        else:
            rho = CellField.full(grid, rho0)
        coeff = inviscid_coefficients(grid, rho, theta=theta)
    elif kind == "bubble":
        coeff = bubble_coefficients(grid, spec, theta=theta, viscous_form=form,
                                    mu0=mu0, rho0=rho0, gamma0=gamma0)
    else:
        coeff = constant_coefficients(grid, mu0=mu0, rho0=rho0, theta=theta,
                                      viscous_form=form, gamma0=gamma0)
    rhs, _ = make_rhs(grid, coeff, seed=seed + 1)
    return grid, coeff, rhs, seed


def build_solver(solver: dict):
    pre = solver.get("precond", {})
    pcfg = PrecondConfig(
        kind=PrecondKind(_get(pre, "kind", "P2", str)),
        velocity_cycles=_get(pre, "velocity_cycles", 1, int),
        schur=SchurConfig(sign=SchurSign(_get(pre, "schur_sign", "minus", str)),
                          pressure_cycles=_get(pre, "pressure_cycles", 1, int)),
        exact_subsolvers=_get(pre, "exact_subsolvers", False, bool),
    )
    gm = solver.get("gmres", {})
    gcfg = GmresConfig(
        restart=_get(gm, "restart", 10, int),
        max_iters=_get(gm, "max_iters", 200, int),
        rtol=_get(gm, "rtol", 1e-9, float),
        atol=_get(gm, "atol", 0.0, float),
        track_true_residual=_get(gm, "track_true_residual", True, bool),
    )
    sm = solver.get("smoother", {})
    smoother = SmootherParams(
        omega=_get(sm, "omega", 1.0, float),
        sweeps_down=_get(sm, "sweeps_down", 2, int),
        sweeps_up=_get(sm, "sweeps_up", 2, int),
        bottom_sweeps=_get(sm, "bottom_sweeps", 8, int),
    )
    return pcfg, gcfg, smoother


def expand_sweep(config: dict) -> list[dict]:
    """Cartesian product over the ``sweep`` block's dotted paths; a block
    that is present must be a nonempty object."""
    if "sweep" not in config:
        return [copy.deepcopy(config)]
    sweep = config["sweep"]
    _require(isinstance(sweep, dict) and sweep,
             "sweep must map config paths to value lists")
    paths = sorted(sweep)
    for p in paths:
        _require(isinstance(sweep[p], list) and sweep[p],
                 f"sweep entry {p!r} must be a nonempty list")
    points = [{}]
    for p in paths:
        points = [dict(pt, **{p: v}) for pt in points for v in sweep[p]]
    out = []
    for pt in points:
        cfg = copy.deepcopy(config)
        cfg.pop("sweep", None)
        for path, value in pt.items():
            _set(cfg, path, value)
        cfg["_sweep_point"] = pt
        out.append(cfg)
    return out


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def history_csv(history) -> str:
    lines = [CSV_HEADER]
    for it, cyc, rp, rt, flag in history.rows():
        lines.append(f"{it},{cyc},{_fmt(rp)},{_fmt(rt)},{flag}")
    return "\n".join(lines) + "\n"


def _manifest(command: str, config: dict, runs: list[dict]) -> dict:
    return {
        "command": command,
        "version": __version__,
        "prng": PRNG_NAME,
        "config": config,
        "runs": runs,
        "created_unix": time.time(),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_point(args):
    index, cfg, seed_override = args
    grid, coeff, rhs, seed = build_problem(cfg.get("problem", {}), seed_override)
    pcfg, gcfg, smoother = build_solver(cfg.get("solver", {}))
    t0 = time.perf_counter()
    if _get(cfg.get("problem", {}), "rescale", True, bool):
        coeff, rhs, _ = rescale(coeff, rhs)
    x, history = gmres_solve(rhs, coeff, pcfg, gcfg, smoother)
    wall = time.perf_counter() - t0
    row = {
        "index": index,
        "file": f"run_{index:03d}.csv",
        "sweep_point": cfg.get("_sweep_point", {}),
        "seed": seed,
        "status": history.status,
        "iterations": history.iterations,
        "scalar_vcycles": history.entries[-1].scalar_vcycles,
        "resid_precond": history.entries[-1].resid_precond,
        "resid_true": history.entries[-1].resid_true,
        "wall_time_s": wall,
    }
    return row, history_csv(history)


def cmd_run(config: dict, outdir: str, jobs: int, seed_override: int | None) -> int:
    validate_keys(config)
    points = expand_sweep(config)
    # validate every sweep point before any output is written, the solver
    # block before the costlier problem block; each distinct problem block
    # is built once
    grids = {}
    for cfg in points:
        validate_keys(cfg)
        pcfg, _, _ = build_solver(cfg.get("solver", {}))
        problem = cfg.get("problem", {})
        key = json.dumps(problem, sort_keys=True)
        if key not in grids:
            grids[key] = build_problem(problem, seed_override)[0]
        grid = grids[key]
        _get(problem, "rescale", True, bool)
        if pcfg.exact_subsolvers:
            require_exact_size(grid)
    kernels.load()
    os.makedirs(outdir, exist_ok=True)
    tasks = [(i, cfg, seed_override) for i, cfg in enumerate(points)]
    # a forked pool starts all its workers at once: no more than there are points
    workers = min(jobs, len(tasks))
    if workers > 1:
        # the workers share the cores: each runs its library calls on its part
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=kernels.set_threads,
                initargs=(kernels.team_size(workers),)) as pool:
            results = list(pool.map(_run_point, tasks))
    else:
        results = [_run_point(t) for t in tasks]
    rows = []
    for row, csv_text in results:
        _atomic_write(os.path.join(outdir, row["file"]), csv_text)
        rows.append(row)
    manifest = _manifest("run", config, rows)
    _atomic_write(os.path.join(outdir, "manifest.json"),
                  json.dumps(manifest, indent=2) + "\n")
    if any(r["status"] == "nonfinite" for r in rows):
        return 3
    return 0 if all(r["status"] in ("converged", "breakdown") for r in rows) else 1


def _mg_bench_rows(grid, coeff, target: str, params: SmootherParams, max_cycles: int,
                   rtol: float, seed: int) -> list[tuple]:
    sweeps = params.sweeps_down
    hier = build_hierarchy(grid, coeff)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if target == "pressure":
        rhs = CellField(grid, gen.standard_normal(grid.cells))
        rhs.data -= rhs.data.mean()
        operator = apply_Lrho
    else:
        rhs = FaceField.zeros(grid)
        for a in range(grid.dim):
            view = rhs.interior(a)
            view[...] = gen.standard_normal(view.shape)
        operator = apply_A
    r0 = norm2(rhs)
    rows = [(target, sweeps, 0, r0, 1.0)]
    # the range comes first so zip stops before asking for an extra cycle
    for cycle, x in zip(range(1, max_cycles + 1), mg_cycles(rhs, hier, params)):
        rn = norm2(operator(x, coeff, rhs=rhs))
        rows.append((target, sweeps, cycle, rn, rn / r0))
        if rn <= rtol * r0:
            break
    return rows


def cmd_mg_bench(config: dict, outdir: str) -> int:
    validate_keys(config)
    problem = config.get("problem", {})
    bench = config.get("mg_bench", {})
    target = _get(bench, "target", "both", str)
    _require(target in ("pressure", "velocity", "both"), f"bad mg-bench target {target!r}")
    sweeps_list = bench.get("sweeps", [1, 2, 3, 4])
    _require(isinstance(sweeps_list, list), "mg_bench.sweeps must be a list")
    smoothers = [SmootherParams(sweeps_down=n, sweeps_up=n)
                 for n in (_typed(s, int, "sweeps entry") for s in sweeps_list)]
    max_cycles = _get(bench, "max_cycles", 15, int)
    _require(1 <= max_cycles <= MAX_CYCLES,
             f"mg_bench.max_cycles must lie in [1, {MAX_CYCLES}], got {max_cycles}")
    rtol = _get(bench, "rtol", 1e-12, float)
    _require(0 <= rtol < math.inf,
             f"mg_bench.rtol must be nonnegative and finite, got {rtol}")
    grid, coeff, _, seed = build_problem(problem)
    targets = ("pressure", "velocity") if target == "both" else (target,)
    if "velocity" in targets and coeff.theta == 0 and coeff.inviscid:
        raise ConfigError("velocity benchmark needs a nonsingular operator")
    kernels.load()
    os.makedirs(outdir, exist_ok=True)
    lines = [MG_CSV_HEADER]
    for tgt in targets:
        for params in smoothers:
            for row in _mg_bench_rows(grid, coeff, tgt, params, max_cycles,
                                      rtol, seed):
                name, s, cyc, r, rel = row
                lines.append(f"{name},{s},{cyc},{_fmt(r)},{_fmt(rel)}")
    _atomic_write(os.path.join(outdir, "mg_bench.csv"), "\n".join(lines) + "\n")
    manifest = _manifest("mg-bench", config, [{"file": "mg_bench.csv"}])
    _atomic_write(os.path.join(outdir, "manifest.json"),
                  json.dumps(manifest, indent=2) + "\n")
    return 0


def cmd_spectrum(config: dict, outdir: str) -> int:
    from .spectrum import analyze_stokes_spectrum

    validate_keys(config)
    which = _get(config.get("spectrum", {}), "which", "precondS", str)
    grid, coeff, _, _ = build_problem(config.get("problem", {}))
    kernels.load()
    report = analyze_stokes_spectrum(grid, coeff, which)
    os.makedirs(outdir, exist_ok=True)
    _atomic_write(os.path.join(outdir, "spectrum.json"), report.to_json(indent=2) + "\n")
    manifest = _manifest("spectrum", config, [{"file": "spectrum.json"}])
    _atomic_write(os.path.join(outdir, "manifest.json"),
                  json.dumps(manifest, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _preset(command, description, config, paper_scale=None):
    return {
        "command": command,
        "description": description,
        "config": config,
        "paper_scale": paper_scale or {},
    }


PRESETS = {
    "constant-periodic-steady": _preset(
        "run",
        "constant-coefficient periodic steady Stokes, P1 with exact subsolvers",
        {
            "problem": {"kind": "constant", "dim": 2, "cells": 64, "bc": "periodic",
                        "beta": "inf", "seed": 0},
            "solver": {"precond": {"kind": "P1", "exact_subsolvers": True},
                       "gmres": {"rtol": 1e-10, "max_iters": 10}},
        },
    ),
    "bubble-2d": _preset(
        "run",
        "steady contrast-100 bubble, P2, restart 10",
        {
            "problem": {"kind": "bubble", "dim": 2, "cells": 128, "bc": "no_slip",
                        "beta": "inf", "seed": 0},
            "solver": {"precond": {"kind": "P2"},
                       "gmres": {"restart": 10, "rtol": 1e-11, "max_iters": 200}},
        },
        paper_scale={"problem.cells": 512},
    ),
    "fig1-mg-sweeps": _preset(
        "mg-bench",
        "multigrid residual vs V-cycle count for 1..4 smoothing sweeps",
        {
            "problem": {"kind": "constant", "dim": 2, "cells": 256, "bc": "no_slip",
                        "beta": "inf", "seed": 0},
            "mg_bench": {"target": "both", "sweeps": [1, 2, 3, 4],
                         "max_cycles": 20, "rtol": 1e-12},
        },
        paper_scale={"problem.cells": 512},
    ),
    "fig2-vcycles": _preset(
        "run",
        "V-cycles per preconditioner application (1, 2, 4) on the bubble",
        {
            "problem": {"kind": "bubble", "dim": 2, "cells": 64, "bc": "no_slip",
                        "beta": "inf", "seed": 0},
            "solver": {"precond": {"kind": "P1"},
                       "gmres": {"restart": 10, "rtol": 1e-10, "max_iters": 300}},
            "sweep": {"solver.precond.velocity_cycles": [1, 2, 4],
                      "solver.precond.pressure_cycles": [1]},
        },
        paper_scale={"problem.cells": 512},
    ),
    "fig3-restarts": _preset(
        "run",
        "restart frequency 5 vs 10 for P1, P2, P3 on the steady bubble",
        {
            "problem": {"kind": "bubble", "dim": 2, "cells": 64, "bc": "no_slip",
                        "beta": "inf", "seed": 0},
            "solver": {"gmres": {"rtol": 1e-10, "max_iters": 300}},
            "sweep": {"solver.gmres.restart": [5, 10],
                      "solver.precond.kind": ["P1", "P2", "P3"]},
        },
        paper_scale={"problem.cells": 512},
    ),
    "fig4-precond-compare": _preset(
        "run",
        "all five preconditioners on the steady contrast-100 bubble",
        {
            "problem": {"kind": "bubble", "dim": 2, "cells": 128, "bc": "no_slip",
                        "beta": "inf", "seed": 0},
            "solver": {"gmres": {"restart": 10, "rtol": 1e-10, "max_iters": 400}},
            "sweep": {"solver.precond.kind": ["P1", "P2", "P3", "P4", "P5"]},
        },
        paper_scale={"problem.cells": 512},
    ),
    "fig5-cfl": _preset(
        "run",
        "viscous CFL sweep beta in {0, 1, 1e4, inf} for P1 and P2",
        {
            "problem": {"kind": "bubble", "dim": 2, "cells": 64, "bc": "no_slip",
                        "seed": 0},
            "solver": {"gmres": {"restart": 10, "rtol": 1e-10, "max_iters": 300}},
            "sweep": {"problem.beta": [0, 1, 10000.0, "inf"],
                      "solver.precond.kind": ["P1", "P2"]},
        },
        paper_scale={"problem.cells": 512},
    ),
    "fig6-scaling": _preset(
        "run",
        "grid-size robustness at contrast 2 for P1 and P2",
        {
            "problem": {"kind": "bubble", "dim": 2, "cells": 64, "bc": "no_slip",
                        "beta": "inf", "seed": 0,
                        "bubble": {"r_mu": 2, "r_rho": 2}},
            "solver": {"gmres": {"restart": 10, "rtol": 1e-10, "max_iters": 300}},
            "sweep": {"problem.cells": [64, 128, 256],
                      "solver.precond.kind": ["P1", "P2"]},
        },
        paper_scale={"problem.cells": [128, 256, 512]},
    ),
    "fig7-spectrum": _preset(
        "spectrum",
        "eigenvalue histogram of the preconditioned Schur complement",
        {
            "problem": {"kind": "bubble", "dim": 2, "cells": 16, "bc": "no_slip",
                        "beta": "inf", "seed": 0},
            "spectrum": {"which": "precondS"},
        },
        paper_scale={"problem.cells": 32},
    ),
}


def load_config(args) -> tuple[str | None, dict]:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("specify exactly one of --config or --preset")
    if args.config:
        try:
            with open(args.config) as handle:
                config = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        return None, config
    if args.preset not in PRESETS:
        raise ConfigError(
            f"unknown preset {args.preset!r}; run 'stokesmg presets list'"
        )
    preset = PRESETS[args.preset]
    config = copy.deepcopy(preset["config"])
    if getattr(args, "paper_scale", False):
        # a path the preset sweeps over takes the scaled list in the sweep
        # itself, which would otherwise override it at every point
        sweep = config.get("sweep", {})
        for path, value in preset["paper_scale"].items():
            if path in sweep:
                sweep[path] = value
            else:
                _set(config, path, value)
    return preset["command"], config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stokesmg",
        description="staggered-grid Stokes solver benchmark driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help="named preset (see 'presets list')")
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./stokesmg-out)")
        p.add_argument("--paper-scale", action="store_true",
                       help="use the publication problem sizes")

    p_run = sub.add_parser("run", help="GMRES solve sweeps")
    add_common(p_run)
    p_run.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    p_run.add_argument("--seed", type=int, default=None, help="override problem seed")

    p_mg = sub.add_parser("mg-bench", help="multigrid subsolver benchmark")
    add_common(p_mg)

    p_sp = sub.add_parser("spectrum", help="dense eigenvalue report")
    add_common(p_sp)

    p_pr = sub.add_parser("presets", help="preset utilities")
    p_pr.add_argument("action", choices=["list"])

    args = parser.parse_args(argv)

    if args.command == "presets":
        for name in sorted(PRESETS):
            print(f"{name:26s} [{PRESETS[name]['command']}] {PRESETS[name]['description']}")
        return 0

    try:
        preset_command, config = load_config(args)
        if preset_command is not None and preset_command != args.command:
            raise ConfigError(
                f"preset {args.preset!r} belongs to subcommand {preset_command!r}"
            )
        outdir = args.out or os.environ.get(OUT_ENV_VAR) or "./stokesmg-out"
        if args.command == "run":
            if args.jobs < 1:
                raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
            return cmd_run(config, outdir, args.jobs, args.seed)
        if args.command == "mg-bench":
            return cmd_mg_bench(config, outdir)
        return cmd_spectrum(config, outdir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except kernels.KernelBuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
