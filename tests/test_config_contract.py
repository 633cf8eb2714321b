"""The config contract as a property.

Every leaf of ``cli._SCHEMA`` is set, one at a time, in a tiny config in
which it runs, to a hostile JSON value: NaN, +-Infinity, -1, 0, 1e300,
1e-300, 10^400, 10^12, 2.5, ``"x"``, ``true`` or ``null``, either directly
or through a one-value sweep list.  ``cli.main`` runs in process and must
either exit 2 having written nothing, or have been given a value that
``LEGAL`` (the README schema's documented ranges) accepts and finish
within a time budget with a manifest.  A refusal is always allowed: a
documented value may still be refused when what it builds cannot be
allocated or overflows.  An exception, a hang or an illegal value that
runs fails the property.
"""

import copy
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest
from stokesmg import cli, kernels, krylov
from stokesmg.multigrid import MAX_CYCLES, MAX_SWEEPS

VALUES = [math.nan, math.inf, -math.inf, -1, 0, 1e300, 1e-300, 10**400, 10**12, 2.5,
          "x", True, None]

#: seconds one example may take; a legal tiny config finishes in milliseconds
BUDGET_S = 5.0

SOLVER = {
    "precond": {"kind": "P2", "velocity_cycles": 1, "pressure_cycles": 1,
                "schur_sign": "minus", "exact_subsolvers": False},
    "gmres": {"restart": 10, "max_iters": 20, "rtol": 1e-2, "atol": 0.0,
              "track_true_residual": True},
    "smoother": {"omega": 1.0, "sweeps_down": 2, "sweeps_up": 2, "bottom_sweeps": 8},
}
PROBLEM = {
    "kind": "bubble", "dim": 2, "cells": 8, "h": 1.0, "bc": "no_slip",
    "viscous_form": "stress_bulk", "mu0": 1.0, "rho0": 1.0, "gamma0": 0.5,
    "beta": "inf", "seed": 0, "rescale": True,
    "bubble": {"r_mu": 10.0, "r_rho": 10.0, "epsilon": 1.0, "radius": 2.0,
               "noise_amp": 0.1, "positive_outside": True},
}
#: (command, config) per base: a steady P2 run never solves for pressure,
#: so the unsteady P1 run is where the pressure solve and theta's inputs run
BASES = {
    "steady-p2": ("run", {"problem": PROBLEM, "solver": SOLVER}),
    "unsteady-p1": ("run", {"problem": dict(PROBLEM, beta=1.0),
                            "solver": dict(SOLVER, precond=dict(SOLVER["precond"],
                                                                kind="P1"))}),
    "mg-bench": ("mg-bench", {"problem": PROBLEM,
                              "mg_bench": {"target": "both", "sweeps": [1, 2],
                                           "max_cycles": 4, "rtol": 1e-12}}),
    "spectrum": ("spectrum", {"problem": dict(PROBLEM, cells=4),
                              "spectrum": {"which": "precondS"}}),
}


def _float(ok):
    """A JSON number (not a boolean) within float range, passing ``ok``."""
    def legal(v):
        if type(v) not in (int, float):
            return False
        try:
            return ok(float(v))
        except OverflowError:
            return False
    return legal


def _count(lo, hi=math.inf):
    return lambda v: type(v) is int and lo <= v <= hi


def _name(*names):
    return lambda v: type(v) is str and v in names


def _flag(v):
    return type(v) is bool


def _nullable(legal):
    return lambda v: v is None or legal(v)


def _finite(x):
    return math.isfinite(x)


def _positive(x):
    return 0 < x < math.inf


def _spacing(h):
    return 0 < h * h < math.inf and 1 / (h * h) < math.inf


#: the values the README documents for each leaf
LEGAL = {
    "problem.kind": _name("constant", "bubble"),
    "problem.dim": lambda v: type(v) is int and v in (2, 3),
    "problem.cells": lambda v: type(v) is int and v >= 4 and v % 2 == 0,
    "problem.h": _float(lambda h: h > 0 and _spacing(h)),
    "problem.bc": _name("periodic", "no_slip", "free_slip"),
    "problem.viscous_form": _name("laplacian", "stress", "stress_bulk"),
    "problem.mu0": _float(_positive),
    "problem.rho0": _float(_positive),
    "problem.gamma0": _float(_finite),
    "problem.beta": lambda v: _name("inf", "infinity")(v) or _float(lambda b: b >= 0)(v),
    "problem.seed": _count(0),
    "problem.rescale": _flag,
    "problem.bubble.r_mu": _float(lambda r: 1 <= r < math.inf),
    "problem.bubble.r_rho": _float(lambda r: 1 <= r < math.inf),
    "problem.bubble.epsilon": _nullable(_float(lambda e: e > 0)),
    "problem.bubble.radius": _nullable(_float(lambda r: 0 < r < math.inf)),
    "problem.bubble.noise_amp": _float(_finite),
    "problem.bubble.positive_outside": _flag,
    "solver.precond.kind": _name("P1", "P2", "P3", "P4", "P5", "identity"),
    "solver.precond.velocity_cycles": _count(1, MAX_CYCLES),
    "solver.precond.pressure_cycles": _count(1, MAX_CYCLES),
    "solver.precond.schur_sign": _name("minus", "plus"),
    "solver.precond.exact_subsolvers": _flag,
    "solver.gmres.restart": _count(1),
    "solver.gmres.max_iters": _count(1),
    "solver.gmres.rtol": _float(_positive),
    "solver.gmres.atol": _float(lambda a: 0 <= a < math.inf),
    "solver.gmres.track_true_residual": _flag,
    "solver.smoother.omega": _float(lambda w: 0 < w <= 1),
    "solver.smoother.sweeps_down": _count(1, MAX_SWEEPS),
    "solver.smoother.sweeps_up": _count(1, MAX_SWEEPS),
    "solver.smoother.bottom_sweeps": _count(8, MAX_SWEEPS),
    "mg_bench.target": _name("pressure", "velocity", "both"),
    "mg_bench.sweeps": lambda v: type(v) is list,  # no scalar value is a list
    "mg_bench.max_cycles": _count(1, MAX_CYCLES),
    "mg_bench.rtol": _float(lambda r: 0 <= r < math.inf),
    "spectrum.which": _name("M", "S", "precondS"),
}


def leaves(schema, prefix=""):
    for key, sub in schema.items():
        if isinstance(sub, dict):
            yield from leaves(sub, prefix + key + ".")
        elif sub is cli._LEAF:
            yield prefix + key


#: the inputs of theta = mu0 / (beta rho0 h^2), which only unsteady flow forms
THETA_INPUTS = ("problem.beta", "problem.mu0", "problem.rho0", "problem.h")


def _base_of(path):
    """The base configs in which ``path`` runs."""
    top = path.split(".")[0]
    if top in ("mg_bench", "spectrum"):
        return [top.replace("_", "-")]
    if path in THETA_INPUTS or path.startswith(("solver.precond.", "solver.smoother.")):
        return ["steady-p2", "unsteady-p1"]
    return ["steady-p2"]


#: (base, leaf, through a sweep list); the steady base also takes each of
#: its leaves through a one-value sweep list
CASES = [(base, path, via_sweep) for path in leaves(cli._SCHEMA) for base in _base_of(path)
         for via_sweep in ((False, True) if base == "steady-p2" else (False,))]


def test_every_schema_leaf_has_a_documented_range():
    assert sorted(LEGAL) == sorted(leaves(cli._SCHEMA))


class OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise OverBudget(f"example ran past {BUDGET_S} s")


# every (case, value) pair once: hypothesis stops when the finite space is
# exhausted, before max_examples
@settings(derandomize=True, database=None, deadline=None, max_examples=2000)
@given(case=st.sampled_from(CASES), value=st.sampled_from(VALUES))
def test_each_leaf_is_refused_or_legal(case, value):
    base, path, via_sweep = case
    command, config = BASES[base]
    config = copy.deepcopy(config)
    if via_sweep:
        config["sweep"] = {path: [value]}
    else:
        cli._set(config, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as handle:
            json.dump(config, handle)
        previous = signal.signal(signal.SIGALRM, _over_budget)
        # re-armed every half second: an exception raised while a weakref
        # callback runs is reported and dropped, and a hang must still end
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S, 0.5)
        try:
            code = cli.main([command, "--config", cfg, "--out", out])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if code == 2:
            assert not os.path.exists(out), "a refused config wrote outputs"
        else:
            assert LEGAL[path](value), f"{path} = {value!r} ran (exit {code})"
            assert code in (0, 1, 3)
            assert os.path.exists(os.path.join(out, "manifest.json"))


def test_a_basis_beyond_physical_memory_is_refused():
    # the property sets one leaf at a time, and a huge restart alone is
    # bounded by max_iters; both huge would ask for 10^12 basis vectors
    config = copy.deepcopy(BASES["steady-p2"][1])
    config["solver"]["gmres"].update(restart=10**12, max_iters=10**12)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as handle:
            json.dump(config, handle)
        assert cli.main(["run", "--config", cfg, "--out", out]) == 2
        assert not os.path.exists(out)


#: a child process that runs one CLI command on a config holding a 2D
#: 65536^2 grid (hundreds of GB for a solve) under an address-space limit
#: of 4 GB, so a check that failed to refuse the grid ends in an
#: allocation failure, not in tens of GB taken from the machine
HUGE_GRID = "\n".join([
    "import json, resource, sys",
    "resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30))",
    "from stokesmg import cli",
    "command, cfg, out = sys.argv[1:]",
    "with open(cfg, 'w') as handle:",
    "    json.dump({'problem': {'dim': 2, 'cells': [65536, 65536]}}, handle)",
    "sys.exit(cli.main([command, '--config', cfg, '--out', out]))",
])


#: what each command's refusal of that grid says: a solve's memory cap, or
#: the dense spectrum's cell cap
REFUSAL = {"run": "physical memory", "mg-bench": "physical memory",
           "spectrum": "exceed spectrum cap"}


@pytest.mark.parametrize("command", ["run", "mg-bench", "spectrum"])
def test_a_grid_beyond_physical_memory_is_refused_before_it_is_built(tmp_path, command):
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_GRID, command, str(tmp_path / "cfg.json"), str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr[-4000:]
    assert REFUSAL[command] in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("kind,problem", [
    ("P2", {"kind": "bubble", "dim": 2, "cells": 64}),
    ("P5", {"kind": "bubble", "dim": 2, "cells": 64}),
    ("P1", {"kind": "bubble", "dim": 3, "cells": 16, "beta": 1.0}),
])
def test_the_memory_estimate_bounds_a_solves_traced_peak(kind, problem):
    # the estimate must bound what a solve allocates and stay within 2x of
    # it; a first solve warms the process's one-time allocations
    config = {"problem": problem,
              "solver": {"precond": {"kind": kind}, "gmres": {"max_iters": 30}}}
    kernels.load()
    cli._run_point((0, config, None))
    tracemalloc.start()
    try:
        cli._run_point((0, config, None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, gcfg, _ = cli.build_solver(config["solver"])
    estimate = krylov.solve_bytes(cli.build_grid(problem), gcfg)
    assert peak <= estimate <= 2 * peak


def test_every_preset_fits_the_memory_budget():
    # every shipped preset, at its default and its paper scale, passes the
    # cap that refuses a grid beyond physical memory
    class Args:
        config = None

    for name in cli.PRESETS:
        for paper_scale in (False, True):
            args = Args()
            args.preset, args.paper_scale = name, paper_scale
            _, config = cli.load_config(args)
            for point in cli.expand_sweep(config):
                _, gcfg, _ = cli.build_solver(point.get("solver", {}))
                krylov.require_memory(cli.build_grid(point.get("problem", {})), gcfg)
