import argparse
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from stokesmg import cli, kernels
from stokesmg.cli import (
    CSV_HEADER,
    PRESETS,
    ConfigError,
    build_grid,
    build_problem,
    build_solver,
    expand_sweep,
    main,
    validate_keys,
)
from stokesmg.grid import CellField
from stokesmg.operators import make_coefficients
from stokesmg.problems import BubbleSpec, bubble_density


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


def read_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as handle:
        return json.load(handle)


def run_cli(args, blas_threads):
    """Run the CLI in a fresh interpreter with OpenBLAS limited to
    ``blas_threads`` threads (the limit is read once, when numpy loads)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "stokesmg.cli", *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestConfigHandling:
    def test_expand_sweep_cartesian(self):
        cfg = {"problem": {"cells": 8}, "solver": {},
               "sweep": {"problem.cells": [8, 16], "solver.gmres.restart": [5, 10]}}
        points = expand_sweep(cfg)
        assert len(points) == 4
        combos = {(p["problem"]["cells"], p["solver"]["gmres"]["restart"])
                  for p in points}
        assert combos == {(8, 5), (8, 10), (16, 5), (16, 10)}
        assert all("sweep" not in p for p in points)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            validate_keys({"problem": {"cels": 8}})
        with pytest.raises(ConfigError):
            validate_keys({"solver": {"precond": {"kindd": "P2"}}})

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            build_grid({"cells": 7})
        with pytest.raises(ConfigError):
            build_grid({"cells": 2})
        with pytest.raises(ConfigError, match="unknown boundary condition 'slippery'"):
            build_grid({"bc": "slippery"})

    @pytest.mark.parametrize("key, value, what", [
        ("kind", "P9", "preconditioner kind"), ("schur_sign", "sideways", "Schur sign")])
    def test_unknown_solver_names(self, key, value, what):
        # refused in the config's terms, not by the enum's own message
        with pytest.raises(ConfigError, match=f"unknown {what} '{value}'"):
            build_solver({"precond": {key: value}})

    def test_beta_parsing(self):
        _, coeff, _, _ = build_problem({"cells": 8, "kind": "constant",
                                        "beta": "inf"})[0:4]
        assert coeff.theta == 0.0
        _, coeff, _, _ = build_problem({"cells": 8, "kind": "constant", "beta": 1.0})
        assert coeff.theta == 1.0
        _, coeff, _, _ = build_problem({"cells": 8, "kind": "constant", "beta": 0})
        assert not coeff.mu_cell.data.any() and coeff.theta == 1.0

    @pytest.mark.parametrize("kind", ["constant", "bubble"])
    def test_inviscid_point_is_theta_rho_alone(self, kind):
        # beta = 0 builds mu = 0, theta = 1 through the viscous path, whatever
        # viscosity, bulk viscosity and form the config names
        grid, coeff, _, _ = build_problem({
            "cells": 8, "kind": kind, "beta": 0, "rho0": 2.0, "mu0": 3.0,
            "gamma0": 0.5, "viscous_form": "laplacian", "seed": 4})
        rho = (bubble_density(grid, BubbleSpec(seed=4), 2.0) if kind == "bubble"
               else CellField.full(grid, 2.0))
        want = make_coefficients(grid, 1.0, rho, CellField.zeros(grid))
        assert coeff.theta == want.theta and coeff.viscous_form is want.viscous_form

        def arrays(c):
            planes = c.mu_node_edge.arrays
            return [*c.rho_face.components, c.mu_cell.data, c.gamma_cell.data,
                    *(planes[k] for k in sorted(planes))]

        for got, ref in zip(arrays(coeff), arrays(want), strict=True):
            assert got.tobytes() == ref.tobytes()


class TestPresets:
    def test_listing(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_unknown_preset_exit_2(self, tmp_path):
        assert main(["run", "--preset", "nope", "--out", str(tmp_path)]) == 2

    def test_preset_command_mismatch_exit_2(self, tmp_path):
        assert main(["run", "--preset", "fig1-mg-sweeps", "--out", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_constant_periodic_steady_single_iteration(self, tmp_path):
        out = tmp_path / "cps"
        assert main(["run", "--preset", "constant-periodic-steady",
                     "--out", str(out)]) == 0
        rows = read_csv(out / "run_000.csv")
        assert rows[0] == CSV_HEADER.split(",")
        # exactly the initial record plus one iteration
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        manifest = read_manifest(out)
        assert manifest["runs"][0]["status"] in ("converged", "breakdown")
        assert manifest["prng"] == "philox4x64-10"

    def test_paper_scale_replaces_swept_paths(self):
        args = argparse.Namespace(config=None, preset="fig6-scaling",
                                  paper_scale=True)
        _, config = cli.load_config(args)
        cells = [p["problem"]["cells"] for p in expand_sweep(config)]
        assert cells == [128, 128, 256, 256, 512, 512]
        args.preset = "fig4-precond-compare"
        _, config = cli.load_config(args)
        points = expand_sweep(config)
        assert len(points) == 5
        assert all(p["problem"]["cells"] == 512 for p in points)

    def test_bubble_2d_monotone_within_restart(self, tmp_path):
        out = tmp_path / "bubble"
        assert main(["run", "--preset", "bubble-2d", "--out", str(out)]) == 0
        rows = read_csv(out / "run_000.csv")[1:]
        prev = None
        for row in rows[1:]:
            rp, flag = float(row[2]), row[4] == "1"
            if not flag and prev is not None:
                assert rp <= prev * (1 + 1e-12)
            prev = rp


class TestRunCommand:
    def test_malformed_config_exit_2_no_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("path, values", [
        ("problem.cells", [8, 7]),
        ("problem.h", [1, -1]),
        ("problem.h", [1, 1e-200]),
        ("problem.dim", [2, 4]),
        ("problem.beta", [1, -1]),
        ("solver.gmres.atol", [0, math.nan]),
        ("solver.precond.exact_subsolvers", [False, "false"]),
        ("problem.cells", [8, 8.0]),
        ("problem.beta", [1, None]),
        ("problem.bc", ["no_slip", 5]),
        ("solver.precond.velocity_cycles", [1, 1.9]),
        ("problem.mu0", [1, "1"]),
        ("solver.gmres.restart", [10, True]),
        ("problem.mu0", [1, 10**400]),
        # no path: the value is the whole sweep block, which when present
        # must be a nonempty object
        *[(None, block) for block in (0, 1, None, False, [], "", {})],
    ])
    def test_invalid_sweep_value_no_partial_outputs(self, tmp_path, path, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"cells": 8, "kind": "constant", "bc": "no_slip"},
            "sweep": {path: values} if path else values,
        }))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("path, value, message", [
        ("solver.gmres.rtol", math.inf, "rtol must be positive and finite"),
        ("solver.gmres.atol", math.inf, "atol must be nonnegative and finite"),
        ("problem.dim", 10**12, "dim must be 2 or 3"),
        ("problem.dim", 10**400, "dim must be 2 or 3"),
    ], ids=["rtol_inf", "atol_inf", "dim_1e12", "dim_1e400"])
    def test_out_of_range_value_exit_2_no_outputs(self, tmp_path, capsys, path, value,
                                                  message):
        # JSON's Infinity literal and huge integers: an infinite tolerance
        # would stop at once as converged, and a huge dim would build a
        # per-axis tuple of that length
        config = {"problem": {"cells": 8, "kind": "constant", "bc": "no_slip"}}
        cli._set(config, path, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2_no_outputs(self, tmp_path, monkeypatch, jobs):
        def no_worker(*args, **kwargs):
            raise AssertionError("a worker started")

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", no_worker)
        monkeypatch.setattr(cli, "_run_point", no_worker)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": {"cells": 8, "kind": "constant"}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kinds, jobs, pools", [(["P1", "P2"], "8", [2]), (["P2"], "4", [])],
                             ids=["two_points", "one_point"])
    def test_pool_has_no_more_workers_than_points(self, tmp_path, monkeypatch, kinds, jobs,
                                                  pools):
        # a forked pool starts all max_workers processes at its first submit;
        # each worker sets its team to its share of the cores
        started = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                assert (initializer, initargs) == (kernels.set_threads,
                                                   (kernels.team_size(max_workers),))
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": {"cells": 8, "kind": "constant"},
                                   "sweep": {"solver.precond.kind": kinds}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
        assert started == pools
        assert len(read_manifest(out)["runs"]) == len(kinds)

    def test_exact_subsolvers_over_dense_cap_exit_2_no_outputs(self, tmp_path, capsys):
        # 96^2 periodic: 2 * 96^2 faces + 96^2 cells = 27648 unknowns
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"cells": 96, "kind": "constant", "bc": "periodic"},
            "solver": {"precond": {"kind": "P1", "exact_subsolvers": True}},
        }))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "capped at 20000 DOFs, grid has 27648" in capsys.readouterr().err
        assert not out.exists()

    def test_nonconvergence_exit_1_history_written(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"kind": "bubble", "cells": 32, "bc": "no_slip",
                        "beta": "inf", "seed": 0},
            "solver": {"gmres": {"rtol": 1e-12, "max_iters": 2}},
        }))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        rows = read_csv(out / "run_000.csv")
        assert len(rows) == 4  # header + initial + 2 iterations
        assert read_manifest(out)["runs"][0]["status"] == "maxiter"

    def test_nonfinite_solve_exit_3_history_written(self, tmp_path, monkeypatch):
        real_make_rhs = cli.make_rhs

        def nan_rhs(grid, coeff, seed=0):
            rhs, x = real_make_rhs(grid, coeff, seed)
            rhs.p.data[0, 0] = np.nan
            return rhs, x

        monkeypatch.setattr(cli, "make_rhs", nan_rhs)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"kind": "constant", "cells": 8, "bc": "no_slip",
                        "beta": "inf"},
            "solver": {"gmres": {"max_iters": 50}},
        }))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        rows = read_csv(out / "run_000.csv")
        assert len(rows) == 2  # header + initial residuals, no iterations
        run = read_manifest(out)["runs"][0]
        assert run["status"] == "nonfinite" and run["iterations"] == 0

    def test_seed_override(self, tmp_path):
        cfg = {"problem": {"kind": "bubble", "cells": 16, "bc": "no_slip",
                           "beta": "inf", "seed": 0},
               "solver": {"gmres": {"rtol": 1e-6, "max_iters": 60}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["run", "--config", str(path), "--out", str(a)]) == 0
        assert main(["run", "--config", str(path), "--out", str(b), "--seed", "0"]) == 0
        assert main(["run", "--config", str(path), "--out", str(c), "--seed", "9"]) == 0
        assert (a / "run_000.csv").read_text() == (b / "run_000.csv").read_text()
        assert (a / "run_000.csv").read_text() != (c / "run_000.csv").read_text()

    def test_parallel_jobs_match_sequential(self, tmp_path):
        cfg = {"problem": {"kind": "constant", "cells": 16, "bc": "no_slip",
                           "beta": "inf", "seed": 0},
               "solver": {"gmres": {"rtol": 1e-8, "max_iters": 60}},
               "sweep": {"solver.precond.kind": ["P1", "P2"]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(["run", "--config", str(path), "--out", str(seq)]) == 0
        assert main(["run", "--config", str(path), "--out", str(par),
                     "--jobs", "2"]) == 0
        for name in ("run_000.csv", "run_001.csv"):
            assert (seq / name).read_text() == (par / name).read_text()

    def test_outputs_independent_of_blas_threads_and_jobs(self, tmp_path):
        # 64^2 no-slip: 12160 unknowns, and the mg-bench 128^2 pressure field
        # has 16384, both above the length where OpenBLAS threads dot
        # products, so a BLAS call on the run path would show here
        cfg = {"problem": {"kind": "bubble", "cells": 64, "bc": "no_slip",
                           "beta": "inf", "seed": 0},
               "solver": {"gmres": {"rtol": 1e-10, "max_iters": 300}},
               "sweep": {"solver.precond.kind": ["P1", "P2"]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        seq, par = tmp_path / "seq", tmp_path / "par"
        run_cli(["run", "--config", str(path), "--out", str(seq)], 1)
        run_cli(["run", "--config", str(path), "--out", str(par),
                 "--jobs", "2"], 4)
        for name in ("run_000.csv", "run_001.csv"):
            assert (seq / name).read_bytes() == (par / name).read_bytes()

        def stable(manifest):
            manifest.pop("created_unix")
            for run in manifest["runs"]:
                run.pop("wall_time_s")
            return manifest

        assert stable(read_manifest(seq)) == stable(read_manifest(par))

        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({
            "problem": {"kind": "constant", "cells": 128, "bc": "no_slip",
                        "beta": "inf", "seed": 0},
            "mg_bench": {"target": "pressure", "sweeps": [2],
                         "max_cycles": 3},
        }))
        one, four = tmp_path / "mg1", tmp_path / "mg4"
        run_cli(["mg-bench", "--config", str(bench), "--out", str(one)], 1)
        run_cli(["mg-bench", "--config", str(bench), "--out", str(four)], 4)
        assert ((one / "mg_bench.csv").read_bytes()
                == (four / "mg_bench.csv").read_bytes())

    def test_each_distinct_problem_built_once_in_validation(
            self, tmp_path, monkeypatch):
        calls = []
        real_build_problem = cli.build_problem

        def counting(problem, seed_override=None):
            calls.append(problem["cells"])
            return real_build_problem(problem, seed_override)

        monkeypatch.setattr(cli, "build_problem", counting)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"kind": "constant", "bc": "no_slip", "beta": "inf"},
            "solver": {"gmres": {"rtol": 1e-6, "max_iters": 40}},
            "sweep": {"problem.cells": [8, 16],
                      "solver.precond.kind": ["P1", "P2"]},
        }))
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        # validation builds each grid size once, then each point builds its own
        assert calls == [8, 16, 8, 8, 16, 16]

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"kind": "constant", "cells": 8, "bc": "no_slip",
                        "beta": "inf"},
            "solver": {"gmres": {"rtol": 1e-6, "max_iters": 40}}}))
        target = tmp_path / "envout"
        monkeypatch.setenv("STOKESMG_OUT", str(target))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (target / "manifest.json").exists()


class TestMgBench:
    def test_two_sweeps_reach_1e10_within_dozen(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"kind": "constant", "cells": 256, "bc": "no_slip",
                        "beta": "inf", "seed": 0},
            "mg_bench": {"target": "pressure", "sweeps": [1, 2],
                         "max_cycles": 30, "rtol": 1e-14},
        }))
        out = tmp_path / "out"
        assert main(["mg-bench", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "mg_bench.csv")
        assert rows[0] == ["solver", "sweeps", "cycle", "resid", "resid_rel"]
        by_sweeps = {}
        for solver, sweeps, cycle, resid, rel in rows[1:]:
            by_sweeps.setdefault(int(sweeps), {})[int(cycle)] = float(rel)
        reached2 = min(c for c, r in by_sweeps[2].items() if r <= 1e-10)
        assert reached2 <= 12
        reached1 = min(c for c, r in by_sweeps[1].items() if r <= 1e-10)
        assert reached1 > reached2  # one sweep converges strictly slower

    def test_mismatched_beta_inviscid_velocity_rejected(self, tmp_path, capsys):
        # a singular velocity operator never reaches the benchmark: the
        # coefficient set refuses steady flow without viscosity
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"kind": "constant", "cells": 16, "bc": "no_slip",
                        "beta": "inf", "mu0": 0.0},
            "mg_bench": {"target": "velocity"},
        }))
        assert main(["mg-bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "steady flow (theta = 0) needs nonzero viscosity" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_sweep_list_exit_2_no_outputs(self, tmp_path, capsys):
        # a benchmark of no smoother would write a CSV of its header alone
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"kind": "constant", "dim": 2, "cells": 8, "bc": "no_slip",
                        "beta": "inf"},
            "mg_bench": {"sweeps": []},
        }))
        assert main(["mg-bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "mg_bench.sweeps must be a nonempty list" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSpectrumCommand:
    def test_report_written(self, tmp_path):
        out = tmp_path / "spec"
        assert main(["spectrum", "--preset", "fig7-spectrum", "--out", str(out)]) == 0
        blob = json.loads((out / "spectrum.json").read_text())
        assert blob["zero_multiplicity"] == 1
        assert "frac_near_unit" in blob

    def test_cap_exceeded_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"kind": "constant", "cells": 64, "bc": "no_slip",
                        "beta": "inf"},
            "spectrum": {"which": "M"},
        }))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_periodic_8_all_unit_eigenvalues(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": {"kind": "constant", "cells": 8, "bc": "periodic",
                        "beta": "inf", "seed": 0},
            "spectrum": {"which": "precondS"},
        }))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        blob = json.loads((out / "spectrum.json").read_text())
        lam = np.array(blob["eigenvalues"])
        nz = lam[np.abs(lam) > blob["tol_zero"]]
        assert np.all(np.abs(nz - 1.0) <= 1e-8)


class TestEntryPoint:
    def test_console_script_smoke(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "stokesmg.cli", "presets", "list"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "bubble-2d" in proc.stdout

    def test_import_and_multigrid_solve_load_no_scipy(self):
        # scipy.sparse loads on the first exact-subsolver build and
        # scipy.linalg on the first dense eigenvalue solve, neither on import
        # nor in a multigrid solve
        code = "\n".join([
            "import sys",
            "import stokesmg, stokesmg.cli",
            "from stokesmg.cli import build_problem, build_solver",
            "grid, coeff, rhs, _ = build_problem({'kind': 'bubble', 'cells': 8})",
            "_, history = stokesmg.gmres_solve(rhs, coeff, *build_solver({}))",
            "assert history.status == 'converged', history.status",
            "loaded = [m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules]",
            "sys.exit(f'loaded {loaded}' if loaded else 0)",
        ])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


#: one process: 8^2 and 48^2 exact-subsolver runs, a 128^2 run whose V-cycles and
#: operators run on the kernel team, then a sweep forked into two workers
#: and the same sweep run sequentially; prints the thread counts and exit
#: codes as JSON
TEAM_SCRIPT = """
import json, os, sys
from stokesmg import cli, kernels

root = sys.argv[1]

def threads():
    return len(os.listdir('/proc/self/task'))

def run(name, config, *args):
    path = os.path.join(root, name + '.json')
    with open(path, 'w') as handle:
        json.dump(config, handle)
    return cli.main(['run', '--config', path, '--out', os.path.join(root, name), *args])

problem = {'kind': 'bubble', 'bc': 'no_slip', 'beta': 'inf', 'seed': 0}
exact = {'problem': {'kind': 'constant', 'dim': 2, 'cells': 48, 'bc': 'periodic',
                     'beta': 'inf', 'seed': 0},
         'solver': {'precond': {'kind': 'P1', 'exact_subsolvers': True},
                    'gmres': {'rtol': 1e-10, 'max_iters': 10}}}
large = {'problem': dict(problem, cells=128), 'solver': {'gmres': {'rtol': 1e-6}}}
sweep = {'problem': dict(problem, cells=16), 'solver': {'gmres': {'rtol': 1e-8}},
         'sweep': {'solver.precond.kind': ['P1', 'P2']}}
# the first exact solve loads scipy's solvers and their BLAS threads
codes = [run('warm', dict(exact, problem=dict(exact['problem'], cells=8)))]
start = threads()
codes.append(run('exact', exact))
after_exact = threads()
codes.append(run('large', large))
after_large = threads()
codes += [run('jobs2', sweep, '--jobs', '2'), run('jobs1', sweep, '--jobs', '1')]
print(json.dumps({'team_size': kernels.team_size(), 'codes': codes, 'start': start,
                  'after_exact': after_exact, 'after_large': after_large}))
"""


@pytest.fixture(scope="module")
def team_run(tmp_path_factory):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    root = tmp_path_factory.mktemp("team")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    # a fork that hangs on a lock of the kernel team would hang here
    proc = subprocess.run([sys.executable, "-c", TEAM_SCRIPT, str(root)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return root, json.loads(proc.stdout.splitlines()[-1])


class TestKernelTeam:
    def test_small_exact_solve_starts_no_helper_thread(self, team_run):
        _, report = team_run
        assert report["codes"][:2] == [0, 0]
        assert report["after_exact"] == report["start"]

    def test_jobs_after_a_team_solve_finish_and_match_sequential(self, team_run):
        root, report = team_run
        assert report["codes"] == [0, 0, 0, 0, 0]
        if report["team_size"] > 1:
            # the large solve started the helpers before the pool forked
            assert report["after_large"] > report["after_exact"]
        for name in ("run_000.csv", "run_001.csv"):
            assert (root / "jobs2" / name).read_bytes() == (root / "jobs1" / name).read_bytes()
