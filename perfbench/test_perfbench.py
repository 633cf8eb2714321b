"""Tests of the benchmark itself, on tiny problems.

Run from the repository root with ``python -m pytest perfbench``.
"""

import dataclasses
import json
import subprocess
import sys

import pytest

import run
import spans
import workloads
from stokesmg import cli

#: traced self times must add up to the traced solve time to this fraction
SELF_SUM_TOL = 1e-9

TINY_CELLS = {
    "bubble2d-steady-p2": (16, 16),
    "bubble3d-unsteady-p1": (8, 8, 8),
    "periodic-exact-p1": (8, 8),
}


def tiny(name):
    return dataclasses.replace(workloads.SOLVES[name], cells=TINY_CELLS[name])


@pytest.fixture(scope="module")
def declared():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    return {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }, [w["name"] for w in bench["workloads"]]


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    config = run.sweep_config(("--preset", workloads.SWEEP_PRESET))
    config["problem"]["cells"] = 16
    path = tmp_path_factory.mktemp("sweep") / "tiny.json"
    path.write_text(json.dumps(config))
    return ("--config", str(path))


def test_workloads_match_declaration(declared):
    _, names = declared
    assert names == list(workloads.WORKLOADS)
    assert [n for n, _ in run.END_TO_END] == list(declared[0][False])
    assert [n for n, _ in spans.PER_LAYER] == list(declared[0][True])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY_CELLS) + [workloads.SWEEP])
def test_every_metric_emitted_with_unit(name, trace, declared, tiny_sweep):
    if name == workloads.SWEEP:
        result = run.run_sweep(0, 0, trace, source=tiny_sweep)
    else:
        result = run.run_solve(tiny(name), 0, 0, trace)
    line = run.result_line(result, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared[0][trace]
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_gate_fails_wrong_solution():
    inputs = workloads.make_inputs(tiny("bubble2d-steady-p2"), 0)
    rep = run.solve_once(inputs)
    assert rep["failures"] == []
    from stokesmg import Preconditioner, gmres_solve

    P = Preconditioner(inputs.coeff, inputs.pcfg, inputs.smoother)
    x, history = gmres_solve(inputs.rhs, inputs.coeff, inputs.pcfg, inputs.gcfg,
                             inputs.smoother, precond=P)
    x.u.components[0][...] *= 1.0 + 1e-4
    failures = workloads.solve_failures(x, history, inputs)
    assert any("relative error" in f for f in failures)
    history.status = "maxiter"
    assert any("status" in f for f in workloads.solve_failures(x, history, inputs))


def test_gate_fails_unconverged_sweep_point(tmp_path, tiny_sweep):
    out = str(tmp_path)
    code = cli.main(["run", *tiny_sweep, "--seed", "0", "--out", out])
    rows = workloads.read_manifest(out)
    assert code == 0 and len(rows) == 5
    assert workloads.sweep_failures(code, out, rows, 5) == []
    rows[2]["status"] = "maxiter"
    assert len(workloads.sweep_failures(code, out, rows, 5)) == 1
    rows[2]["status"] = "converged"
    rows[4]["resid_true"] *= 1e4
    assert len(workloads.sweep_failures(code, out, rows, 5)) == 1
    assert len(workloads.sweep_failures(1, out, rows, 5)) == 5
    assert len(workloads.sweep_failures(1, out, None, 5)) == 5


@pytest.mark.parametrize("name", list(TINY_CELLS))
def test_self_times_add_up_to_solve(name):
    inputs = workloads.make_inputs(tiny(name), 0)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        run.solve_once(inputs, tracer)
    finally:
        undo()
    selfs = spans.self_times(tracer.spans)
    root = next(i for i, s in enumerate(tracer.spans) if s[0] == "bench:solve")

    def in_solve(i):
        while i >= 0:
            if i == root:
                return True
            i = tracer.spans[i][3]
        return False

    solve = tracer.spans[root][2] - tracer.spans[root][1]
    total = sum(t for i, t in enumerate(selfs) if in_solve(i))
    assert abs(total - solve) <= SELF_SUM_TOL * solve
    assert min(selfs) >= -SELF_SUM_TOL * solve
    layers = spans.raw_layers(tracer)
    assert layers["trace.solve_s"] == solve
    assert layers["krylov.apply_op_calls"] >= 1


def test_install_is_undone():
    from stokesmg import krylov, multigrid

    before = (krylov.gmres_kernel, multigrid.smooth_face, cli._run_point)
    undo = spans.install(spans.Tracer(), sweep_worker=True)
    assert multigrid.smooth_face is not before[1]
    undo()
    assert (krylov.gmres_kernel, multigrid.smooth_face, cli._run_point) == before


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.ROOT.joinpath("perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bubble2d-steady-p2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
