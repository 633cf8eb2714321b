"""Outside-in benchmark of the stokesmg solve path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bubble2d-steady-p2 --seed 0 --seconds 10 --trace 0

``--trace 0`` times repetitions with nothing patched and reports the
end-to-end metrics; ``--trace 1`` alternates untraced repetitions with ones
traced through :mod:`spans` and reports the per-layer metrics.  Detail lines
(environment, per-repetition figures, failures) come first; the last line
of standard output is the JSON result.  Every solve is checked by the
correctness gate in :mod:`workloads`.  Without the program's sources the
run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_SAMPLES = 75  # setup and solve samples per run, topped up while cheap
#: repetitions per run at least: the sweep's wall time spreads about 10%
#: between repetitions (two workers oversubscribe the BLAS threads), the
#: solves' about 3%
MIN_REPS = 3
MIN_SWEEP_REPS = 4
TOP_UP_SHARE = 0.1  # of --seconds, spent at most on each kind of top-up
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("time_to_solution_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_now() -> float:
    """CPU seconds of this process (all threads) and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` directly, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "commit": git_commit(ROOT),
    }


# ---------------------------------------------------------------------------
# solve workloads
# ---------------------------------------------------------------------------


def solve_once(inputs, tracer=None, budget: float = 0.0) -> dict:
    """One repetition: fresh Preconditioner, then gmres_solve, then the gate.

    While the solve is cheap next to ``budget`` seconds, it is repeated with
    the same preconditioner for more ``solve_samples``; each repeat is gated
    too.  Spreading these over the repetitions samples several factorized
    preconditioners, whose memory placement differs.
    """
    from stokesmg import Preconditioner, gmres_solve
    from workloads import solve_failures

    cpu0 = cpu_now()
    t0 = time.perf_counter()
    idx = tracer.begin("bench:setup") if tracer else None
    P = Preconditioner(inputs.coeff, inputs.pcfg, inputs.smoother)
    if tracer:
        tracer.end(idx)
    t1 = time.perf_counter()
    idx = tracer.begin("bench:solve") if tracer else None
    x, history = gmres_solve(inputs.rhs, inputs.coeff, inputs.pcfg, inputs.gcfg,
                             inputs.smoother, precond=P)
    if tracer:
        tracer.end(idx)
    t2 = time.perf_counter()
    cpu = cpu_now() - cpu0
    rep = {
        "seed": inputs.seed,
        "setup_s": t1 - t0,
        "solve_s": t2 - t1,
        "time_to_solution_s": t2 - t0,
        "cpu_s": cpu,
        "gmres_iters": history.iterations,
        "scalar_vcycles": P.scalar_vcycles,
        "attempted": 0,
        "failed": 0,
        "failures": [],
    }

    def gate(x, history):
        failures = solve_failures(x, history, inputs)
        rep["attempted"] += 1
        rep["failed"] += bool(failures)
        rep["failures"] += failures

    def again():
        (x, history), dt = timed(gmres_solve, inputs.rhs, inputs.coeff, inputs.pcfg,
                                 inputs.gcfg, inputs.smoother, precond=P)
        gate(x, history)
        return dt

    gate(x, history)
    rep["solve_samples"] = top_up([rep["solve_s"]], budget, again)
    return rep


def top_up(samples: list[float], budget: float, sample) -> list[float]:
    """``samples`` plus repeats of ``sample()`` (which returns seconds taken).

    Repeats stop at MIN_SAMPLES, or before the extra time would pass
    ``budget`` seconds; a phase as slow as the bubble solves gets no extra
    samples.
    """
    out = list(samples)
    spent = 0.0
    while len(out) < MIN_SAMPLES and spent + median(out) < budget:
        out.append(sample())
        spent += out[-1]
    return out


def measure(seconds: float, min_reps: int, instances, once, trace: bool):
    """Untraced (and, with ``trace``, traced) repetitions of ``once``.

    Repetitions rotate over the problem instances, and run until
    ``seconds`` have passed and there were ``min_reps`` of them.  Garbage
    from the previous repetition is collected first, so no repetition's
    peak memory depends on when the collector last ran.
    """
    reps, traced = [], []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        instance = instances[len(reps) % len(instances)]
        gc.collect()
        reps.append(once(instance, False))
        if trace:
            gc.collect()
            traced.append(once(instance, True))
    return reps, traced


def traced_solve(inputs) -> dict:
    import spans

    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        rep = solve_once(inputs, tracer)
    finally:
        undo()
    rep["layers"] = spans.finish_layers(spans.raw_layers(tracer))
    return rep


def run_solve(spec, seed: int, seconds: float, trace: bool) -> dict:
    """A solve workload: instances built untimed, one warm-up, then reps.

    Cheap phases get extra samples: solves within each repetition (see
    :func:`solve_once`), and setup-only constructions at the end.
    """
    from stokesmg import Preconditioner
    from workloads import instance_seeds, make_inputs

    budget = TOP_UP_SHARE * seconds
    instances = [make_inputs(spec, s) for s in instance_seeds(seed)]
    warm = solve_once(instances[0])  # fills import and module-level caches
    reps, traced = measure(
        seconds, MIN_REPS, instances,
        lambda inputs, t: traced_solve(inputs) if t else
        solve_once(inputs, budget=budget / MIN_REPS), trace)
    inputs = instances[-1]
    setups = top_up([r["setup_s"] for r in reps], budget, lambda: timed(
        Preconditioner, inputs.coeff, inputs.pcfg, inputs.smoother)[1])
    solves = [t for r in reps for t in r["solve_samples"]]
    return summarize([warm] + reps + traced, reps, traced, setups, solves, {})


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def summarize(done, reps, traced, setups, solves, layer_extra) -> dict:
    """Gate totals, medians over the untraced repetitions, traced layers.

    Per-layer values are medians over the traced repetitions; counts are
    those of the first instance (the one seeded by ``--seed`` alone), and
    ``layer_extra`` adds workload-specific layer figures.
    """
    import spans
    from workloads import INSTANCES as n_instances

    untraced = median(solves)
    result = {
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "failures": [f for r in done for f in r["failures"]],
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps + traced],
        "setup_samples": setups,
        "solve_samples": solves,
        "end_to_end": {
            "time_to_solution_s": median([r["time_to_solution_s"] for r in reps]),
            "setup_s": median(setups),
            "solve_s": untraced,
            "cpu_s": median([r["cpu_s"] for r in reps]),
            "peak_rss_mb": peak_rss_mb(),
        },
        "counts": [{k: r[k] for k in ("seed", "gmres_iters", "scalar_vcycles")}
                   for r in reps[:n_instances]],
    }
    if traced:
        layers = {name: median([r["layers"][name] for r in traced])
                  for name, _ in spans.PER_LAYER}
        vcycles = reps[0]["scalar_vcycles"]
        layers.update({
            "krylov.gmres_iters": reps[0]["gmres_iters"],
            "multigrid.scalar_vcycles": vcycles,
            "multigrid.s_per_vcycle": median(
                [r["solve_s"] / r["scalar_vcycles"] if r["scalar_vcycles"] else 0.0
                 for r in reps]),
            "trace.untraced_solve_s": untraced,
            "trace.overhead_ratio": median([r["solve_s"] for r in traced]) / untraced,
            **layer_extra,
        })
        result["per_layer"] = layers
    return result


# ---------------------------------------------------------------------------
# CLI sweep workload
# ---------------------------------------------------------------------------


def sweep_config(source) -> dict:
    from stokesmg import cli

    _, config = cli.load_config(argparse.Namespace(
        config=source[1] if source[0] == "--config" else None,
        preset=source[1] if source[0] == "--preset" else None,
        paper_scale=False))
    return config


def sweep_once(source, n_points: int, seed: int, jobs: int, tmp: Path,
               trace: bool) -> dict:
    """One ``stokesmg run`` of the sweep into a fresh output directory."""
    import spans
    from stokesmg import cli
    from workloads import read_manifest, sweep_failures

    outdir = tempfile.mkdtemp(dir=tmp)
    argv = ["run", *source, "--jobs", str(jobs), "--seed", str(seed), "--out", outdir]
    saved = cli._run_point
    if trace:
        cli._run_point = spans.traced_run_point
    try:
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = cpu_now() - cpu0
    finally:
        cli._run_point = saved
    rows = read_manifest(outdir)
    failures = sweep_failures(code, outdir, rows, n_points)
    shutil.rmtree(outdir)
    rows = rows or []
    rep = {
        "seed": seed,
        "time_to_solution_s": wall,
        "solve_s": sum(r["wall_time_s"] for r in rows),
        "cpu_s": cpu,
        "exit_code": code,
        "points": len(rows),
        "gmres_iters": sum(r["iterations"] for r in rows),
        "scalar_vcycles": sum(r["scalar_vcycles"] for r in rows),
        "attempted": max(n_points, len(rows)),
        "failed": len(failures),
        "failures": failures,
    }
    if trace:
        raw = {name: 0.0 for name, _ in spans.PER_LAYER}
        for r in rows:
            for key, value in r.get("perfbench_layers", {}).items():
                raw[key] += value
        rep["layers"] = spans.finish_layers(raw)
    return rep


def sweep_setups(config: dict, seed: int, seconds: float) -> list[float]:
    """Preconditioner construction summed over the sweep's points.

    The CLI builds each preconditioner inside its workers, so set-up is
    measured here on the same points: problems are built as the CLI builds
    them, then each sample times one construction per point.
    """
    from stokesmg import Preconditioner, cli, rescale

    points = []
    for cfg in cli.expand_sweep(config):
        _, coeff, rhs, _ = cli.build_problem(cfg.get("problem", {}), seed)
        pcfg, _, smoother = cli.build_solver(cfg.get("solver", {}))
        if cfg.get("problem", {}).get("rescale", True):
            coeff, rhs, _ = rescale(coeff, rhs)
        points.append((coeff, pcfg, smoother))

    def sample():
        t0 = time.perf_counter()
        for coeff, pcfg, smoother in points:
            Preconditioner(coeff, pcfg, smoother)
        return time.perf_counter() - t0

    return top_up([sample()], TOP_UP_SHARE * seconds, sample)


def run_sweep(seed: int, seconds: float, trace: bool, source=None) -> dict:
    from stokesmg import cli
    from workloads import SWEEP_PRESET, instance_seeds

    source = source or ("--preset", SWEEP_PRESET)
    config = sweep_config(source)
    n_points = len(cli.expand_sweep(config))
    jobs = min(2, nproc())
    tmp = ROOT / ".perfbench-tmp"
    tmp.mkdir(exist_ok=True)
    try:
        reps, traced = measure(
            seconds, MIN_SWEEP_REPS, instance_seeds(seed),
            lambda s, t: sweep_once(source, n_points, s, jobs, tmp, t), trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups = sweep_setups(config, seed, seconds)
    extra = {
        "cli.points": reps[0]["points"],
        "cli.workers": jobs,
        "cli.point_wall_sum_s": median([r["solve_s"] for r in reps]),
        "cli.cpu_per_wall": median([r["cpu_s"] / r["time_to_solution_s"] for r in reps]),
    }
    solves = [r["solve_s"] for r in reps]
    return summarize(reps + traced, reps, traced, setups, solves, extra)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload by name; returns the detailed result dict."""
    from workloads import SOLVES, SWEEP

    if workload == SWEEP:
        return run_sweep(seed, seconds, trace)
    return run_solve(SOLVES[workload], seed, seconds, trace)


def result_line(result: dict, trace: bool) -> dict:
    """The final JSON object: gate counts plus every declared metric."""
    import spans

    if trace:
        declared, values = spans.PER_LAYER, result["per_layer"]
    else:
        declared, values = END_TO_END, result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared},
    }


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import stokesmg from it."""
    if not (SRC / "stokesmg" / "__init__.py").is_file():
        raise SystemExit(f"error: no stokesmg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stokesmg

    if SRC not in Path(stokesmg.__file__).resolve().parents:
        raise SystemExit(f"error: imported stokesmg from {stokesmg.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = {k: result[k] for k in
              ("reps", "setup_samples", "solve_samples", "counts", "failures")}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
