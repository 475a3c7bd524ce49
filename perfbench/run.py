"""Pipeline benchmark for psmsynth.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_fixtures --seed 1 --seconds 20 --trace 0

Workloads: cli_fixtures, sched_unrolled, explore_space, verify_wpm, or `all`
to run each in turn, each in a child process of its own so that its peak
memory is its own.  The package is imported from the checkout's `src/`;
nothing needs installing.

The run repeats the workload's fixed work, at least once, for as many
iterations as fit in `--seconds`, and reports the median per-iteration wall
and CPU time.  It sets up its inputs from the seed several times before the
first iteration, once before each later one, and again after the last until
it has set up `MIN_SETUPS` times; set-up time is the median import time plus
the median set-up.  Every iteration's outputs are checked by the oracles in
`oracles.py`; an operation whose output fails a check counts as failed.

With `--trace 0` the result holds the end-to-end metrics.  With `--trace 1`
one traced set-up and one traced iteration follow the untraced iterations,
and the result holds the per-layer metrics of `layers.py`, with self time per
layer and the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Everything else about the run (environment, samples,
digests of the outputs, failures) goes to `.perfbench/results/`.
"""

from __future__ import annotations

import os

# The workload process is single-threaded: keep numpy's BLAS to one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
MIN_SETUPS = 8

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
WORKLOAD_NAMES = tuple(w["name"] for w in BENCH["workloads"])

# Imports every psmsynth module, as a fresh `psmsynth` process does.
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); "
    "import numpy, psmsynth.cli, psmsynth.dsl, psmsynth.kernels; "
    "print(time.perf_counter() - t0)"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def commit_id() -> str:
    """HEAD of the checkout when it is a git repository of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def units_of(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[section]}


def import_seconds() -> float:
    """Fresh-interpreter import time of numpy and every psmsynth module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    import layers
    import workloads
    from psmsynth import cli, cost, dfg, dse, dsl, expr, fds, fsm, kernels, model, timeunits
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]()
    work = os.path.join(WORK, "work", name)
    tally = workloads.Tally()

    imports, setups = [], []

    def set_up() -> None:
        imports.append(import_seconds())
        reset_dir(work)
        gc.collect()
        t0 = time.perf_counter()
        problems = workload.setup(work, seed)
        setups.append(time.perf_counter() - t0)
        tally.op("set-up", problems)

    out = os.path.join(work, "out")
    samples = {"wall_s": [], "cpu_s": []}
    outputs = set()

    def iterate(tracer=None) -> tuple[float, float]:
        reset_dir(out)
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            raw = workload.run(out)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if tracer is not None:
                tracer.remove()
        checked = workload.check(raw, out, tally)
        outputs.add((checked.sched_area, json.dumps(checked.digests, sort_keys=True)))
        return wall, cpu

    # Untraced iterations for as long as one more (and, when tracing, the
    # traced one after them) still fits in the time given.  Set-ups come
    # before, between and after the iterations, so that their samples span
    # the same stretch of machine time as the iterations' samples.
    started = time.perf_counter()
    for _ in range(MIN_SETUPS // 2):
        set_up()
    while True:
        began = time.perf_counter()
        wall, cpu = iterate()
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        now = time.perf_counter()
        if now - started + (2 if trace else 1) * (now - began) > seconds:
            break
        set_up()
    while len(setups) < MIN_SETUPS:
        set_up()

    metrics = {
        "wall_s": statistics.median(samples["wall_s"]),
        "cpu_s": statistics.median(samples["cpu_s"]),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sched_area": 0.0,
    }
    units = units_of("end_to_end")
    detail = {}
    if trace:
        # One traced set-up and one traced iteration give the per-layer numbers.
        probes = layers.Probes(workloads.AREA)
        tracer = Tracer(
            [cli, dsl, model, expr, timeunits, dfg, fds, cost, fsm, kernels, dse],
            layers.GROUPS, probes.table(),
        )
        reset_dir(work)
        gc.collect()
        with tracer:
            t0 = time.perf_counter()
            tally.op("traced set-up", workload.setup(work, seed))
            traced_setup = time.perf_counter() - t0
        traced_wall, _ = iterate(tracer)
        per_layer = layers.layer_metrics(tracer, probes, traced_setup, traced_wall, metrics["wall_s"])
        if name == "explore_space":
            per_layer.update(workloads.kernel_rows(seed))
        detail["end_to_end"] = metrics
        detail["spans_file"] = write_spans(tracer, name, seed)
        units = units_of("per_layer")
        # A layer idle on this workload reports 0.
        metrics = {k: per_layer.get(k, 0.0) for k in units}

    if len(outputs) != 1:
        tally.op("repeatability", [f"{len(outputs)} different outputs from one input"])
    sched_area, digests = min(outputs)
    if trace:
        metrics["bench.ops_failed"] = tally.failed / tally.attempted
    else:
        metrics["sched_area"] = sched_area

    detail.update({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "commit": commit_id(),
            "kernel_path": "numba" if kernels.HAVE_NUMBA else "numpy",
        },
        "iterations": len(samples["wall_s"]) + int(trace),
        "samples": samples,
        "setup": {"import_s": imports, "inputs_s": setups},
        "digests": json.loads(digests),
        "ops": {"attempted": tally.attempted, "failed": tally.failed,
                "ops_failed": tally.failed / tally.attempted, "problems": tally.problems[:50]},
    })
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    detail["result"] = result
    path = os.path.join(WORK, "results", f"{name}-seed{seed}-trace{int(trace)}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    return result


def write_spans(tracer, name: str, seed: int) -> str:
    """The spans of the traced set-up and iteration, as (id, parent, function,
    start, end) lists."""
    path = os.path.join(WORK, "results", f"{name}-seed{seed}-spans.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"kept": len(tracer.spans), "total": tracer.span_count, "spans": tracer.spans}, handle)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "psmsynth", "__init__.py")):
        return fail(f"no psmsynth sources under {SRC}")
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import psmsynth

    if not os.path.abspath(psmsynth.__file__).startswith(SRC + os.sep):
        return fail(f"imported psmsynth from {psmsynth.__file__}, not from {SRC}")

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        for key, metric in result["metrics"].items():
            print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
        print(json.dumps(result))
        return 0

    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if done.returncode != 0:
            return fail(f"workload {name} exited with code {done.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
