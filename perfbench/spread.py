"""Run the benchmark once per seed and summarise each end-to-end metric.

Run from the root of a checkout:

    python3 perfbench/spread.py [--workloads sched_unrolled,verify_wpm] [--seeds 1-10] [--json FILE]

Each run is a separate `perfbench/run.py` process, one after another, with the
command and run length of BENCHMARK.json.  For every workload and metric it
prints the median, the quartiles (`statistics.quantiles`, n=4), the spread
(interquartile distance as a share of the median) and the metric's bound.
`--json` also writes these figures, with the sample count and the environment
(kernel path included) of the runs, to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(bench: dict, workload: str, seeds: list[int]) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)
    with open(os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed{seeds[-1]}-trace0.json"),
              encoding="utf-8") as handle:
        env = json.load(handle)["env"]
    metrics = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                         "bound": bounds[name], "values": vals}
        print(f"{workload} {name:12s} median={med:.5g} q1={q1:.5g} q3={q3:.5g} "
              f"spread={(q3 - q1) / med:.4f} bound={bounds[name]}", flush=True)
    return {"samples": len(seeds), "seeds": seeds, "failed": failed, "env": env, "metrics": metrics}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args(argv)

    summary = {w: summarise(bench, w, seed_list(args.seeds)) for w in args.workloads.split(",")}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"run_seconds": bench["run_seconds"], "workloads": summary},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all(s["failed"] == 0 for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
