"""The four benchmark workloads.

Each workload has three steps.  `setup` generates, writes and parses its
inputs from the seed; the runner repeats it to time set-up.  `run` is the
fixed timed work.  `check` judges what `run` produced with the oracles and
returns the schedule area and the output digests.  Workloads call the program
through module attributes (`fds.fds_schedule`, `cli.main`, ...) so the tracer
can rebind them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time
import traceback
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from psmsynth import cli, cost, dfg, dse, dsl, fds, fsm, kernels, model

import gen
import oracles

FIXTURES = os.path.join("src", "psmsynth", "fixtures")
DATA = os.path.join("perfbench", "data")
COMPONENTS = ("sensor", "mhr", "spo2", "emg", "monitor")
AREA = dict(cost.CostTable().area)  # weights of ResourceUsage.cost()


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def area_of(used: dict[str, int]) -> float:
    return sum(AREA.get(t, 1.0) * n for t, n in used.items())


def files_under(path: str) -> list[str]:
    return [os.path.join(d, f) for d, _, names in os.walk(path) for f in names]


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails when a check on its
    output finds a problem."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])


@dataclass
class Checked:
    sched_area: float
    digests: dict[str, str]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`psmsynth.cli.main` in-process with its output captured.  A traceback
    counts as exit code -1 with the traceback as stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code, err = -1, io.StringIO(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def exit_problems(code: int, stderr: str) -> list[str]:
    return [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]


def check_sched_dir(out_dir: str, dfg_text: str, mcc: str) -> tuple[list[str], float]:
    """Problems and summed area of the `.sched` files `psmsynth schedule` wrote
    for one `.dfg` file."""
    parts = oracles.parse_dfg_parts(dfg_text)
    problems: list[str] = []
    total = 0.0
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".sched"))
    lams = set()
    for name in names:
        lam_tag, part = name[len(mcc) + 2:-len(".sched")].split("_", 1)
        lams.add(int(lam_tag))
        if part not in parts:
            problems.append(f"{name}: no part '{part}' in the graph")
            continue
        lam, start, resources = oracles.parse_sched(read(os.path.join(out_dir, name)))
        problems += [f"{name}: {p}" for p in oracles.check_schedule(parts[part], lam, start, resources)]
        total += area_of(resources)
    if not names:
        problems.append("no schedules written")
    rows = read(os.path.join(out_dir, f"{mcc}_alternatives.csv")).splitlines()[1:]
    if len(rows) != len(lams):
        problems.append(f"{len(rows)} alternative rows for {len(lams)} latency constraints")
    return problems, total


# --- cli_fixtures ---------------------------------------------------------------

class CliFixtures:
    name = "cli_fixtures"
    FIXTURE_DFGS = ("mhr", "spo2", "emg", "chain", "adds4")
    EXPLORES = (("wpm_lcfds", "wpm"), ("wpm_legup", "wpm"), ("eba_lcfds", "eba"))
    N_GENERATED = 300

    def setup(self, work: str, seed: int) -> list[str]:
        rng = random.Random(seed)
        self.dfg_texts = {d: read(fixture(f"{d}.dfg")) for d in self.FIXTURE_DFGS}
        self.generated = []
        for i in range(self.N_GENERATED):
            stem = f"g{i:03d}"
            text = gen.small_dfg_text(rng, i)
            path = os.path.join(work, "inputs", f"{stem}.dfg")
            write(path, text)
            dfg.parse_nest(read(path))
            self.generated.append((stem, path))
            self.dfg_texts[stem] = text
        return []

    def commands(self, out: str) -> list[tuple[str, str, list[str]]]:
        psm = [fixture(f"{c}.psm") for c in COMPONENTS]
        system = fixture("wpm_system.psm")
        cmds = [
            ("check", "", ["check", *psm, system]),
            ("sim", "", ["sim", *psm, system, "--stimulus", fixture("wpm_start.stim"), "--horizon", "2 s"]),
        ]
        for d in self.FIXTURE_DFGS:
            cmds.append(("schedule", d, ["schedule", fixture(f"{d}.dfg"), "--out", os.path.join(out, "sched", d)]))
        cmds.append(("synth", "mhr", ["synth", fixture("mhr.psm"), "--freq", "dut=102 MHz",
                                      "--out", os.path.join(out, "synth", "mhr.v")]))
        cmds.append(("synth", "wpm", ["synth", *psm, system, "--out", os.path.join(out, "synth", "wpm.v")]))
        for alts, cfg in self.EXPLORES:
            for independent in (False, True):
                tag = alts + ("_indep" if independent else "")
                cmds.append(("explore", tag, ["explore", "--alts", fixture(f"{alts}.csv"),
                                              "--config", fixture(f"{cfg}.cfg"),
                                              "--out", os.path.join(out, "explore", tag)]
                             + (["--independent"] if independent else [])))
        cmds.append(("report", "", ["report", os.path.join(out, "explore", "wpm_lcfds")]))
        for stem, path in self.generated:
            cmds.append(("schedule", stem, ["schedule", path, "--out", os.path.join(out, "sched", stem)]))
        return cmds

    def run(self, out: str):
        return [(kind, tag, argv, *run_cli(argv)) for kind, tag, argv in self.commands(out)]

    def check(self, results, out: str, tally: Tally) -> Checked:
        area = 0.0
        stdout_all = []
        golden_rtl = read(fixture(os.path.join("golden", "mhr.v")))
        for kind, tag, argv, code, stdout, stderr in results:
            problems = exit_problems(code, stderr)
            stdout_all.append(stdout)
            if not problems:
                if kind == "check" and "ok: 6 model(s) validated" not in stdout:
                    problems.append("check did not validate all six models")
                elif kind == "sim":
                    missing = [i for i in ("mhr_sensor", "mhr", "spo2", "emg", "monitor")
                               if f" {i} state " not in stdout]
                    problems += [f"no state entries for {i}" for i in missing]
                elif kind == "schedule":
                    found, sched_area = check_sched_dir(os.path.join(out, "sched", tag), self.dfg_texts[tag], tag)
                    problems += found
                    area += sched_area
                elif kind == "synth" and tag == "mhr" and read(argv[-1]) != golden_rtl:
                    problems.append("mhr RTL differs from the golden file")
                elif kind == "explore":
                    problems += oracles.check_front(os.path.join(out, "explore", tag),
                                                    oracles.space_size(argv[2]))
                elif kind == "report" and "pareto front:" not in stdout:
                    problems.append("report printed no front")
            tally.op(f"{kind} {tag}".strip(), problems)
        return Checked(area, {
            "outputs": oracles.file_digest(files_under(out), out),
            "stdout": oracles.text_digest(*stdout_all),
        })


# --- sched_unrolled -------------------------------------------------------------

class SchedUnrolled:
    name = "sched_unrolled"
    MHR_LAMBDAS = (63, 84, 105, 126)

    def setup(self, work: str, seed: int) -> list[str]:
        mhr_text = read(os.path.join(DATA, "mhr_x2.dfg"))
        twin_path = os.path.join(work, "inputs", "twin.dfg")
        write(twin_path, gen.twin_body_text(random.Random(seed)))
        twin_text = read(twin_path)
        mhr_body = dfg.parse_nest(mhr_text).loops[0].body
        twin_body = dfg.parse_nest(twin_text).loops[0].body
        mid = (dfg.min_latency(twin_body) + dfg.max_useful_latency(twin_body)) // 2
        self.jobs = [("mhr_x2", mhr_body, lam) for lam in self.MHR_LAMBDAS] + [("twin", twin_body, mid)]
        self.graphs = {
            "mhr_x2": oracles.parse_dfg_parts(mhr_text)["loop_0"],
            "twin": oracles.parse_dfg_parts(twin_text)["loop_0"],
        }
        return []

    def run(self, out: str):
        return [(label, lam, fds.fds_schedule(body, lam)) for label, body, lam in self.jobs]

    def check(self, results, out: str, tally: Tally) -> Checked:
        area = 0.0
        lines = []
        for label, lam, sched in results:
            start = dict(sched.start)
            problems = oracles.check_schedule(self.graphs[label], lam, start)
            if sched.lam != lam:
                problems.append(f"schedule records latency {sched.lam}, asked {lam}")
            tally.op(f"fds {label} lambda={lam}", problems)
            if not problems:
                area += area_of(oracles.usage(self.graphs[label], start))
            lines.append(f"{label} {lam} " + " ".join(f"{k}:{v}" for k, v in sorted(start.items())))
        return Checked(area, {"schedules": oracles.text_digest(*lines)})


# --- explore_space --------------------------------------------------------------

class ExploreSpace:
    name = "explore_space"
    GROUPS = 4
    ROWS = 24
    FAST_ROWS = 20  # rows per group that meet the group's period at F_REF
    F_REF = 100e6  # Hz
    WINDOW = 0.1  # seconds, as `window = 100 ms` in the config files

    def setup(self, work: str, seed: int) -> list[str]:
        """Each group is the latency sweep lo..lo+23 of a seeded loop body, as
        modelled rows with a measured-like scatter: area and power within 5 %,
        rated clock 100-120 MHz.  The scatter keeps configurations from tying
        on (area, energy), and setting each period by the sweep's 20th-fastest
        row keeps the infeasible share about the same for every seed."""
        rng = random.Random(seed)
        inputs = os.path.join(work, "inputs")
        table = cost.CostTable()
        rows, periods, problems = [], {}, []
        self.setup_area = 0.0
        for g in range(self.GROUPS):
            mcc = f"c{g}"
            text = gen.alternative_body_text(rng)
            path = os.path.join(inputs, f"{mcc}.dfg")
            write(path, text)
            nest = dfg.parse_nest(read(path))
            graph = oracles.parse_dfg_parts(text)["loop_0"]
            lo = dfg.min_latency(nest.loops[0].body)
            sweep = [(lam, *fds.schedule_nest(nest, lam)) for lam in range(lo, lo + self.ROWS)]
            for lam, cycles, used, schedules in sweep:
                start = dict(schedules[(0,)].start)
                problems += oracles.check_schedule(graph, lam, start)
                self.setup_area += area_of(oracles.usage(graph, start))
                f_max = round(rng.uniform(100.0, 120.0), 1) * cost.MHZ
                row = cost.alternative_from_schedule(mcc, 0, lam, cycles, used.per_type, f_max, table)
                rows.append(replace(
                    row, source="measured",
                    area=float(round(row.area * rng.uniform(0.95, 1.05))),
                    power=round(row.power * rng.uniform(0.95, 1.05), 2),
                ))
            ranked = sorted(cycles for _, cycles, _, _ in sweep)
            periods[mcc] = math.ceil(ranked[self.FAST_ROWS - 1] * 1e9 / self.F_REF)  # ns
        self.alts = os.path.join(inputs, "alts.csv")
        cost.save_alternatives(rows, self.alts)
        if len(cost.load_alternatives(self.alts)) != self.GROUPS * self.ROWS:
            problems.append("alternatives table does not read back")
        self.configs = {}
        for tag, static in (("common", "0"), ("indep", "0.2")):
            lines = ["window = 100 ms", f"static_fraction = {static}"]
            lines += [f"period.{m} = {ns} ns" for m, ns in periods.items()]
            self.configs[tag] = os.path.join(inputs, f"{tag}.cfg")
            write(self.configs[tag], "\n".join(lines) + "\n")
        self.space = dse.synthetic_space(seed=seed)
        self.held_out = dse.synthetic_space(n_groups=3, group_size=8, seed=seed + 1)
        return problems

    def run(self, out: str):
        explores = []
        for tag in ("common", "indep"):
            argv = ["explore", "--alts", self.alts, "--config", self.configs[tag],
                    "--out", os.path.join(out, tag)] + (["--independent"] if tag == "indep" else [])
            explores.append((tag, run_cli(argv)))
        big = dse.explore_streaming(self.space, window=self.WINDOW)
        small = dse.explore_streaming(self.held_out, window=self.WINDOW, chunk=64)
        return explores, big, small

    def check(self, results, out: str, tally: Tally) -> Checked:
        explores, big, small = results
        expected = f"configurations: {self.ROWS ** self.GROUPS}"
        for tag, (code, stdout, stderr) in explores:
            problems = exit_problems(code, stderr)
            if not problems:
                if expected not in stdout:
                    problems.append(f"expected '{expected}'")
                problems += oracles.check_front(os.path.join(out, tag), self.ROWS ** self.GROUPS)
            tally.op(f"explore {tag}", problems)
        fa, fe, fi, feasible = big
        dominated = [
            k for k in range(len(fa))
            if ((fa <= fa[k]) & (fe <= fe[k]) & ((fa < fa[k]) | (fe < fe[k]))).any()
        ]
        problems = [] if len(fa) and feasible else ["empty streaming result"]
        problems += [f"front point {fi[k]} is dominated" for k in dominated]
        tally.op("explore_streaming synthetic", problems)
        tally.op("explore_streaming held-out",
                 oracles.check_streaming(self.held_out, self.WINDOW, small[2], small[3]))
        return Checked(self.setup_area, {
            "reports": oracles.file_digest(files_under(out), out),
            "streaming": oracles.text_digest(fa.tobytes(), fe.tobytes(), fi.tobytes(), str(feasible)),
        })


# --- verify_wpm -----------------------------------------------------------------

# MCC behaviour and latencies (cycles) of the acceptance test.
MCC_IMPLS = {
    "ComputeHR": lambda a: (60_000_000 // (a[0] if a[0] else 1) % 200,),
    "ComputeSpo2": lambda a: ((a[0] * 100) // (a[0] + a[1] + 1),),
    "ZScore": lambda a: ((a[0] - a[1]) // 3,),
}
MCC_LATENCIES = {"ComputeHR": 4056, "ComputeSpo2": 210, "ZScore": 328}


class VerifyWpm:
    name = "verify_wpm"
    HORIZON_S = 60
    CLOCK_HZ = 10**6  # one clock for every instance; see NOTES.md

    def setup(self, work: str, seed: int) -> list[str]:
        self.components = {}
        for name in COMPONENTS:
            comp = dsl.parse_file(fixture(f"{name}.psm"))
            self.components[comp.name] = comp
        self.system = dsl.parse_file(fixture("wpm_system.psm"))
        problems = []
        self.latencies = {}
        self.setup_area = 0.0
        for comp in self.components.values():
            for mcc in comp.mccs:
                text = read(fixture(mcc.dfg_ref))
                nest = dfg.parse_nest(text)
                parts = oracles.parse_dfg_parts(text)
                cycles, _, schedules = fds.schedule_nest(nest, dfg.min_latency(nest.loops[0].body))
                for key, sched in schedules.items():
                    part = key if isinstance(key, str) else "loop_" + "_".join(map(str, key))
                    start = dict(sched.start)
                    problems += oracles.check_schedule(parts[part], sched.lam, start)
                    self.setup_area += area_of(oracles.usage(parts[part], start))
                self.latencies[mcc.name] = cycles
        if self.latencies != MCC_LATENCIES:
            problems.append(f"scheduled MCC latencies {self.latencies} != {MCC_LATENCIES}")
        times = gen.start_measure_times(random.Random(seed), self.HORIZON_S)
        self.stimulus = [model.TraceEvent(t, "StartMeasure", "Start", None) for t in times]
        return problems

    def run(self, out: str):
        horizon = Fraction(self.HORIZON_S)
        ref = model.simulate(self.system, self.components, self.stimulus, horizon, MCC_IMPLS)
        sys_ir = fsm.synthesize_system(
            self.system, self.components, {i.name: self.CLOCK_HZ for i in self.system.instances}
        )
        # interpret() runs edge max_cycles too, simulate() stops before the horizon.
        cyc = fsm.interpret(sys_ir, self.stimulus, self.HORIZON_S * self.CLOCK_HZ - 1,
                            self.latencies, MCC_IMPLS)
        mismatches = fsm.compare_with_reference(ref, cyc, sys_ir)
        vcd = io.StringIO()
        fsm.write_vcd(cyc, sys_ir, vcd)
        rtl = fsm.emit_rtl(sys_ir)
        return ref, cyc, mismatches, vcd.getvalue(), rtl

    def check(self, results, out: str, tally: Tally) -> Checked:
        ref, cyc, mismatches, vcd, rtl = results
        instances = [i.name for i in self.system.instances]
        tally.op("simulate", [] if ref.state_entries else ["no state entries"])
        tally.op("interpret", oracles.check_sequences(ref, cyc, instances))
        tally.op("compare_with_reference", mismatches)
        tally.op("write_vcd", oracles.check_vcd(vcd, len(cyc.entries)))
        modules = len(self.components) + 3  # components, timer, synchronizer, top
        tally.op("emit_rtl", [] if rtl.count("endmodule") == modules else ["unexpected module count"])
        ref_text = "\n".join(f"{e.time} {e.instance} {e.state}" for e in ref.state_entries)
        cyc_text = "\n".join(f"{e.cycle} {e.instance} {e.state}" for e in cyc.entries)
        return Checked(self.setup_area, {
            "reference": oracles.text_digest(ref_text),
            "cycles": oracles.text_digest(cyc_text),
            "vcd": oracles.text_digest(vcd),
            "rtl": oracles.text_digest(rtl),
        })


WORKLOADS = {w.name: w for w in (CliFixtures, SchedUnrolled, ExploreSpace, VerifyWpm)}


def kernel_rows(seed: int) -> dict[str, float]:
    """Kernel timings outside the pipeline: `pareto_mask` on random clouds of
    1k/10k/100k points (best of three) and `evaluate_combos` over the 1M-config
    synthetic space in chunks of 4k, 64k and all of it."""
    rng = np.random.default_rng(seed)
    rows = {}
    for n, label in ((1_000, "1k"), (10_000, "10k"), (100_000, "100k")):
        xs, ys = rng.random(n), rng.random(n)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            kernels.pareto_mask(xs, ys)
            best = min(best, time.perf_counter() - t0)
        rows[f"kernels.pareto_{label}_ms"] = best * 1e3
    space = dse.synthetic_space(seed=seed)
    args = (space.offsets, space.sizes, space.f_req, space.f_max, space.power, space.area)
    for chunk, label in ((4_096, "4k"), (65_536, "64k"), (space.total, "1m")):
        t0 = time.perf_counter()
        for start in range(0, space.total, chunk):
            kernels.evaluate_combos(start, min(chunk, space.total - start), *args)
        rows[f"kernels.evaluate_chunk{label}_s"] = time.perf_counter() - t0
    rows["kernels.numba"] = float(kernels.HAVE_NUMBA)
    return rows
