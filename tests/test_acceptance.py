"""End-to-end acceptance checks.

Each test covers one headline claim about the toolchain and ends in a single
pass/fail assertion.  When a test fails, the assertion message lists the names
of the individual conditions that did not hold.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np

from conftest import own_mccs, random_dfg
from front_oracle import enumerate_front
from ilp import area, min_area_schedule
from psmsynth import dse, fds, fsm, kernels
from psmsynth.cli import main as cli_main
from psmsynth.cost import MHZ, load_alternatives, save_alternatives
from psmsynth.dfg import min_latency
from psmsynth.dsl import parse_file
from psmsynth.model import TraceEvent, simulate, simulate_component

WINDOW = Fraction(1, 10)
MS = Fraction(1, 1000)

ALL_IMPLS = {
    "ComputeHR": lambda a: (60_000_000 // (a[0] if a[0] else 1) % 200,),
    "ComputeSpo2": lambda a: ((a[0] * 100) // (a[0] + a[1] + 1),),
    "ZScore": lambda a: ((a[0] - a[1]) // 3,),
}
ALL_LATENCIES = {"ComputeHR": 4056, "ComputeSpo2": 210, "ZScore": 328}


def check_all(conditions):
    failed = [name for name, ok in conditions.items() if not ok]
    assert not failed, f"failed conditions: {failed}"


def load_groups(path):
    groups = {}
    for row in load_alternatives(path):
        groups.setdefault(row.mcc, []).append(row)
    return groups


def envelope(groups):
    return {n: dse.EnvelopeEntry(WINDOW) for n in groups}


def run_exploration(fixtures, table_name, tmp_path):
    groups = load_groups(fixtures / table_name)
    return dse.explore(groups, envelope(groups), WINDOW, tmp_path / table_name)


# --- 1: measured alternative tables ------------------------------------------

def test_acceptance_alternative_tables_complete_and_lossless(fixtures, tmp_path):
    expected_rows = {
        "wpm_lcfds.csv": 10,
        "wpm_legup.csv": 6,
        "eba_lcfds.csv": 17,
        "eba_lcfds_pareto.csv": 12,
        "eba_legup.csv": 5,
    }
    conditions = {}
    for name, count in expected_rows.items():
        rows = load_alternatives(fixtures / name)
        save_alternatives(rows, tmp_path / name)
        conditions[f"{name} rows"] = len(rows) == count
        conditions[f"{name} lossless"] = (
            (tmp_path / name).read_text() == (fixtures / name).read_text()
        )
    check_all(conditions)


# --- 2: design-space sizes -----------------------------------------------------

def test_acceptance_design_space_sizes(fixtures, tmp_path):
    sizes = {
        "wpm_lcfds.csv": 32,
        "wpm_legup.csv": 8,
        "eba_lcfds_pareto.csv": 48,
        "eba_legup.csv": 4,
    }
    conditions = {}
    for name, count in sizes.items():
        report = run_exploration(fixtures, name, tmp_path)
        conditions[f"{name} configs"] = len(report.configs) == count
    check_all(conditions)


# --- 3: derived clock frequencies ---------------------------------------------

def test_acceptance_derived_frequencies(fixtures, tmp_path):
    lc = run_exploration(fixtures, "wpm_lcfds.csv", tmp_path)
    lg = run_exploration(fixtures, "wpm_legup.csv", tmp_path)
    emg_u5 = [r for r in load_groups(fixtures / "wpm_lcfds.csv")["emg"] if r.unroll == 5]
    mean_req = np.mean(
        [dse.required_frequency(r, dse.EnvelopeEntry(WINDOW)) for r in emg_u5]
    ) / MHZ
    check_all(
        {
            "min-area common clock 8.853 MHz": abs(lc.min_area.f_common / MHZ - 8.853) < 0.01,
            "baseline min-energy clock 10.707 MHz": abs(lg.min_energy.f_common / MHZ - 10.707) < 0.01,
            "mean unrolled-emg requirement 6.30 MHz": abs(mean_req - 6.30) < 0.01,
        }
    )


# --- 4: area against the baseline flow ----------------------------------------

def test_acceptance_area_reductions(fixtures, tmp_path):
    lc = run_exploration(fixtures, "wpm_lcfds.csv", tmp_path)
    lg = run_exploration(fixtures, "wpm_legup.csv", tmp_path)
    per_component = {
        a.mcc: round(100.0 * (1.0 - a.area / b.area), 1)
        for a, b in zip(lc.min_area.choices, lg.min_area.choices)
    }
    check_all(
        {
            "min-area areas": (lc.min_area.area, lg.min_area.area) == (7540.0, 13120.0),
            "min-energy areas": (lc.min_energy.area, lg.min_energy.area) == (9098.0, 14581.0),
            "min-area reduction 42.5%": round(
                100.0 * (1.0 - lc.min_area.area / lg.min_area.area), 1
            ) == 42.5,
            "min-energy reduction 37.6%": round(
                100.0 * (1.0 - lc.min_energy.area / lg.min_energy.area), 1
            ) == 37.6,
            "per-component reductions": per_component
            == {"mhr": 67.3, "spo2": 9.2, "emg": 43.6},
        }
    )


# --- 5: energy against the baseline flow --------------------------------------

def test_acceptance_energy_reductions_and_clusters(fixtures, tmp_path):
    lc = run_exploration(fixtures, "wpm_lcfds.csv", tmp_path)
    lg = run_exploration(fixtures, "wpm_legup.csv", tmp_path)
    names = list(load_groups(fixtures / "wpm_lcfds.csv"))
    emg_idx = names.index("emg")
    feasible = [c for c in lc.configs if c.feasible]
    unrolled = [c.energy for c in feasible if c.choices[emg_idx].unroll == 5]
    rolled = [c.energy for c in feasible if c.choices[emg_idx].unroll == 0]
    min_energy_red = 100.0 * (1.0 - lc.min_energy.energy / lg.min_energy.energy)
    min_area_red = 100.0 * (1.0 - lc.min_area.energy / lg.min_area.energy)
    check_all(
        {
            "best energy in [2.60, 2.68] mJ": 2.60 <= lc.min_energy.energy <= 2.68,
            "unrolled cluster low": abs(min(unrolled) - 2.635) < 0.06,
            "unrolled cluster high": abs(max(unrolled) - 2.830) < 0.06,
            "rolled cluster low": abs(min(rolled) - 3.714) < 0.06,
            "rolled cluster high": abs(max(rolled) - 3.796) < 0.06,
            "min-energy reduction ~38%": abs(min_energy_red - 38.0) < 1.0,
            "min-area energy reduction ~48.2%": abs(min_area_red - 48.2) < 1.5,
            "scaling gain >= 90%": lc.energy_reduction_vs_unscaled >= 0.90
            and lg.energy_reduction_vs_unscaled >= 0.90,
            "scaling gain ~93.5%": abs(100.0 * lc.energy_reduction_vs_unscaled - 93.5) < 2.5,
            "baseline scaling gain ~91.0%": abs(100.0 * lg.energy_reduction_vs_unscaled - 91.0)
            < 2.5,
        }
    )


# --- 6: second case study ------------------------------------------------------

def test_acceptance_second_case_study_area(fixtures, tmp_path):
    lc = run_exploration(fixtures, "eba_lcfds_pareto.csv", tmp_path)
    lg = run_exploration(fixtures, "eba_legup.csv", tmp_path)
    reduction = round(100.0 * (1.0 - lc.min_area.area / lg.min_area.area), 1)
    check_all(
        {
            "areas 8881 vs 38062": (lc.min_area.area, lg.min_area.area) == (8881.0, 38062.0),
            "reduction 76.7%": reduction == 76.7,
        }
    )


# --- 7: non-dominated filtering at scale ---------------------------------------

def test_acceptance_front_extraction_matches_quadratic_oracle():
    rng = np.random.default_rng(42)
    sizes = rng.integers(1, 400, 1000)
    sizes[:6] = 10_000
    started = time.perf_counter()
    all_match = True
    for i, n in enumerate(sizes):
        xs = rng.random(int(n))
        ys = rng.random(int(n))
        if i % 3 == 0:
            xs = np.round(xs, 1)
            ys = np.round(ys, 1)
        if not np.array_equal(kernels.pareto_mask(xs, ys), kernels.pareto_mask_brute(xs, ys)):
            all_match = False
            break
    elapsed = time.perf_counter() - started
    check_all({"all clouds match": all_match, "under 30 s": elapsed < 30.0})


# --- 8: million-configuration streaming ----------------------------------------

def test_acceptance_streaming_scales_and_matches_enumeration():
    space = dse.synthetic_space()
    started = time.perf_counter()
    fa, fe, _, n_feasible = dse.explore_streaming(space)
    elapsed = time.perf_counter() - started

    small = dse.synthetic_space(n_groups=3, group_size=8, seed=5)
    ma, me, mi, mn = dse.explore_streaming(small, chunk=64)
    ea, ee, ei, en = enumerate_front(small, 0.1)
    check_all(
        {
            "space has at least a million configs": space.total >= 10**6,
            "streamed in under 60 s": elapsed < 60.0,
            "front is non-trivial": len(fa) >= 1 and len(fa) == len(fe),
            "feasible configs counted": 0 < n_feasible <= space.total,
            "enumeration gives the same count": mn == en,
            "enumeration gives the same front": np.array_equal(mi, ei)
            and ma.tobytes() == ea.tobytes() and me.tobytes() == ee.tobytes(),
        }
    )


# --- 9: scheduler properties ----------------------------------------------------

def test_acceptance_scheduler_validity_and_optimality_bounds():
    started = time.perf_counter()
    rng = random.Random(7)
    all_valid = True
    for _ in range(1000):
        d = random_dfg(rng, 30)
        lo = min_latency(d)
        lam = lo + rng.randint(0, max(1, lo // 2))
        s = fds.fds_schedule(d, lam)
        fds.validate_schedule(d, s)
        all_valid = all_valid and s.makespan(d) <= lam

    rng = random.Random(11)
    never_better = True
    for _ in range(150):
        d = random_dfg(rng, 8)
        lam = min_latency(d) + rng.randint(0, 3)
        heuristic = area(d, fds.fds_schedule(d, lam))
        never_better = never_better and heuristic >= area(d, min_area_schedule(d, lam)) - 1e-9
    elapsed = time.perf_counter() - started
    check_all(
        {
            "all schedules valid": all_valid,
            "never beats the ILP optimum": never_better,
            "under 120 s": elapsed < 120.0,
        }
    )


# --- 10: cycle-accurate equivalence --------------------------------------------

def test_acceptance_synthesized_machines_match_reference(fixtures):
    mhz = 10**6
    component_cases = {
        "sensor.psm": ([], Fraction(45, 1000), 45_000),
        "mhr.psm": (
            [TraceEvent(1 * MS, "dut", "Start", None)]
            + [
                TraceEvent(t * MS, "dut", "Sample", 700 + i)
                for i, t in enumerate([100, 300, 700, 1200])
            ],
            Fraction(1450, 1000),
            1_450_000,
        ),
        "spo2.psm": (
            [
                TraceEvent(t * MS, "dut", "Sample", 500 + 7 * i)
                for i, t in enumerate(range(5, 120, 7))
            ],
            Fraction(130, 1000),
            130_000,
        ),
        "emg.psm": (
            [
                TraceEvent(t * MS, "dut", "Sample", 30 * i % 97)
                for i, t in enumerate(range(3, 95, 9))
            ],
            Fraction(110, 1000),
            110_000,
        ),
        "monitor.psm": (
            [TraceEvent(t * MS, "dut", "Hr", 100 + t) for t in (4, 34)]
            + [TraceEvent(t * MS, "dut", "Spo2", v) for t, v in ((12, 95), (22, 80))]
            + [TraceEvent(41 * MS, "dut", "Emg", 55)],
            Fraction(50, 1000),
            50_000,
        ),
    }
    conditions = {}
    for name, (stim, horizon, max_cycles) in component_cases.items():
        comp = parse_file(fixtures / name)
        impls = own_mccs(ALL_IMPLS, comp)
        ref = simulate_component(comp, stim, horizon, impls)
        sys_ir = fsm.synthesize_single(comp, 1 * mhz)
        cyc = fsm.interpret(sys_ir, stim, max_cycles, own_mccs(ALL_LATENCIES, comp), impls)
        conditions[f"{name} equivalent"] = (
            fsm.compare_with_reference(ref, cyc, sys_ir) == []
        )

    comps = {}
    for name in ["mhr", "spo2", "emg", "sensor", "monitor"]:
        c = parse_file(fixtures / f"{name}.psm")
        comps[c.name] = c
    system = parse_file(fixtures / "wpm_system.psm")
    stim = [TraceEvent(Fraction(1, 2) * MS, "StartMeasure", "Start", None)]
    ref = simulate(system, comps, stim, Fraction(45, 1000), ALL_IMPLS)
    sys_ir = fsm.synthesize_system(
        system, comps, {inst.name: 1 * mhz for inst in system.instances}
    )
    cyc = fsm.interpret(sys_ir, stim, 45_000, ALL_LATENCIES, ALL_IMPLS)
    conditions["system equivalent"] = fsm.compare_with_reference(ref, cyc, sys_ir) == []

    comp = parse_file(fixtures / "mhr.psm")
    watch_ir = fsm.synthesize_single(comp, 102 * mhz)
    watch = fsm.interpret(
        watch_ir,
        [TraceEvent(Fraction(0), "dut", "Start", None)],
        51_100_000,
        own_mccs(ALL_LATENCIES, comp),
        own_mccs(ALL_IMPLS, comp),
    )
    brady = [e for e in watch.entries if e.state == "ReportBradycardia"]
    conditions["watchdog fires after 51,000,000-cycle dwell"] = bool(brady) and (
        51_000_000 <= brady[0].cycle <= 51_000_008
    )
    check_all(conditions)


# --- 11: reproducible reports ---------------------------------------------------

def test_acceptance_exploration_reports_are_reproducible(fixtures, tmp_path, capsys):
    names = ["configs.csv", "pareto.csv", "scatter.svg", "summary.txt"]
    outputs, manifests = [], []
    for run in ("first", "second"):
        out = tmp_path / run
        code = cli_main(
            [
                "explore",
                "--alts", str(fixtures / "wpm_lcfds.csv"),
                "--config", str(fixtures / "wpm.cfg"),
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append({n: (out / n).read_bytes() for n in names})
        manifest = json.loads((out / "manifest.json").read_text())
        manifest.pop("timestamp")
        manifests.append(manifest)
    check_all(
        {
            "report files byte-identical": outputs[0] == outputs[1],
            "manifests identical apart from the timestamp": manifests[0] == manifests[1],
        }
    )
