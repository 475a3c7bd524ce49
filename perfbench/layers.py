"""Per-layer metrics: which spans time what, which probes count what, and how
the traced iterations turn into the `per_layer` numbers of BENCHMARK.json,
which gives their units.

Each layer is a `psmsynth` module (`expr` and `timeunits` count as `model`).
The comment on each block names the end-to-end metric and workload that the
layer's numbers should move.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

import oracles
from tracer import LAYERS

CLI_COMMANDS = ("check", "sim", "schedule", "synth", "explore", "report")

# Metric name -> functions whose outermost calls it times.
GROUPS = {
    # cli: wall_s on cli_fixtures.
    **{f"cli.{c}_s": [f"cli.cmd_{c}"] for c in CLI_COMMANDS},
    # dsl: setup_s on verify_wpm, wall_s on cli_fixtures.
    "dsl.parse_s": ["dsl.parse_text", "dsl.parse_file", "dsl.parse_component", "dsl.parse_system"],
    # model: wall_s on verify_wpm.
    "model.validate_s": ["model.validate_component", "model.validate_system"],
    "model.simulate_s": ["model.simulate", "model.simulate_component"],
    # dfg: setup_s and wall_s on sched_unrolled and cli_fixtures.
    "dfg.parse_s": ["dfg.parse_nest", "dfg.parse_dfg_lines"],
    "dfg.bounds_s": ["dfg.min_latency", "dfg.max_useful_latency"],
    # fds: wall_s on sched_unrolled (most) and cli_fixtures; fds.area moves sched_area.
    "fds.schedule_s": ["fds.fds_schedule"],
    # cost: wall_s on cli_fixtures and explore_space.
    "cost.rows_s": ["cost.load_alternatives", "cost.loads_alternatives",
                    "cost.save_alternatives", "cost.alternative_from_schedule"],
    # fsm: wall_s on verify_wpm.
    "fsm.synth_s": ["fsm.synthesize_system", "fsm.synthesize_single", "fsm.synthesize_component"],
    "fsm.interpret_s": ["fsm.interpret"],
    "fsm.compare_s": ["fsm.compare_with_reference"],
    "fsm.vcd_s": ["fsm.write_vcd"],
    "fsm.rtl_s": ["fsm.emit_rtl"],
    # kernels: wall_s on explore_space (the streaming part).
    "kernels.evaluate_s": ["kernels.evaluate_combos"],
    "kernels.pareto_s": ["kernels.pareto_mask", "kernels.pareto_mask_brute"],
    # dse: wall_s and peak_rss_mb on explore_space.
    "dse.streaming_s": ["dse.explore_streaming"],
}

class Probes:
    """Domain counters taken from the arguments and results of traced calls.
    They read outputs with the benchmark's own code only."""

    def __init__(self, area_of):
        self.area_of = area_of  # op type -> area weight of ResourceUsage.cost()
        self.counts: dict[str, float] = defaultdict(float)
        self.fds_call_ms: list[float] = []

    def table(self):
        c = self.counts

        def cli_main(args, kwargs, result, seconds):
            c["cli.commands"] += 1
            c["cli.nonzero_exits"] += result != 0

        def parse_text(args, kwargs, result, seconds):
            c["dsl.models"] += 1
            c["dsl.bytes"] += len(args[0].encode())

        def simulate(args, kwargs, result, seconds):
            c["model.state_entries"] += len(result.state_entries)
            c["model.events"] += len(result.events)
            c["model.dropped"] += len(result.dropped)

        def parse_nest(args, kwargs, result, seconds):
            def walk(loop):
                return len(loop.body.ops) + sum(walk(ch) for ch in loop.children)

            c["dfg.ops"] += sum(walk(lp) for lp in result.loops) + sum(
                len(seg.ops) for seg in (result.pre, result.post) if seg is not None
            )

        def fds_schedule(args, kwargs, result, seconds):
            graph = oracles.graph_of(args[0])
            c["fds.ops"] += len(graph.ops)
            c["dfg.mobility"] += oracles.mobility(graph, result.lam)
            used = oracles.usage(graph, dict(result.start))
            c["fds.area"] += sum(self.area_of.get(t, 1.0) * n for t, n in used.items())
            self.fds_call_ms.append(seconds * 1e3)

        def rows_loaded(args, kwargs, result, seconds):
            c["cost.rows"] += len(result)

        def rows_saved(args, kwargs, result, seconds):
            c["cost.rows"] += len(args[0])

        def row_made(args, kwargs, result, seconds):
            c["cost.rows"] += 1

        def interpret(args, kwargs, result, seconds):
            c["fsm.cycle_entries"] += len(result.entries)

        def compare(args, kwargs, result, seconds):
            c["fsm.mismatches"] += len(result)

        def write_vcd(args, kwargs, result, seconds):
            target = args[2]
            c["fsm.vcd_bytes"] += target.tell() if hasattr(target, "tell") else os.path.getsize(target)

        def emit_rtl(args, kwargs, result, seconds):
            c["fsm.rtl_bytes"] += len(result.encode())

        def evaluate_combos(args, kwargs, result, seconds):
            c["kernels.configs"] += args[1]

        def explore(args, kwargs, result, seconds):
            independent = kwargs.get("independent", args[5] if len(args) > 5 else False)
            c["dse.explore_indep_s" if independent else "dse.explore_common_s"] += seconds
            c["dse.configs"] += len(result.configs)
            c["dse.feasible"] += sum(1 for cfg in result.configs if cfg.feasible)
            c["dse.front"] += len(result.front)
            c["dse.report_bytes"] += sum(os.path.getsize(p) for p in result.files.values())

        def explore_streaming(args, kwargs, result, seconds):
            c["dse.streaming_front"] += len(result[0])

        return {
            "cli.main": cli_main,
            "dsl.parse_text": parse_text,
            "model.simulate": simulate,
            "dfg.parse_nest": parse_nest,
            "fds.fds_schedule": fds_schedule,
            "cost.load_alternatives": rows_loaded,
            "cost.loads_alternatives": rows_loaded,
            "cost.save_alternatives": rows_saved,
            "cost.alternative_from_schedule": row_made,
            "fsm.interpret": interpret,
            "fsm.compare_with_reference": compare,
            "fsm.write_vcd": write_vcd,
            "fsm.emit_rtl": emit_rtl,
            "kernels.evaluate_combos": evaluate_combos,
            "dse.explore": explore,
            "dse.explore_streaming": explore_streaming,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, probes: Probes, setup_wall: float, traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced set-up plus one traced iteration of
    `traced_wall` seconds; `untraced_wall` is the untraced iterations' median."""
    c = probes.counts
    m: dict[str, float] = {}
    for name in GROUPS:
        m[name] = tracer.group_time.get(name, 0.0)
    for key in ("cli.commands", "cli.nonzero_exits", "dsl.models", "dsl.bytes",
                "model.state_entries", "model.events", "model.dropped", "dfg.ops",
                "dfg.mobility", "fds.ops", "fds.area", "cost.rows", "fsm.cycle_entries",
                "fsm.mismatches", "fsm.vcd_bytes", "fsm.rtl_bytes", "dse.explore_common_s",
                "dse.explore_indep_s", "dse.configs", "dse.feasible", "dse.front",
                "dse.report_bytes", "dse.streaming_front"):
        m[key] = c.get(key, 0.0)
    m["fds.calls"] = tracer.calls.get("fds.fds_schedule", 0)
    m["kernels.calls"] = sum(v for k, v in tracer.calls.items() if k.startswith("kernels."))
    m["model.us_per_event"] = _ratio(m["model.simulate_s"] * 1e6, m["model.state_entries"] + m["model.events"])
    m["fds.ms_per_op"] = _ratio(m["fds.schedule_s"] * 1e3, m["fds.ops"])
    if probes.fds_call_ms:
        m["fds.call_p50_ms"] = float(np.percentile(probes.fds_call_ms, 50))
        m["fds.call_p90_ms"] = float(np.percentile(probes.fds_call_ms, 90))
    m["fds.call_samples"] = float(len(probes.fds_call_ms))
    m["fsm.us_per_entry"] = _ratio(m["fsm.interpret_s"] * 1e6, m["fsm.cycle_entries"])
    m["kernels.configs_per_s"] = _ratio(c.get("kernels.configs", 0.0), m["kernels.evaluate_s"])
    m["dse.configs_per_s"] = _ratio(m["dse.configs"], m["dse.explore_common_s"] + m["dse.explore_indep_s"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self.get(layer, 0.0)
    m["bench.self_s"] = setup_wall + traced_wall - tracer.top_level
    m["fds.self_share"] = _ratio(m["fds.self_s"], setup_wall + traced_wall)
    m["trace.setup_s"] = setup_wall
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.spans"] = tracer.span_count
    return m
