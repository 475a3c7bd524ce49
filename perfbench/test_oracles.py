"""Each benchmark oracle passes the program's real output and fails a
deliberately corrupted copy of it.

Run from the root of a checkout:  python3 -m pytest perfbench/test_oracles.py
"""

from __future__ import annotations

import io
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from psmsynth import dse, dsl, fds, fsm, model  # noqa: E402
from psmsynth.fds import Schedule  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def schedule_fixture(tmp_path, name="mhr"):
    out = str(tmp_path / name)
    code, _, err = workloads.run_cli(["schedule", workloads.fixture(f"{name}.dfg"), "--out", out])
    assert code == 0, err
    return out, workloads.read(workloads.fixture(f"{name}.dfg"))


def test_check_schedule_rejects_each_violation():
    graph = oracles.Graph({2: ("add", (0,)), 3: ("mul", (2,)), 4: ("load", (1,))})
    good = {2: 0, 3: 1, 4: 0}
    assert oracles.check_schedule(graph, 2, good, {"add": 1, "mul": 1, "load": 1}) == []
    assert oracles.check_schedule(graph, 2, {2: 0, 3: 0, 4: 0})  # reads before finish
    assert oracles.check_schedule(graph, 2, {2: 0, 3: 1, 4: 1})  # load ends at 3 > 2
    assert oracles.check_schedule(graph, 2, {2: -1, 3: 1, 4: 0})  # negative start
    assert oracles.check_schedule(graph, 2, {2: 0, 3: 1})  # op 4 missing
    assert oracles.check_schedule(graph, 2, good, {"add": 2, "mul": 1, "load": 1})  # wrong claim


def test_sched_files_pass_and_a_corrupted_one_fails(tmp_path):
    out, text = schedule_fixture(tmp_path)
    problems, area = workloads.check_sched_dir(out, text, "mhr")
    assert problems == [] and area > 0
    name = sorted(n for n in os.listdir(out) if n.endswith("_loop_0.sched"))[0]
    path = os.path.join(out, name)
    lines = workloads.read(path).splitlines()
    lines = [("op 5 @ 0" if ln.startswith("op 5 @") else ln) for ln in lines]  # before its operand
    workloads.write(path, "\n".join(lines) + "\n")
    problems, _ = workloads.check_sched_dir(out, text, "mhr")
    assert any("reads op 4" in p for p in problems)


def test_missing_alternative_rows_fail(tmp_path):
    out, text = schedule_fixture(tmp_path)
    csv = os.path.join(out, "mhr_alternatives.csv")
    workloads.write(csv, "\n".join(workloads.read(csv).splitlines()[:-1]) + "\n")
    problems, _ = workloads.check_sched_dir(out, text, "mhr")
    assert any("alternative rows" in p for p in problems)


def test_parse_dfg_parts_names_parts_as_the_cli():
    parts = oracles.parse_dfg_parts(workloads.read(workloads.fixture("spo2.dfg")))
    assert sorted(parts) == ["loop_0", "post", "pre"]
    assert len(parts["loop_0"].ops) == 6
    nested = oracles.parse_dfg_parts("loop 2 {\n op 0 add\n loop 3 {\n  op 0 add\n }\n}\n")
    assert sorted(nested) == ["loop_0", "loop_0_0"]
    assert sorted(oracles.parse_dfg_parts("op 0 add\nop 1 add 0\n")) == ["pre"]


def test_mobility_of_a_chain():
    chain = oracles.Graph({0: ("add", ()), 1: ("add", (0,)), 2: ("add", (1,))})
    assert oracles.mobility(chain, 3) == 3
    assert oracles.mobility(chain, 5) == 9


FIXTURE_CONFIGS = oracles.space_size(workloads.fixture("wpm_lcfds.csv"))


def explore_fixture(tmp_path):
    out = str(tmp_path / "dse")
    code, stdout, err = workloads.run_cli([
        "explore", "--alts", workloads.fixture("wpm_lcfds.csv"),
        "--config", workloads.fixture("wpm.cfg"), "--out", out,
    ])
    assert code == 0, err
    assert f"configurations: {FIXTURE_CONFIGS}" in stdout
    return out


def test_front_check_catches_dominated_and_infeasible_points(tmp_path):
    out = explore_fixture(tmp_path)
    assert oracles.check_front(out, FIXTURE_CONFIGS) == []
    configs = workloads.read(os.path.join(out, "configs.csv")).splitlines()
    pareto_path = os.path.join(out, "pareto.csv")
    pareto = workloads.read(pareto_path).splitlines()
    front_ids = {ln.split(",")[0] for ln in pareto[1:]}
    off_front = next(ln for ln in configs[1:] if ln.endswith(",yes") and ln.split(",")[0] not in front_ids)
    workloads.write(pareto_path, "\n".join(pareto + [off_front]) + "\n")
    assert any("dominated" in p for p in oracles.check_front(out, FIXTURE_CONFIGS))

    out = explore_fixture(tmp_path / "again")
    front_id = workloads.read(os.path.join(out, "pareto.csv")).splitlines()[1].split(",")[0]
    configs_path = os.path.join(out, "configs.csv")
    rows = workloads.read(configs_path).splitlines()
    rows = [ln[:-3] + "no" if ln.split(",")[0] == front_id else ln for ln in rows]
    workloads.write(configs_path, "\n".join(rows) + "\n")
    assert any("not a feasible" in p for p in oracles.check_front(out, FIXTURE_CONFIGS))


def test_front_check_catches_a_truncated_or_malformed_configs_csv(tmp_path):
    out = explore_fixture(tmp_path)
    configs_path = os.path.join(out, "configs.csv")
    rows = workloads.read(configs_path).splitlines()
    workloads.write(configs_path, "\n".join(rows[:-1]) + "\n")
    assert any("lists" in p for p in oracles.check_front(out, FIXTURE_CONFIGS))
    workloads.write(configs_path, "\n".join(rows[:-1] + [rows[-1] + ",extra"]) + "\n")
    assert any("cells" in p for p in oracles.check_front(out, FIXTURE_CONFIGS))


def test_streaming_check_catches_a_lost_point_and_a_bad_count():
    space = dse.synthetic_space(n_groups=3, group_size=6, seed=3)
    _, _, ids, feasible = dse.explore_streaming(space, chunk=32)
    assert oracles.check_streaming(space, 0.1, ids, feasible) == []
    assert oracles.check_streaming(space, 0.1, ids[1:], feasible)
    assert oracles.check_streaming(space, 0.1, ids, feasible + 1)


def cycle_run():
    comp = dsl.parse_file(workloads.fixture("sensor.psm"))
    ref = model.simulate_component(comp, [], Fraction(45, 1000))
    sys_ir = fsm.synthesize_single(comp, 10**6)
    cyc = fsm.interpret(sys_ir, [], 45_000 - 1)
    return ref, cyc, sys_ir


def test_sequence_and_vcd_checks_catch_a_lost_entry():
    ref, cyc, sys_ir = cycle_run()
    assert oracles.check_sequences(ref, cyc, ["dut"]) == []
    vcd = io.StringIO()
    fsm.write_vcd(cyc, sys_ir, vcd)
    assert oracles.check_vcd(vcd.getvalue(), len(cyc.entries)) == []
    lost = fsm.CycleTrace(cyc.entries[:-1], cyc.events, cyc.dropped)
    assert oracles.check_sequences(ref, lost, ["dut"])
    assert oracles.check_vcd(vcd.getvalue(), len(lost.entries))
    wrong_payload = fsm.CycleTrace(
        cyc.entries, [fsm.CycleEventRecord(e.instance, e.cycle, e.time, e.event, 0) for e in cyc.events],
        cyc.dropped,
    )
    assert oracles.check_sequences(ref, wrong_payload, ["dut"])


def test_failed_operations_are_counted():
    tally = workloads.Tally()
    code, _, err = workloads.run_cli(["check", "no/such/file.psm"])
    tally.op("check", workloads.exit_problems(code, err))
    tally.op("compare_with_reference", ["mhr: state sequence differs"])
    tally.op("fine", [])
    assert (tally.attempted, tally.failed) == (3, 2)
    assert code == 3


def test_verify_workload_flags_a_wrong_outcome(tmp_path, monkeypatch):
    wl = workloads.VerifyWpm()
    assert wl.setup(str(tmp_path), 1) == []
    monkeypatch.setattr(workloads, "MCC_LATENCIES", {**workloads.MCC_LATENCIES, "ZScore": 1})
    assert wl.setup(str(tmp_path), 1)
    ref, cyc, sys_ir = cycle_run()
    tally = workloads.Tally()
    wl.system = sys_ir.system
    wl.check((ref, cyc, ["dut: entry #3 late"], "", "module x; endmodule"), "", tally)
    failed = {p.split(":")[0] for p in tally.problems}
    assert failed == {"compare_with_reference", "write_vcd", "emit_rtl"}


def test_sched_workload_flags_a_broken_schedule(tmp_path):
    wl = workloads.SchedUnrolled()
    wl.setup(str(tmp_path), 1)
    label, body, lam = wl.jobs[0]
    flat = Schedule({op.id: 0 for op in body.ops}, lam)
    tally = workloads.Tally()
    wl.check([(label, lam, flat)], "", tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_generators_repeat_for_a_seed():
    for make in (lambda r: gen.small_dfg_text(r, 7), gen.twin_body_text,
                 gen.alternative_body_text):
        assert make(random.Random(5)) == make(random.Random(5))
        assert make(random.Random(5)) != make(random.Random(6))
    assert [gen.small_dfg_size(i) for i in range(300)].count(30) > 0
    assert max(gen.small_dfg_size(i) for i in range(300)) <= 30


def test_tracer_times_layers_and_restores_the_package(tmp_path):
    import layers
    from psmsynth import cli, cost, dfg, dse, expr, kernels, timeunits
    from tracer import LAYERS, Tracer

    modules = [cli, dsl, model, expr, timeunits, dfg, fds, cost, fsm, kernels, dse]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    probes = layers.Probes(workloads.AREA)
    tracer = Tracer(modules, layers.GROUPS, probes.table())
    with tracer:
        assert hasattr(model.simulate, "__wrapped__") and cli.simulate is model.simulate
        code, _, _ = workloads.run_cli(["schedule", workloads.fixture("spo2.dfg"), "--out", str(tmp_path)])
    assert code == 0
    assert {(m.__name__, k): v for m in modules for k, v in vars(m).items()} == before
    m = layers.layer_metrics(tracer, probes, 0.0, tracer.top_level, tracer.top_level)
    assert m["cli.commands"] == 1 and m["fds.calls"] > 0 and m["fds.area"] > 0
    assert 0 < m["fds.schedule_s"] <= m["cli.schedule_s"]
    total_self = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert abs(total_self - tracer.top_level) < 1e-6
