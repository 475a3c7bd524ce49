"""Command-line driver: exit codes, outputs, and run manifests."""

import hashlib
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import psmsynth
from psmsynth import cli, dsl, fds
from psmsynth.cli import (
    CliError,
    load_config,
    main,
    parse_frequency,
    parse_scalar,
)
from psmsynth.cost import load_alternatives
from psmsynth.dfg import DEFAULT_LATENCIES

ALL_MODELS = [
    "sensor.psm", "mhr.psm", "spo2.psm", "emg.psm", "monitor.psm", "wpm_system.psm",
]


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- Scalar parsing helpers ---------------------------------------------------

def test_parse_scalar_units_and_bare_seconds():
    assert parse_scalar("100 ms") == Fraction(1, 10)
    assert parse_scalar("2 us") == Fraction(2, 10**6)
    assert parse_scalar("0.5") == Fraction(1, 2)
    assert parse_scalar("1/3 s") == Fraction(1, 3)


def test_parse_frequency_suffixes():
    assert parse_frequency("102 MHz") == 102 * 10**6
    assert parse_frequency("1.5ghz") == Fraction(3, 2) * 10**9
    assert parse_frequency("250 kHz") == 250_000
    assert parse_frequency("1000") == 1000


def test_load_config_comments_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nwindow = 1 s\nwindow = 100 ms  # later wins\n\n")
    assert load_config(str(path)) == {"window": "100 ms"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign\n")
    with pytest.raises(CliError) as err:
        load_config(str(bad))
    assert err.value.code == 1 and ":1:" in str(err.value)


# --- check --------------------------------------------------------------------

def test_check_validates_all_fixture_models(fixtures, capsys):
    code, out, err = run(["check", *(fixtures / n for n in ALL_MODELS)], capsys)
    assert code == 0
    assert out.strip() == "ok: 6 model(s) validated"
    assert err == ""


def test_check_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "broken.psm"
    bad.write_text("component Broken {\n")
    code, out, err = run(["check", bad], capsys)
    assert code == 1
    assert "broken.psm" in err and out == ""


def test_check_semantic_error_exits_1(fixtures, tmp_path, capsys):
    text = (fixtures / "sensor.psm").read_text()
    bad = tmp_path / "sensor.psm"
    bad.write_text(text.replace("initial Emit;", "initial Gone;"))
    code, _, err = run(["check", bad], capsys)
    assert code == 1
    assert "Gone" in err


NOPE = """\
component C {
  period 10 ms;
  initial S;
  state S {
    entry {
      notify Nope;
    }
    ts(10 ms) -> S;
  }
  state Lost {
    ts(10 ms) -> S;
  }
}
"""


def test_check_prints_each_finding_once(tmp_path, capsys):
    # One finding, however many instances share the component; the warning
    # still prints.
    (tmp_path / "c.psm").write_text(NOPE)
    (tmp_path / "sys.psm").write_text("system Sys {\n  instance a: C;\n  instance b: C;\n}\n")
    code, out, err = run(["check", tmp_path / "c.psm", tmp_path / "sys.psm"], capsys)
    assert code == 1 and out == ""
    assert err == (
        "component C, state S: error: notify of undeclared event 'Nope'\n"
        "component C: warning: state 'Lost' is unreachable from 'S'\n"
    )


def test_check_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(["check", tmp_path / "nope.psm"], capsys)
    assert code == 3
    assert "nope.psm" in err


# --- sim ----------------------------------------------------------------------

def test_sim_component_prints_states_and_events(fixtures, capsys):
    code, out, _ = run(
        ["sim", fixtures / "sensor.psm", "--horizon", "35 ms"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t=0.000000000 dut state Emit"
    assert "t=0.010000000 dut state Emit" in lines
    assert "t=0.000000000 dut event Out 1" in lines
    assert "t=0.030000000 dut event Out 4" in lines


def test_sim_system_with_stimulus_file(fixtures, capsys):
    code, out, _ = run(
        [
            "sim", *(fixtures / n for n in ALL_MODELS),
            "--stimulus", fixtures / "wpm_start.stim",
            "--horizon", "50 ms",
        ],
        capsys,
    )
    assert code == 0
    assert any("mhr state" in line for line in out.splitlines())
    assert any("monitor state" in line for line in out.splitlines())


def test_sim_needs_a_single_model(fixtures, capsys):
    code, _, err = run(
        ["sim", fixtures / "sensor.psm", fixtures / "mhr.psm", "--horizon", "1 s"],
        capsys,
    )
    assert code == 1
    assert "exactly one component" in err


def test_sim_rejects_malformed_stimulus(fixtures, tmp_path, capsys):
    stim = tmp_path / "bad.stim"
    stim.write_text("0\n")
    code, _, err = run(
        ["sim", fixtures / "sensor.psm", "--stimulus", stim, "--horizon", "1 s"],
        capsys,
    )
    assert code == 1
    assert "bad.stim:1:" in err


# --- schedule -----------------------------------------------------------------

def test_schedule_single_latency_outputs(fixtures, tmp_path, capsys):
    code, out, _ = run(
        [
            "schedule", fixtures / "adds4.dfg",
            "--latency", "2", "--mcc", "adds", "--out", tmp_path,
        ],
        capsys,
    )
    assert code == 0
    assert "wrote 1 alternative row(s)" in out
    rows = load_alternatives(tmp_path / "adds_alternatives.csv")
    assert len(rows) == 1
    # Straight-line segments are scheduled at their minimum latency; the
    # constraint only binds loop bodies.
    assert (rows[0].mcc, rows[0].latency_constraint, rows[0].exec_cycles) == ("adds", 2, 1)
    sched = (tmp_path / "adds_l2_pre.sched").read_text()
    assert sched.splitlines()[0] == "latency 1"
    assert (tmp_path / "manifest.json").exists()


def test_schedule_default_sweep_covers_latency_range(fixtures, tmp_path, capsys):
    code, out, _ = run(
        ["schedule", fixtures / "adds4.dfg", "--out", tmp_path], capsys
    )
    assert code == 0
    assert "wrote 4 alternative row(s)" in out
    rows = load_alternatives(tmp_path / "adds4_alternatives.csv")
    assert [r.latency_constraint for r in rows] == [1, 2, 3, 4]


@pytest.mark.parametrize("name, calls", [("mhr", 5), ("adds4", 1)])
def test_schedule_runs_fds_once_per_segment(fixtures, tmp_path, capsys, monkeypatch, name, calls):
    # A segment beside the loops is scheduled once per run, a loop body once
    # per latency: mhr is a 22-op pre and one loop at 4 latencies, adds4 a
    # loop-free graph, which is all pre.
    scheduled = []
    schedule = fds.fds_schedule

    def counting(dfg, lam):
        scheduled.append((len(dfg.ops), lam))
        return schedule(dfg, lam)

    monkeypatch.setattr(fds, "fds_schedule", counting)
    code, out, _ = run(["schedule", fixtures / f"{name}.dfg", "--out", tmp_path], capsys)
    assert code == 0 and "wrote 4 alternative row(s)" in out
    assert len(scheduled) == calls, scheduled
    pre = [path.read_text() for path in tmp_path.glob(f"{name}_l*_pre.sched")]
    assert len(pre) == 4 and len(set(pre)) == 1


def test_schedule_rejects_fewer_than_one_point(fixtures, tmp_path, capsys):
    for points in ("0", "-3"):
        code, _, err = run(
            ["schedule", fixtures / "adds4.dfg", "--points", points, "--out", tmp_path],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert points in err
    assert not (tmp_path / "manifest.json").exists()


def test_schedule_unroll_sweeps_the_unrolled_body(fixtures, tmp_path, capsys):
    # Two copies of the 64-op mhr body: the serialized makespan doubles, so
    # the sweep must reach 126, not stop at the single body's 66.
    code, out, _ = run(
        ["schedule", fixtures / "mhr.dfg", "--unroll", "2", "--points", "2", "--out", tmp_path],
        capsys,
    )
    assert code == 0
    assert "wrote 2 alternative row(s)" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["lambdas"] == [63, 126]
    assert manifest["parameters"]["unroll"] == 2


NESTED_DFG = """\
pre {
  in 0
  op 1 load 0
  op 2 add 1 1
  out 2
}
loop 4 {
  in 0
  in 1
  op 2 mul 0 1
  op 3 add 2 0
  op 4 add 0 1
  op 5 mul 4 4
  op 6 sub 3 5
  out 6
  loop 3 {
    in 0
    op 1 add 0 0
    op 2 sub 1 0
    op 3 add 0 0
    op 4 mul 3 2
    out 4
  }
}
post {
  in 0
  op 1 store 0
}
"""

# Op types of each part of NESTED_DFG, for makespans read off the .sched files.
NESTED_TYPES = {
    "pre": {1: "load", 2: "add"},
    "loop_0": {2: "mul", 3: "add", 4: "add", 5: "mul", 6: "sub"},
    "loop_0_0": {1: "add", 2: "sub", 3: "add", 4: "mul"},
    "post": {1: "store"},
}

NESTED_GOLDEN = {
    "nest_alternatives.csv": "b65ecbfd14c73d9bdc4ebe052f935db2de832c995ef674f548de6654c11e4e88",
    "nest_l3_loop_0.sched": "5ebaaa4cb7049ff71a49b32bfb2ca0e38ca9149c0251ccf7a91ebd1b97c5fdb6",
    "nest_l3_loop_0_0.sched": "1f9aee36f253a4a437db85ec1bc471db3ca655720dc6fcba4aede64bed273b7f",
    "nest_l3_post.sched": "dd26a5925f37f88d6f6171deb3979b4f2215012a62edceb2ca4f0c05fa93308b",
    "nest_l3_pre.sched": "f757f7826d32935c12df76b05d74de3b22ef8c4761efd367f05f42122fd2cbcf",
    "nest_l4_loop_0.sched": "6ea5f7af8e2fc3421a7e6d3a7b766c1e68746a81f01124fb5da7d9d309974448",
    "nest_l4_loop_0_0.sched": "c2ed31dba02d8da78a325feb9e1cefcb43ca522683bb8b1326aae94b57585771",
    "nest_l4_post.sched": "dd26a5925f37f88d6f6171deb3979b4f2215012a62edceb2ca4f0c05fa93308b",
    "nest_l4_pre.sched": "f757f7826d32935c12df76b05d74de3b22ef8c4761efd367f05f42122fd2cbcf",
    "nest_l5_loop_0.sched": "c481ff752fee8d7823df9ce4311170e83c2c3b8b76d0c036feca661082886454",
    "nest_l5_loop_0_0.sched": "e2ab61e7498271d56c1ed92980604dc80b267c7e0b131da3854e14452b9d144d",
    "nest_l5_post.sched": "dd26a5925f37f88d6f6171deb3979b4f2215012a62edceb2ca4f0c05fa93308b",
    "nest_l5_pre.sched": "f757f7826d32935c12df76b05d74de3b22ef8c4761efd367f05f42122fd2cbcf",
}


def test_schedule_nested_nest_folds_inner_loops(tmp_path, capsys):
    src = tmp_path / "nest.dfg"
    src.write_text(NESTED_DFG)
    out = tmp_path / "out"
    code, _, _ = run(["schedule", src, "--points", "3", "--out", out], capsys)
    assert code == 0
    rows = load_alternatives(out / "nest_alternatives.csv")
    assert len(rows) == 3
    for row in rows:
        span = {}
        for part, types in NESTED_TYPES.items():
            lines = (out / f"nest_l{row.latency_constraint}_{part}.sched").read_text().splitlines()
            starts = {int(w[1]): int(w[3]) for w in map(str.split, lines) if w[0] == "op"}
            assert set(starts) == set(types)
            span[part] = max(s + DEFAULT_LATENCIES[types[op]] for op, s in starts.items())
        # pre + trip_outer * (outer + trip_inner * inner) + post
        assert row.exec_cycles == (
            span["pre"] + 4 * (span["loop_0"] + 3 * span["loop_0_0"]) + span["post"]
        )
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.name != "manifest.json"
    }
    assert digests == NESTED_GOLDEN


# `psmsynth schedule` on each fixture graph at --unroll 0 and 2: the exit code,
# stdout or stderr ({out}/{fx} stand for the paths), and the sha256 of the
# output listing, one `<file> <sha256 of the file>` line per output file in
# name order, manifest.json aside (None: no output directory is made).
FIXTURE_SCHEDULE_GOLDEN = {
    ("adds4", 0): (0, "wrote 4 alternative row(s) to {out}/adds4_alternatives.csv\n",
                   "aec9f950b7aec909e01da99282669fa1dbf8dbbf24da6e7d0a59bbd127b56bf0"),
    ("adds4", 2): (0, "wrote 4 alternative row(s) to {out}/adds4_alternatives.csv\n",
                   "8c8244360e841a6113631985dc0b9675be0d20c67662e8333551588e72c06ea8"),
    ("chain", 0): (0, "wrote 1 alternative row(s) to {out}/chain_alternatives.csv\n",
                   "da9e3de024f2e6258e1c8d2de90504258702819f16021044a60f956adcfcde04"),
    ("chain", 2): (0, "wrote 1 alternative row(s) to {out}/chain_alternatives.csv\n",
                   "1f716a81d5be08dea4b662e4d64d6387df581c1a5b30b556b25afd31021e5bdb"),
    ("emg", 0): (0, "wrote 1 alternative row(s) to {out}/emg_alternatives.csv\n",
                 "334f980b2ae4e52cd143e18fbf6b730f4018111b80bbc1900946cb23f03c4cc4"),
    ("emg", 2): (0, "wrote 3 alternative row(s) to {out}/emg_alternatives.csv\n",
                 "7034d375aac46051430401daa0908d1bb3b79d632dd766951a49873d97217d8e"),
    ("mhr", 0): (0, "wrote 4 alternative row(s) to {out}/mhr_alternatives.csv\n",
                 "425a74c97009df2f105f603bfc36dfe538520f46731f58ce708aad84160c3822"),
    ("mhr", 2): (0, "wrote 4 alternative row(s) to {out}/mhr_alternatives.csv\n",
                 "2c40345322cd46cab646f7aa8c262a070cca3cddcac13b81f423529051cd8a01"),
    ("spo2", 0): (0, "wrote 1 alternative row(s) to {out}/spo2_alternatives.csv\n",
                  "5c0094ebc9ae5fe9797d5f6ac2e4a5f2e8e41fec5a7e3988bb292aa3b07df726"),
    ("spo2", 2): (1, "error: {fx}/spo2.dfg: factor 2 does not divide trip count 25\n", None),
}


@pytest.mark.parametrize("graph, unroll", FIXTURE_SCHEDULE_GOLDEN,
                         ids=[f"{g}-u{u}" for g, u in FIXTURE_SCHEDULE_GOLDEN])
def test_golden_schedules_of_fixture_graphs(fixtures, tmp_path, capsys, graph, unroll):
    code, text, digest = FIXTURE_SCHEDULE_GOLDEN[(graph, unroll)]
    out = tmp_path / "out"
    got, stdout, stderr = run(
        ["schedule", fixtures / f"{graph}.dfg", "--unroll", unroll, "--out", out], capsys
    )
    assert got == code
    assert (stdout if code == 0 else stderr) == text.format(out=out, fx=fixtures)
    assert (stderr if code == 0 else stdout) == ""
    if digest is None:
        assert not out.exists()
        return
    listing = "".join(
        f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in sorted(out.iterdir()) if p.name != "manifest.json"
    )
    assert hashlib.sha256(listing.encode()).hexdigest() == digest


def test_schedule_infeasible_latency_exits_2(fixtures, tmp_path, capsys):
    # A graph without loops is bound by the constraint as a whole.
    for graph, lam, needed in (("mhr.dfg", 1, 63), ("adds4.dfg", -5, 1), ("adds4.dfg", 0, 1)):
        code, out, err = run(
            ["schedule", fixtures / graph, "--latency", lam, "--out", tmp_path / "out"],
            capsys,
        )
        assert code == 2
        assert out == "" and err == f"error: latency constraint {lam} below minimum {needed}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("op zero add\n", "malformed dfg line: 'op zero add'"),
    ("in 0\nop 1 add 0 2\nop 2 add 1\nout 2\n", "dependence cycle through ops [1, 2]"),
    ("pre {\n  in 0\n  loop 2 {\n    in 0\n    op 1 add 0\n  }\n}\n",
     "'pre' block holds only in/op/out lines, got a loop"),
    ("loop 2 {\n  in 0\n  op 1 add 0\n}\npost {\n  in 0\n  op 1 add 0\n  carry 1 1\n}\n",
     "'post' block holds only in/op/out lines, got a carry"),
    ("pre {\n  in 0\n  op 1 add 0\n}\nin 0\nop 1 mul 0\n",
     "op listing outside any block next to a 'pre' block"),
    ("pre {\n  in 0\n  op 1 add 0\n}\npre {\n  in 0\n  op 1 mul 0\n}\n", "second 'pre' block"),
    ("prefix junk\n  in 0\n  op 1 add 0\n}\n", "unknown dfg line: 'prefix junk'"),
    ("pre{\n  in 0\n  op 1 add 0\n}\n", "unknown dfg line: 'pre{'"),
    ("loop 4 nounrol {\n  in 0\n  op 1 add 0\n}\n", "malformed loop header: 'loop 4 nounrol {'"),
    ("loop 2 {\n  in 0\n  op 1 add 0\n  op 2 add 1\n  carry 2 1 junk\n}\n",
     "malformed carry line: 'carry 2 1 junk'"),
    ("in 0\nin 1 7\nop 2 add 0 1\nout 2\n", "malformed dfg line: 'in 1 7'"),
    ("in 0\nin 1\nop 2 add 0 1\nout 2 9\n", "malformed dfg line: 'out 2 9'"),
    ("in 0\nop 1 add 0\n}\n", "unknown dfg line: '}'"),
    ("loop\n  in 0\n  op 1 add 0\n}\n", "unknown dfg line: 'loop'"),
    ("loop 3\n  in 0\n  op 1 add 0\n}\n", "malformed loop header: 'loop 3'"),
    ("in 0\nop 1 add 0\ncarry 1 1\n", "unknown dfg line: 'carry 1 1'"),
    ("loop 2 {\n  pre {\n    in 0\n    op 1 add 0\n  }\n}\n", "unknown dfg line: 'pre {'"),
    ("loop 2 {\n  in 0\n  op 1 add 0\n", "missing closing '}'"),
], ids=[
    "bad-line", "cycle", "loop-in-pre", "carry-in-post", "listing-next-to-pre", "second-pre",
    "prefix-junk", "header-without-space", "misspelt-loop-flag", "carry-extra-token",
    "in-extra-token", "out-extra-token", "stray-brace", "loop-without-trip",
    "loop-without-brace", "carry-outside-loop", "pre-in-loop", "unclosed-loop",
])
def test_schedule_malformed_graph_exits_1(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.dfg"
    bad.write_text(text)
    code, out, err = run(["schedule", bad, "--out", tmp_path / "out"], capsys)
    assert code == 1
    assert out == "" and err == f"error: {bad}: {message}\n"


# --- synth --------------------------------------------------------------------

def test_synth_writes_golden_rtl_and_manifest(fixtures, tmp_path, capsys):
    out_file = tmp_path / "mhr.v"
    code, out, _ = run(
        ["synth", fixtures / "mhr.psm", "--freq", "dut=102 MHz", "--out", out_file],
        capsys,
    )
    assert code == 0
    assert out_file.read_text() == (fixtures / "golden" / "mhr.v").read_text()
    assert "dut:" in out and "states, timers:" in out and f"wrote {out_file}" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    expected = hashlib.sha256((fixtures / "mhr.psm").read_bytes()).hexdigest()
    assert manifest["inputs"][str(fixtures / "mhr.psm")] == expected
    assert manifest["parameters"]["frequencies_hz"] == {"dut": "102000000"}


def test_synth_defaults_to_stdout(fixtures, capsys):
    code, out, _ = run(["synth", fixtures / "sensor.psm"], capsys)
    assert code == 0
    assert "module psm_Sensor" in out and "endmodule" in out


def test_synth_ignores_a_component_the_system_does_not_instantiate(fixtures, tmp_path, capsys):
    # An unused component with a zero-time cycle: check and sim accept the
    # files, and synth writes the same RTL as without it.
    (tmp_path / "unused.psm").write_text(
        "component Unused { period 1 s; initial A; state A { ts(delta) -> A; } }\n"
    )
    models = [fixtures / n for n in ALL_MODELS]
    assert run(["check", *models, tmp_path / "unused.psm"], capsys)[0] == 0
    assert run(["sim", *models, tmp_path / "unused.psm", "--horizon", "10 ms"], capsys)[0] == 0
    code, with_unused, err = run(["synth", *models, tmp_path / "unused.psm"], capsys)
    assert (code, err) == (0, "")
    assert with_unused == run(["synth", *models], capsys)[1]


def test_synth_rejects_bad_freq_spec(fixtures, capsys):
    code, _, err = run(
        ["synth", fixtures / "sensor.psm", "--freq", "nonsense"], capsys
    )
    assert code == 1
    assert "name=value" in err


# --- explore / report ---------------------------------------------------------

def test_explore_reruns_are_reproducible(fixtures, tmp_path, capsys):
    outputs = []
    for name in ("run1", "run2"):
        code, out, _ = run(
            [
                "explore", "--alts", fixtures / "wpm_lcfds.csv",
                "--config", fixtures / "wpm.cfg", "--out", tmp_path / name,
            ],
            capsys,
        )
        assert code == 0
        assert "configurations: 32" in out
        files = ["configs.csv", "pareto.csv", "pareto.json", "scatter.svg", "summary.txt"]
        outputs.append({f: (tmp_path / name / f).read_bytes() for f in files})
    assert outputs[0] == outputs[1]
    manifests = [
        json.loads((tmp_path / name / "manifest.json").read_text())
        for name in ("run1", "run2")
    ]
    for m in manifests:
        m.pop("timestamp")
    assert manifests[0] == manifests[1]

    code, out, _ = run(["report", tmp_path / "run1"], capsys)
    assert code == 0
    assert "pareto front:" in out
    assert "id=" in out and "energy_mj=" in out


@pytest.mark.parametrize("mangle, message", [
    (lambda points: "{", "not JSON: Expecting property name"),
    (lambda points: json.dumps([{k: v for k, v in p.items() if k != "choices"} for p in points]),
     "a point has no 'choices'"),
    (lambda points: json.dumps({"front": points}), "not a list of front points"),
], ids=["not-json", "no-choices", "not-a-list"])
def test_report_on_a_malformed_front_ends_in_one_line(fixtures, tmp_path, capsys, mangle, message):
    out_dir = tmp_path / "dse"
    argv = ["explore", "--alts", fixtures / "wpm_lcfds.csv", "--config", fixtures / "wpm.cfg"]
    assert run(argv + ["--out", out_dir], capsys)[0] == 0
    pareto = out_dir / "pareto.json"
    pareto.write_text(mangle(json.loads(pareto.read_text())))
    code, out, err = run(["report", out_dir], capsys)
    assert code == 1
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: {pareto}: {message}")


def test_explore_requires_period_entries(fixtures, tmp_path, capsys):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text("window = 100 ms\nperiod.mhr = 100 ms\nperiod.spo2 = 100 ms\n")
    code, _, err = run(
        [
            "explore", "--alts", fixtures / "wpm_lcfds.csv",
            "--config", cfg, "--out", tmp_path / "out",
        ],
        capsys,
    )
    assert code == 1
    assert "period.emg" in err


@pytest.mark.parametrize("line, message", [
    ("static_fraction = abc", "'static_fraction': invalid value 'abc'"),
    ("static_fraction = 1.5", "static fraction must be in [0, 1)"),
    ("period.mhr = 0 ms", "'mhr': period must be positive"),
    ("period.mhr = abc", "'period.mhr': invalid value 'abc'"),
    ("invocations.mhr = x", "'invocations.mhr': invalid value 'x'"),
    ("window = 0", "window must be positive"),
    ("window = -1", "window must be positive"),
    ("window = 1/0", "'window': invalid value '1/0'"),
    ("static_fracton = 0.5", "unknown config key(s): static_fracton"),
    ("period.hr = 100 ms", "unknown config key(s): period.hr"),
])
def test_explore_config_errors_end_in_one_line(fixtures, tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text((fixtures / "wpm.cfg").read_text() + line + "\n")  # later keys win
    code, _, err = run(
        [
            "explore", "--alts", fixtures / "wpm_lcfds.csv",
            "--config", cfg, "--out", tmp_path / "out",
        ],
        capsys,
    )
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("argv, stim, message", [
    (["sim", "sensor.psm", "--horizon", "abc"], None, "--horizon: invalid value 'abc'"),
    (["sim", "sensor.psm", "--horizon", "-1"], None, "--horizon: must be positive, got '-1'"),
    (["sim", "sensor.psm", "--horizon", "1 s"], "abc StartMeasure Start\n",
     "bad.stim:1: time: invalid value 'abc'"),
    (["sim", "sensor.psm", "--horizon", "1 s"], "0 StartMeasure Start x\n",
     "bad.stim:1: payload: invalid value 'x'"),
    (["schedule", "adds4.dfg", "--fmax", "0"], None, "--fmax: must be positive, got '0'"),
    (["schedule", "adds4.dfg", "--fmax", "abc"], None, "--fmax: invalid value 'abc'"),
    (["schedule", "adds4.dfg", "--unroll", "-1"], None, "--unroll: must be >= 0, got -1"),
    (["synth", "mhr.psm", "--default-freq", "abc"], None, "--default-freq: invalid value 'abc'"),
    (["synth", "mhr.psm", "--freq", "dut=abc"], None, "--freq dut: invalid value 'abc'"),
    (["sim", *ALL_MODELS, "--horizon", "1 s"], "-5ms StartMeasure Start\n",
     "stimulus at t=-1/200 is before time 0"),
], ids=[
    "horizon-abc", "horizon-negative", "stimulus-time", "stimulus-payload", "fmax-zero",
    "fmax-abc", "unroll-negative", "default-freq-abc", "freq-abc", "stimulus-negative-time",
])
def test_flag_and_stimulus_values_end_in_one_line(fixtures, tmp_path, capsys, argv, stim, message):
    argv = [fixtures / a if a.endswith((".psm", ".dfg")) else a for a in argv]
    if stim is not None:
        (tmp_path / "bad.stim").write_text(stim)
        argv += ["--stimulus", tmp_path / "bad.stim"]
    if argv[0] == "schedule":
        argv += ["--out", tmp_path / "out"]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err
    assert not (tmp_path / "out").exists()


def test_explore_missing_table_exits_3(fixtures, tmp_path, capsys):
    code, _, _ = run(
        [
            "explore", "--alts", tmp_path / "none.csv",
            "--config", fixtures / "wpm.cfg", "--out", tmp_path / "out",
        ],
        capsys,
    )
    assert code == 3


# --- One error line per malformed input -----------------------------------------

DIVIDE_BY_ZERO = """\
component Div {
  period 10 ms;
  var x: int32 = 0;
  initial Go;
  state Go {
    entry {
      x = 1 / x;
    }
    ts(10 ms) -> Go;
  }
}
"""
# The simulator applies Inc's results at once and exports Out(2); the FSM
# applies them when the call is done and would export Out(0).
EARLY_RESULT = """\
component P {
  period 10 ms;
  output event Out(int32);
  var a: int32 = 0;
  var b: int32 = 0;
  mcc Inc(1 -> 1) dfg "inc.dfg";
  initial S;
  state S {
    entry {
      invoke Inc(a -> a);
      invoke Inc(a -> b);
      export Out(b);
    }
    ts(10 ms) -> S;
  }
}
"""
ZERO_WIDTH = """\
component Z {
  period 10 ms;
  var x: int0;
  initial S;
  state S {
    entry {
      x = 1;
    }
    ts(10 ms) -> S;
  }
}
"""
# `1 + 0` is always true, so A re-enters itself without time passing; a
# constant guard that cannot be evaluated is an error of its own.
CONSTANT_GUARD = """\
component G {{
  period 1 s;
  initial A;
  state A {{
    when ({guard}) -> A;
    ts(inf);
  }}
}}
"""
NARROW = """\
component N {
  period 10 ms;
  input event In(int8);
  initial S;
  state S {
    import In -> S;
  }
}
"""
# 1 s at 2.5 Hz is 3 cycles, but a CLK_FREQ_HZ of 2 would make it 2.
SLOW = """\
component Slow {
  period 1 s;
  initial A;
  state A {
    ts(1 s) -> A;
  }
}
"""
# Both states would emit as S_IDLE.
UPPER_CASE_CLASH = """\
component K {
  period 10 ms;
  initial idle;
  state idle {
    ts(1 ms) -> IDLE;
  }
  state IDLE {
    ts(1 ms) -> idle;
  }
}
"""
# The variable takes the name of state S's timer start signal.
TIMER_SIGNAL_CLASH = """\
component T {
  period 10 ms;
  var tmr_S_start: int8;
  initial S;
  state S {
    ts(1 ms) -> S;
  }
}
"""
# Instance x's pin y__Go and instance x__y's pin Go both make net x__y__Go.
NET_CLASH = """\
component C {
  period 10 ms;
  input event Go;
  input event y__Go;
  initial S;
  state S {
    import Go -> S;
    import y__Go -> S;
  }
}
"""
NET_CLASH_SYSTEM = """\
system D {
  instance x: C;
  instance x__y: C;
}
"""
FRACTIONAL_ARITY = (
    'component F {\n  period 10 ms;\n  mcc G(1.5 -> 1) dfg "g.dfg";\n'
    "  initial S;\n  state S { ts(inf); }\n}\n"
)
ZERO_WIDTH_FINDING = "component Z: error: variable 'x' has non-positive width"
WPM = [f"{{fx}}/{n}" for n in ALL_MODELS]


@pytest.mark.parametrize("argv, code, message", [
    (["schedule", "{fx}/adds4.dfg", "--out", "{tmp}/taken"], 3, "taken: File exists"),
    (["synth", "{fx}/mhr.psm", "--out", "{tmp}/taken/y.v"], 3, "taken: File exists"),
    (["explore", "--alts", "{fx}/wpm_lcfds.csv", "--config", "{fx}/wpm.cfg",
      "--out", "{tmp}/taken"], 3, "taken: File exists"),
    (["schedule", "{fx}/adds4.dfg", "--latency", "abc"], 1,
     "argument --latency: invalid int value: 'abc'"),
    (["frob"], 1, "invalid choice: 'frob'"),
    (["synth", "{fx}/mhr.psm", "--freq", "nope=1 MHz"], 1, "--freq nope: no such instance"),
    (["check", "{fx}/mhr.psm", "{tmp}/copy.psm"], 1,
     "component MHR is declared in both {fx}/mhr.psm and {tmp}/copy.psm"),
    (["sim", *WPM, "{tmp}/copy_system.psm", "--horizon", "1 s"], 1,
     "sim needs one system or exactly one component"),
    (["synth", *WPM, "{tmp}/copy_system.psm"], 1,
     "synth needs one system or exactly one component"),
    (["sim", "{tmp}/div.psm", "--horizon", "1 s"], 1, "division by zero"),
    (["check", "{tmp}/bin.psm"], 1, "{tmp}/bin.psm: not UTF-8 text (byte 10: invalid start byte)"),
    (["schedule", "{tmp}/bin.dfg", "--out", "{tmp}/out"], 1,
     "{tmp}/bin.dfg: not UTF-8 text (byte 10: invalid start byte)"),
    (["explore", "--alts", "{tmp}/bin.csv", "--config", "{fx}/wpm.cfg", "--out", "{tmp}/out"], 1,
     "{tmp}/bin.csv: not UTF-8 text (byte 10: invalid start byte)"),
    (["synth", "{tmp}/early.psm"], 1,
     "component P: state 'S' uses 'a' after invoke Inc, which returns it only when the call is done"),
    (["sim", "{tmp}/zero.psm", "--horizon", "50 ms"], 1, ZERO_WIDTH_FINDING),
    (["synth", "{tmp}/zero.psm"], 1, ZERO_WIDTH_FINDING),
    (["schedule", "{tmp}/e.dfg", "--latency", "3", "--out", "{tmp}/out"], 1,
     "{tmp}/e.dfg: nothing to schedule"),
    (["explore", "--alts", "{tmp}/nan.csv", "--config", "{fx}/wpm.cfg", "--out", "{tmp}/out"], 1,
     "{tmp}/nan.csv:2: max frequency must be finite, got nan"),
    (["explore", "--alts", "{tmp}/lam.csv", "--config", "{fx}/wpm.cfg", "--out", "{tmp}/out"], 1,
     "{tmp}/lam.csv:2: latency constraint must be >= 1, got -5"),
    (["sim", "{tmp}/narrow.psm", "--stimulus", "{tmp}/narrow.stim", "--horizon", "50 ms"], 1,
     "payload 200 for 'dut.In' does not fit int8"),
    (["sim", *WPM, "--stimulus", "{tmp}/driven.stim", "--horizon", "50 ms"], 1,
     "stimulus targets 'mhr.Sample', an input driven by 'mhr_sensor.Out'"),
    (["synth", "{tmp}/slow.psm", "--freq", "dut=2.5Hz"], 1,
     "instance 'dut': RTL needs a clock of whole Hz, got 5/2 Hz"),
    (["synth", "{tmp}/true.psm"], 1, "component G: zero-time transition cycle through state 'A'"),
    (["synth", "{tmp}/undefined.psm"], 1, "division by zero"),
    (["synth", "{tmp}/clash.psm"], 1, "component K: states 'idle' and 'IDLE' both emit S_IDLE"),
    (["synth", "{tmp}/tmr.psm"], 1, "RTL module psm_T declares tmr_S_start twice"),
    (["synth", "{tmp}/net.psm", "{tmp}/net_system.psm"], 1,
     "RTL module psm_system_D declares x__y__Go_req twice"),
    (["check", "{tmp}/frac.psm"], 1,
     "{tmp}/frac.psm:3:9: error: mcc argument and result counts are integers"),
], ids=[
    "schedule-out-is-a-file", "synth-out-below-a-file", "explore-out-is-a-file",
    "latency-not-an-int", "unknown-command", "freq-unknown-instance", "duplicate-component",
    "sim-two-systems", "synth-two-systems", "division-by-zero", "psm-not-utf8", "dfg-not-utf8",
    "csv-not-utf8", "result-read-before-the-call-is-done", "sim-zero-width-variable",
    "synth-zero-width-variable", "schedule-empty-graph-at-a-latency", "csv-not-finite",
    "csv-latency-below-1", "stimulus-payload-out-of-range", "stimulus-into-a-driven-input",
    "synth-fractional-clock", "synth-constant-true-guard", "synth-constant-guard-divides-by-zero",
    "synth-state-names-collide-in-rtl", "synth-variable-named-like-a-timer-signal",
    "synth-two-pins-make-one-net", "psm-parse-error",
])
def test_malformed_input_ends_in_one_error_line(fixtures, tmp_path, capsys, argv, code, message):
    (tmp_path / "taken").write_text("")
    (tmp_path / "copy.psm").write_text((fixtures / "mhr.psm").read_text())
    (tmp_path / "copy_system.psm").write_text((fixtures / "wpm_system.psm").read_text())
    (tmp_path / "div.psm").write_text(DIVIDE_BY_ZERO)
    (tmp_path / "early.psm").write_text(EARLY_RESULT)
    (tmp_path / "zero.psm").write_text(ZERO_WIDTH)
    for name in ("bin.psm", "bin.dfg", "bin.csv"):
        (tmp_path / name).write_bytes(b"component \xff\n")
    (tmp_path / "e.dfg").write_text("")
    (tmp_path / "nan.csv").write_text(
        "mcc,source,unroll,lambda,freq_mhz,exec_cycles,area,power_mw\n"
        "mhr,measured,0,63,nan,4056,nan,135\n"
    )
    (tmp_path / "lam.csv").write_text(
        "mcc,source,unroll,lambda,freq_mhz,exec_cycles,area,power_mw\n"
        "mhr,measured,0,-5,100,4056,1,1\n"
        "mhr,measured,0,0,100,4057,2,1\n"
    )
    (tmp_path / "narrow.psm").write_text(NARROW)
    (tmp_path / "narrow.stim").write_text("0.001 dut In 200\n")
    (tmp_path / "driven.stim").write_text("0.001 mhr Sample 7\n")
    (tmp_path / "slow.psm").write_text(SLOW)
    (tmp_path / "true.psm").write_text(CONSTANT_GUARD.format(guard="1 + 0"))
    (tmp_path / "undefined.psm").write_text(CONSTANT_GUARD.format(guard="1 / 0"))
    (tmp_path / "clash.psm").write_text(UPPER_CASE_CLASH)
    (tmp_path / "tmr.psm").write_text(TIMER_SIGNAL_CLASH)
    (tmp_path / "net.psm").write_text(NET_CLASH)
    (tmp_path / "net_system.psm").write_text(NET_CLASH_SYSTEM)
    (tmp_path / "frac.psm").write_text(FRACTIONAL_ARITY)
    fill = {"fx": fixtures, "tmp": tmp_path}
    got, _, err = run([a.format(**fill) for a in argv], capsys)
    assert got == code
    # `error: …`, or a parse diagnostic `file:line:col: error: …`.
    assert len(err.splitlines()) == 1 and re.match(r"(.+:\d+:\d+: )?error: ", err)
    assert message.format(**fill) in err
    assert "Traceback" not in err


def test_check_reports_a_zero_width_variable(tmp_path, capsys):
    # `check` prints findings, not an `error:` line.
    (tmp_path / "zero.psm").write_text(ZERO_WIDTH)
    code, out, err = run(["check", tmp_path / "zero.psm"], capsys)
    assert (code, out, err) == (1, "", ZERO_WIDTH_FINDING + "\n")


def _buffered_child_env() -> dict:
    """The child's environment: this checkout's package, and stdout block
    buffered as a user's shell gives it."""
    src = pathlib.Path(psmsynth.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(src)}


def test_sim_into_a_closed_pipe_exits_3(fixtures):
    argv = [
        sys.executable, "-m", "psmsynth.cli", "sim", *(str(fixtures / n) for n in ALL_MODELS),
        "--stimulus", str(fixtures / "wpm_start.stim"), "--horizon", "20 s",
    ]
    # ~860 KB of trace: far more than a pipe holds, so the writer meets the
    # closed end.
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_child_env()
    )
    assert proc.stdout.readline().startswith(b"t=0.000000000 ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert err.decode() == "error: Broken pipe\n"


def test_short_output_into_a_closed_pipe_exits_3(fixtures):
    # One buffered line, so nothing is written until stdout is flushed.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "psmsynth.cli", "check", str(fixtures / "sensor.psm")],
            stdout=write_end, stderr=subprocess.PIPE, env=_buffered_child_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr.decode() == "error: Broken pipe\n"


@pytest.mark.parametrize("line, diagnostic", [
    ("period ² s;", ":2:10: error: unexpected character '²'"),
    ("period 10 ms; var x: int²;", ":2:24: error: unknown payload type 'int²'"),
], ids=["superscript-period", "superscript-width"])
def test_non_ascii_digits_end_in_a_diagnostic(tmp_path, capsys, line, diagnostic):
    path = tmp_path / "p.psm"
    path.write_text(
        f"component P {{\n  {line}\n  initial S;\n  state S {{ ts(10 ms) -> S; }}\n}}\n",
        encoding="utf-8",
    )
    code, _, err = run(["check", path], capsys)
    assert code == 1
    assert err.splitlines()[0] == f"{path}{diagnostic}"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["check"], ["sim", "--horizon", "1 s"], ["synth"]])
def test_fractional_mcc_arity_ends_in_a_diagnostic(tmp_path, capsys, command):
    # A parse failure prints its diagnostic, and nothing after it.
    path = tmp_path / "f.psm"
    path.write_text(FRACTIONAL_ARITY)
    code, out, err = run([command[0], path, *command[1:]], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"{path}:3:9: error: mcc argument and result counts are integers"]


def test_main_keeps_no_state_between_calls(fixtures, tmp_path, capsys):
    # The second of two in-process runs sees the defaults, not the first
    # run's flags.
    assert run(["synth", fixtures / "mhr.psm", "--freq", "dut=102 MHz",
                "--out", tmp_path / "A" / "mhr.v"], capsys)[0] == 0
    assert run(["synth", fixtures / "mhr.psm", "--out", tmp_path / "B" / "mhr.v"], capsys)[0] == 0
    manifest = json.loads((tmp_path / "B" / "manifest.json").read_text())
    assert manifest["parameters"]["frequencies_hz"] == {"dut": "100000000"}
    code, out, _ = run(["schedule", fixtures / "adds4.dfg", "--latency", "2",
                        "--out", tmp_path / "C"], capsys)
    assert code == 0 and "wrote 1 alternative row(s)" in out
    assert run(["schedule", fixtures / "adds4.dfg", "--out", tmp_path / "D"], capsys)[0] == 0
    assert len(load_alternatives(tmp_path / "D" / "adds4_alternatives.csv")) == 4


# --- Tooling guards ---------------------------------------------------------------

PACKAGE = pathlib.Path(psmsynth.__file__).resolve().parent


def test_every_library_error_has_an_exit_code():
    covered = tuple(cls for classes, _ in cli._EXIT_CODES for cls in classes)
    handled_where_raised = (cli.CliError, dsl.ParseError)
    uncovered = []
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"psmsynth.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj) and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
                and not issubclass(obj, covered) and obj not in handled_where_raised
            ):
                uncovered.append(f"{info.name}.{name}")
    assert uncovered == []


def test_no_source_file_catches_every_exception():
    offenders = [p.name for p in sorted(PACKAGE.glob("*.py")) if "except Exception" in p.read_text()]
    assert offenders == []
