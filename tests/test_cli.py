"""Command-line driver: exit codes, outputs, and run manifests."""

import hashlib
import json
from fractions import Fraction

import pytest

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
], ids=["bad-line", "cycle", "loop-in-pre", "carry-in-post", "listing-next-to-pre", "second-pre"])
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
], ids=[
    "horizon-abc", "horizon-negative", "stimulus-time", "stimulus-payload", "fmax-zero",
    "fmax-abc", "unroll-negative", "default-freq-abc", "freq-abc",
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
