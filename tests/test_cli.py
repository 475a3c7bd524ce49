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


def test_schedule_infeasible_latency_exits_2(fixtures, tmp_path, capsys):
    code, _, err = run(
        ["schedule", fixtures / "mhr.dfg", "--latency", "1", "--out", tmp_path],
        capsys,
    )
    assert code == 2
    assert "error:" in err


def test_schedule_malformed_graph_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.dfg"
    bad.write_text("op zero add\n")
    code, _, err = run(["schedule", bad, "--out", tmp_path], capsys)
    assert code == 1
    assert "bad.dfg" in err


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


def test_explore_missing_table_exits_3(fixtures, tmp_path, capsys):
    code, _, _ = run(
        [
            "explore", "--alts", tmp_path / "none.csv",
            "--config", fixtures / "wpm.cfg", "--out", tmp_path / "out",
        ],
        capsys,
    )
    assert code == 3
