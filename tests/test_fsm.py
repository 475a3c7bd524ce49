"""Cycle-accurate FSM synthesis: timing conversion, interpretation against the
reference simulator, and hardware text emission."""

import hashlib
import io
import re
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import interpret_oracle
from conftest import own_mccs
from psmsynth import expr as ex
from psmsynth import fsm, model
from psmsynth.dsl import parse_component, parse_file, parse_system
from psmsynth.model import (
    Direction,
    EventDecl,
    Import,
    PsmComponent,
    SimulationError,
    State,
    TraceEvent,
    VarDecl,
    simulate,
    simulate_component,
    validate_component,
)
from psmsynth.fsm import (
    SynthesisError,
    compare_with_reference,
    emit_rtl,
    interpret,
    synthesize_single,
    synthesize_system,
    time_to_cycles,
    write_vcd,
)

MS = Fraction(1, 1000)
MHZ = 10**6

HR_IMPL = {"ComputeHR": lambda a: (60_000_000 // (a[0] if a[0] else 1) % 200,)}
SPO2_IMPL = {"ComputeSpo2": lambda a: ((a[0] * 100) // (a[0] + a[1] + 1),)}
Z_IMPL = {"ZScore": lambda a: ((a[0] - a[1]) // 3,)}
ALL_IMPLS = {**HR_IMPL, **SPO2_IMPL, **Z_IMPL}
ALL_LATENCIES = {"ComputeHR": 4056, "ComputeSpo2": 210, "ZScore": 328}


# --- Time-to-cycles conversion ------------------------------------------------

def test_time_to_cycles_exact():
    cycles, error = time_to_cycles(Fraction(1, 2), 102 * MHZ)
    assert cycles == 51_000_000
    assert error == 0


def test_time_to_cycles_rounds_half_up():
    # 1 us at 2.5 MHz is exactly 2.5 cycles -> 3.
    cycles, error = time_to_cycles(Fraction(1, 10**6), Fraction(25 * 10**5))
    assert cycles == 3
    assert error == Fraction(3, 25 * 10**5) - Fraction(1, 10**6)


def test_time_to_cycles_minimum_one():
    cycles, error = time_to_cycles(Fraction(1, 1000), 999)
    assert cycles == 1
    assert error == Fraction(1, 999) - Fraction(1, 1000)


def test_time_to_cycles_rejects_nonpositive():
    with pytest.raises(SynthesisError):
        time_to_cycles(Fraction(0), MHZ)
    with pytest.raises(SynthesisError):
        time_to_cycles(Fraction(1), 0)


def test_same_duration_scales_with_frequency():
    for freq, expected in [(1 * MHZ, 10_000), (2 * MHZ, 20_000)]:
        assert time_to_cycles(10 * MS, freq)[0] == expected


# --- Synthesis checks ---------------------------------------------------------

def test_non_positive_frequency_rejected():
    comp = parse_component("component C { period 1 s; initial A; state A { ts(inf); } }")
    with pytest.raises(SynthesisError, match=r"^instance 'dut' has non-positive frequency 0$"):
        synthesize_single(comp, 0)


def test_unconditional_delta_cycle_rejected():
    comp = parse_component(
        """
        component C { period 1 s; initial A;
          state A { ts(delta) -> B; } state B { ts(delta) -> A; } }
        """
    )
    with pytest.raises(SynthesisError) as err:
        synthesize_single(comp, 1 * MHZ)
    assert "zero-time transition cycle" in str(err.value)


def test_constant_true_guard_cycle_rejected():
    comp = parse_component(
        """
        component C { period 1 s; initial A;
          state A { when (1) -> A; ts(inf); } }
        """
    )
    with pytest.raises(SynthesisError):
        synthesize_single(comp, 1 * MHZ)


@pytest.mark.parametrize("guard, error, message", [
    ("1 + 0", SynthesisError, "component C: zero-time transition cycle through state 'A'"),
    ("!(2 < 1)", SynthesisError, "component C: zero-time transition cycle through state 'A'"),
    ("1 / 0", ex.EvalError, "division by zero"),
    ("1 - 1", None, None),
])
def test_synthesis_evaluates_guards_over_no_variables(guard, error, message):
    # A guard over no variables has one value: a true one is unconditional,
    # as the reference simulator finds when it never settles.
    comp = parse_component(
        f"component C {{ period 1 s; initial A; state A {{ when ({guard}) -> A; ts(inf); }} }}"
    )
    if error is None:
        assert synthesize_single(comp, 1 * MHZ).instances[0].component is comp
        return
    with pytest.raises(error, match=re.escape(message)):
        synthesize_single(comp, 1 * MHZ)
    with pytest.raises(model.DeltaCycleError if error is SynthesisError else error):
        simulate_component(comp, [], Fraction(1))


def test_timer_cycles_resolved_per_instance_frequency():
    comp = parse_component(
        """
        component C { period 10 ms; initial A;
          state A { ts(10 ms) -> A2; } state A2 { ts(delta) -> A; } }
        """
    )
    # Self-timer cycle through a delta state is fine: the delta edge breaks
    # only zero-time cycles, and A -> A2 is a real 10 ms dwell.
    ir = synthesize_single(comp, 1 * MHZ).instances[0]
    assert ir.timer_cycles == {"A": 10_000}
    ir2 = synthesize_single(comp, 2 * MHZ).instances[0]
    assert ir2.timer_cycles == {"A": 20_000}


def test_a_name_declared_as_event_and_variable_is_refused():
    # The DSL rejects this as a duplicate declaration; a library-built
    # component gets the same finding, so no engine stores both under 'x'.
    comp = PsmComponent(
        "Both", Fraction(1),
        events=(EventDecl("x", Direction.INPUT, 32),),
        variables=(VarDecl("x", 32),),
        initial="S",
        states=(State("S", imports=(Import("x", "S"),)),),
    )
    assert [f.message for f in validate_component(comp).errors] == ["duplicate declaration of 'x'"]
    with pytest.raises(SynthesisError, match="duplicate declaration of 'x'"):
        synthesize_single(comp, 1 * MHZ)
    with pytest.raises(SimulationError, match="duplicate declaration of 'x'"):
        simulate_component(comp, [], Fraction(1))


def test_system_synthesis_validates_each_instantiated_component_once(wpm):
    # WPM has eight instances of five components, three of them sensors.
    # Counted with a profiler, so a call through any imported name counts.
    import cProfile
    import pstats

    system, comps = wpm
    profile = cProfile.Profile()
    profile.enable()
    try:
        synthesize_system(system, comps, {inst.name: 1 * MHZ for inst in system.instances})
    finally:
        profile.disable()
    code = model.validate_component.__code__
    calls = sum(
        stat[1] for (file, line, name), stat in pstats.Stats(profile).stats.items()
        if (file, line, name) == (code.co_filename, code.co_firstlineno, code.co_name)
    )
    assert calls == 5


def test_missing_frequency_diagnosed():
    comp = parse_component("component C { period 1 s; initial A; state A { ts(inf); } }")
    from psmsynth.model import single_component_system

    system = single_component_system(comp)
    with pytest.raises(SynthesisError) as err:
        synthesize_system(system, {"C": comp}, {})
    assert "no clock frequency" in str(err.value)


# --- Interpretation vs the reference simulator --------------------------------

def _equivalent(comp, stim, horizon, freq, max_cycles, latencies=None, impls=None):
    ref = simulate_component(comp, stim, horizon, impls)
    sys_ir = synthesize_single(comp, freq)
    named = [TraceEvent(e.time, "dut", e.event, e.payload) for e in stim]
    cyc = interpret(sys_ir, named, max_cycles, latencies, impls)
    return compare_with_reference(ref, cyc, sys_ir), ref, cyc


def test_delta_transition_costs_one_cycle():
    comp = parse_component(
        """
        component C { period 1 s; initial A;
          state A { ts(delta) -> B; } state B { ts(1 s) -> A; } }
        """
    )
    sys_ir = synthesize_single(comp, 1000)
    cyc = interpret(sys_ir, [], 2500)
    entries = [(e.state, e.cycle) for e in cyc.entries]
    assert entries[:4] == [("A", 0), ("B", 1), ("A", 1001), ("B", 1002)]


def test_guard_follow_up_costs_one_cycle():
    comp = parse_component(
        """
        component C { period 1 s; var x: int32 = 5; initial A;
          state A { when (x > 1) -> B; ts(inf); } state B { ts(inf); } }
        """
    )
    cyc = interpret(synthesize_single(comp, 1000), [], 100)
    assert [(e.state, e.cycle) for e in cyc.entries] == [("A", 0), ("B", 1)]


def test_event_sampled_on_first_edge_after_emission():
    comp = parse_component(
        """
        component C { period 1 s; input event Go; initial A;
          state A { import Go -> B; } state B { ts(inf); } }
        """
    )
    sys_ir = synthesize_single(comp, 1000)  # 1 ms per cycle
    # Arrival exactly on an edge is sampled on the next one.
    cyc = interpret(sys_ir, [TraceEvent(3 * MS, "dut", "Go", None)], 100)
    assert [(e.state, e.cycle) for e in cyc.entries] == [("A", 0), ("B", 4)]
    cyc = interpret(sys_ir, [TraceEvent(Fraction(35, 10) * MS, "dut", "Go", None)], 100)
    assert [(e.state, e.cycle) for e in cyc.entries] == [("A", 0), ("B", 4)]


def test_events_stall_during_mcc_call():
    comp = parse_component(
        """
        component C { period 1 s; input event Go; var r: int32 = 0;
          mcc Slow(0 -> 1) dfg "s.dfg";
          initial Busy;
          state Busy { entry { invoke Slow( -> r); } import Go -> Done; ts(inf); }
          state Done { ts(inf); }
        }
        """
    )
    sys_ir = synthesize_single(comp, 1000)
    # The call occupies 2 handshake cycles + 10 execution cycles from cycle 0;
    # the event arriving during the call is consumed only after it completes.
    cyc = interpret(
        sys_ir,
        [TraceEvent(2 * MS, "dut", "Go", None)],
        100,
        {"Slow": 10},
        {"Slow": lambda a: (7,)},
    )
    assert [(e.state, e.cycle) for e in cyc.entries] == [("Busy", 0), ("Done", 13)]


def test_fixture_components_match_reference(fixtures):
    cases = {
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
    for name, (stim, horizon, max_cycles) in cases.items():
        comp = parse_file(fixtures / name)
        problems, ref, cyc = _equivalent(
            comp, stim, horizon, 1 * MHZ, max_cycles,
            own_mccs(ALL_LATENCIES, comp), own_mccs(ALL_IMPLS, comp),
        )
        assert problems == [], name
        assert len(ref.state_entries) > 1, name


def test_full_system_matches_reference(fixtures):
    comps = {}
    for name in ["mhr", "spo2", "emg", "sensor", "monitor"]:
        c = parse_file(fixtures / f"{name}.psm")
        comps[c.name] = c
    system = parse_file(fixtures / "wpm_system.psm")
    stim = [TraceEvent(Fraction(1, 2) * MS, "StartMeasure", "Start", None)]
    ref = simulate(system, comps, stim, Fraction(45, 1000), ALL_IMPLS)
    sys_ir = synthesize_system(
        system, comps, {inst.name: 1 * MHZ for inst in system.instances}
    )
    cyc = interpret(sys_ir, stim, 45_000, ALL_LATENCIES, ALL_IMPLS)
    assert compare_with_reference(ref, cyc, sys_ir) == []
    assert len(ref.state_entries) > 20
    # The only unconsumed events are sensor samples landing before Start.
    assert all(d.event == "Sample" and d.cycle <= 2 for d in cyc.dropped)


def test_watchdog_fires_after_exact_timer_dwell(fixtures):
    # No samples ever arrive: the 500 ms watchdog must fire after exactly
    # 51,000,000 cycles at 102 MHz, within the bounded FSM entry overhead.
    comp = parse_file(fixtures / "mhr.psm")
    sys_ir = synthesize_single(comp, 102 * MHZ)
    assert sys_ir.instances[0].timer_cycles["WaitSample"] == 51_000_000
    cyc = interpret(
        sys_ir,
        [TraceEvent(Fraction(0), "dut", "Start", None)],
        51_100_000,
        own_mccs(ALL_LATENCIES, comp),
        own_mccs(ALL_IMPLS, comp),
    )
    brady = [e for e in cyc.entries if e.state == "ReportBradycardia"]
    assert brady, "watchdog never fired"
    assert 51_000_000 <= brady[0].cycle <= 51_000_008
    alarms = [e for e in cyc.events if e.event == "Alarm"]
    assert alarms and alarms[0].cycle == brady[0].cycle


def test_interpretation_deterministic(fixtures):
    comp = parse_file(fixtures / "spo2.psm")
    stim = [TraceEvent(t * MS, "dut", "Sample", t) for t in range(5, 50, 7)]
    latencies, impls = own_mccs(ALL_LATENCIES, comp), own_mccs(ALL_IMPLS, comp)
    runs = [
        interpret(synthesize_single(comp, 1 * MHZ), stim, 60_000, latencies, impls)
        for _ in range(2)
    ]
    assert runs[0].entries == runs[1].entries
    assert runs[0].events == runs[1].events


# --- Golden traces --------------------------------------------------------------
# sha256 over the interpreter's entries, events and dropped records, the VCD
# text and the comparison with the reference simulator, for the WPM system.
# Any change to when an instance wakes, samples, drops or fires changes them.

# StartMeasure times of the acceptance stimulus: the first starts the heart-rate
# component, the later ones arrive while it runs.
WPM_STARTS = [
    Fraction(3, 2500), Fraction(313589, 8000), Fraction(52256047, 10**6),
    Fraction(6854887, 125000), Fraction(11574063, 200000),
]
# Instances on 1/2/1.5/3 MHz, round-robin in declaration order.
MIXED_FREQS = [1 * MHZ, 2 * MHZ, Fraction(3 * MHZ, 2), 3 * MHZ]


@pytest.fixture(scope="module")
def wpm(fixtures):
    comps = {}
    for name in ["mhr", "spo2", "emg", "sensor", "monitor"]:
        c = parse_file(fixtures / f"{name}.psm")
        comps[c.name] = c
    return parse_file(fixtures / "wpm_system.psm"), comps


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("mixed, max_cycles, horizon, digests, diverging", [
    (False, 3 * 10**6 - 1, Fraction(3), {
        "entries": "5e7c33d8da3d03a4c1edb486dff9090aa85ed4e5f0dc05a7650af79a94badd29",
        "events": "3c8344c610da2c2eddd7f1ba27d032fea5d8b285b17ed95af9a36b30f423cc41",
        "dropped": "510c383aa7151918ef7264e6117fd8931f3eff2b4c9d80c0b728d8a8e8c00ae9",
        "vcd": "c4c19b84f547518acba8c893975dc1c681116e2dbc1ae842f4404c0d33e90356",
        "compare": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }, []),
    (True, 5 * 10**6, Fraction(5), {
        "entries": "6a58fd6b3c9249bafd0e05947b1a7b92904e57ac450cc71b258d48befa27c6e5",
        "events": "a0f8f98dde30b37ce307d096b33528790ba04be07ebfb4b6797c268528b89549",
        "dropped": "25e1952c0d7c0c84178de742bb019f7e1784e9dac2fe665a48ea886aedd05d7f",
        "vcd": "29ad8d5c43453d08d78ff1a141aa5f3bdf9e33be53aa47107f397d84697d049a",
        "compare": "b9cbb7541ae4f60767f0d780f2aa6ca478f20c96278f21588e6e9a1e460cf817",
    }, ["mhr_sensor", "spo2_sensor", "emg_sensor", "mhr", "spo2", "emg", "monitor"]),
], ids=["one-clock", "mixed-clocks"])
def test_golden_wpm_traces(wpm, mixed, max_cycles, horizon, digests, diverging):
    system, comps = wpm
    names = [inst.name for inst in system.instances]
    freqs = {n: MIXED_FREQS[i % 4] if mixed else 1 * MHZ for i, n in enumerate(names)}
    stim = [TraceEvent(t, "StartMeasure", "Start", None) for t in WPM_STARTS]
    ref = simulate(system, comps, [e for e in stim if e.time < horizon], horizon, ALL_IMPLS)
    sys_ir = synthesize_system(system, comps, freqs)
    cyc = interpret(sys_ir, stim, max_cycles, ALL_LATENCIES, ALL_IMPLS)
    vcd = io.StringIO()
    write_vcd(cyc, sys_ir, vcd)
    problems = compare_with_reference(ref, cyc, sys_ir)
    # One line per diverging instance, naming where it first diverges.
    assert [p.split(":")[0] for p in problems] == diverging
    assert all(len(p) < 300 for p in problems)
    assert {
        "entries": _sha(f"{e.instance} {e.cycle} {e.time} {e.state}" for e in cyc.entries),
        "events": _sha(f"{e.instance} {e.cycle} {e.time} {e.event} {e.payload}" for e in cyc.events),
        "dropped": _sha(f"{e.instance} {e.cycle} {e.time} {e.event} {e.payload}" for e in cyc.dropped),
        "vcd": _sha([vcd.getvalue()]),
        "compare": _sha(problems),
    } == digests


@pytest.mark.parametrize("cls, values", [
    (fsm.CycleStateEntry, {"instance": "mhr", "cycle": 3, "time": MS, "state": "Idle"}),
    (fsm.CycleEventRecord, {"instance": "mhr", "cycle": 3, "time": MS, "event": "Alarm", "payload": 7}),
    (TraceEvent, {"time": MS, "instance": "mhr", "event": "Start", "payload": None}),
    (model.StateEntry, {"time": MS, "instance": "mhr", "state": "Idle"}),
], ids=["CycleStateEntry", "CycleEventRecord", "TraceEvent", "StateEntry"])
def test_trace_records_keep_their_fields_order_and_value_semantics(cls, values):
    # perfbench/ and the tests build records positionally (perfbench's
    # `CycleEventRecord(instance, cycle, time, event, payload)` and
    # `TraceEvent(t, "StartMeasure", "Start", None)`) and edit them with
    # `replace`; records are plain slotted dataclasses.
    assert [f.name for f in fields(cls)] == list(values)
    record = cls(*values.values())
    assert record == cls(**values)
    assert not hasattr(record, "__dict__")
    first = next(iter(values))
    changed = replace(record, **{first: values[first] * 2})
    assert changed != record
    assert getattr(changed, first) == values[first] * 2 and getattr(record, first) == values[first]
    assert replace(changed, **{first: values[first]}) == record


def test_golden_wpm_traces_at_off_grid_clocks(wpm):
    # Clocks whose ticks are not whole nanoseconds, stimulus off every grid:
    # the 4/3 GHz edges fall on .5 ns, so the VCD pins how ties are rounded.
    system, comps = wpm
    clocks = [Fraction(4 * 10**9, 3), Fraction(10**7, 7), 999_983, Fraction(3 * MHZ, 2)]
    freqs = {inst.name: clocks[i % 4] for i, inst in enumerate(system.instances)}
    shift = Fraction(1, 7 * 10**7)
    stim = [TraceEvent(t + shift, "StartMeasure", "Start", None) for t in WPM_STARTS]
    sys_ir = synthesize_system(system, comps, freqs)
    cyc = interpret(sys_ir, stim, 5 * 10**6, ALL_LATENCIES, ALL_IMPLS)
    vcd = io.StringIO()
    write_vcd(cyc, sys_ir, vcd)
    assert {
        "entries": _sha(f"{e.instance} {e.cycle} {e.time} {e.state}" for e in cyc.entries),
        "events": _sha(f"{e.instance} {e.cycle} {e.time} {e.event} {e.payload}" for e in cyc.events),
        "dropped": _sha(f"{e.instance} {e.cycle} {e.time} {e.event} {e.payload}" for e in cyc.dropped),
        "vcd": _sha([vcd.getvalue()]),
    } == {
        "entries": "bcb3566de8fd3940daded99bf427237df02faafc36c2a402dc73a7f96f96116a",
        "events": "c007947134f45c1e52e58617f5a9185baece29d2215e3b0eb6314c6c31e548fd",
        "dropped": "6f295b4e487026588cd4f3a7bce2147223691a3f4fef2695977697dcde03a0a1",
        "vcd": "779a1b0bdeb1fe1fcc0c2ed2719351999bfd60fbf0d48e41c00c96589a152df8",
    }


OFF_GRID_CLOCKS = [Fraction(4 * 10**9, 3), Fraction(10**7, 7), 999_983, Fraction(3 * MHZ, 2)]
CLOCK_TABLES = {
    "one": [1 * MHZ], "mixed": MIXED_FREQS, "off-grid": OFF_GRID_CLOCKS,
    # A few cycles per sensor period: arrivals often meet another wake on
    # the same edge, and a long call outlasts the next arrival.
    "slow": [Fraction(f, 1000) for f in MIXED_FREQS],
}


@settings(max_examples=80, deadline=None)
@given(
    clocks=st.sampled_from(sorted(CLOCK_TABLES)),
    starts=st.lists(st.fractions(0, 3, max_denominator=10**7), max_size=6),
    latencies=st.fixed_dictionaries(
        {name: st.integers(0, 40) | st.integers(0, 30_000) for name in ALL_LATENCIES}
    ),
    bound=st.sampled_from(["max_cycles", "horizon", "both"]),
    length=st.fractions(Fraction(1, 20), 3, max_denominator=1000),
)
def test_interpret_matches_the_plain_interpreter(wpm, clocks, starts, latencies, bound, length):
    # The plain interpreter asks every instance for its next edge at every
    # step; the one in src/ must record the same entries, events and drops.
    system, comps = wpm
    table = CLOCK_TABLES[clocks]
    freqs = {inst.name: table[i % len(table)] for i, inst in enumerate(system.instances)}
    sys_ir = synthesize_system(system, comps, freqs)
    stim = [TraceEvent(t, "StartMeasure", "Start", None) for t in starts]
    edges = int(length * min(table))  # `length` seconds on the slowest clock, less on the others
    bounds = {
        "max_cycles": {"max_cycles": edges},
        "horizon": {"horizon": length},
        "both": {"max_cycles": edges // 2, "horizon": length},
    }[bound]
    want = interpret_oracle.interpret(sys_ir, stim, mcc_latencies=latencies, mcc_impls=ALL_IMPLS, **bounds)
    got = interpret(sys_ir, stim, mcc_latencies=latencies, mcc_impls=ALL_IMPLS, **bounds)
    assert (got.entries, got.events, got.dropped) == (want.entries, want.events, want.dropped)


def test_horizon_bounds_mixed_clocks_like_the_simulator(wpm):
    # A time horizon stops every instance strictly before it, as simulate()
    # does, so the mixed-clock system matches the reference.
    system, comps = wpm
    names = [inst.name for inst in system.instances]
    sys_ir = synthesize_system(system, comps, {n: MIXED_FREQS[i % 4] for i, n in enumerate(names)})
    stim = [TraceEvent(t, "StartMeasure", "Start", None) for t in WPM_STARTS]
    horizon = Fraction(5)
    ref = simulate(system, comps, [e for e in stim if e.time < horizon], horizon, ALL_IMPLS)
    cyc = interpret(sys_ir, stim, mcc_latencies=ALL_LATENCIES, mcc_impls=ALL_IMPLS, horizon=horizon)
    assert compare_with_reference(ref, cyc, sys_ir) == []
    assert max(e.time for e in cyc.entries) < horizon
    for spec in sys_ir.instances:  # no edge at or after the horizon runs
        assert max(e.cycle for e in cyc.entries if e.instance == spec.name) < horizon * spec.freq


def test_interpret_needs_a_bound(wpm):
    system, comps = wpm
    sys_ir = synthesize_system(system, comps, {inst.name: 1 * MHZ for inst in system.instances})
    with pytest.raises(TypeError, match="max_cycles or horizon"):
        interpret(sys_ir, [])


def test_interpret_makes_few_fraction_calls_per_record(wpm):
    # Work-count guard: edges are ordered on an integer time base, and a
    # Fraction is built only for a recorded time.  Deterministic: counts calls
    # into the fractions module, not time.
    import cProfile
    import pstats

    system, comps = wpm
    sys_ir = synthesize_system(system, comps, {inst.name: 1 * MHZ for inst in system.instances})
    stim = [TraceEvent(t, "StartMeasure", "Start", None) for t in WPM_STARTS]
    profile = cProfile.Profile()
    profile.enable()
    try:
        cyc = interpret(sys_ir, stim, 3 * 10**6 - 1, ALL_LATENCIES, ALL_IMPLS)
    finally:
        profile.disable()
    calls = sum(
        stat[1] for key, stat in pstats.Stats(profile).stats.items() if key[0].endswith("fractions.py")
    )
    records = len(cyc.entries) + len(cyc.events) + len(cyc.dropped)
    assert records == 3679
    assert calls <= 2 * records, f"{calls} calls into fractions for {records} records"


def test_interpret_wakes_only_the_stepped_instance(wpm):
    # Work-count guard: the run keeps one agenda of instance wakes and asks
    # only the instance it stepped for its next edge, so a step costs O(1)
    # wakes, not one per instance (seven here).
    import cProfile
    import pstats

    system, comps = wpm
    sys_ir = synthesize_system(system, comps, {inst.name: 1 * MHZ for inst in system.instances})
    stim = [TraceEvent(t, "StartMeasure", "Start", None) for t in WPM_STARTS]
    profile = cProfile.Profile()
    profile.enable()
    try:
        interpret(sys_ir, stim, 3 * 10**6 - 1, ALL_LATENCIES, ALL_IMPLS)
    finally:
        profile.disable()
    calls = {fn: stat[1] for (file, _, fn), stat in pstats.Stats(profile).stats.items()
             if file == fsm.__file__ and fn in ("wake", "step")}
    assert calls["step"] > 3000
    assert calls["wake"] <= 2 * calls["step"], calls


def _expression_nodes(comps) -> int:
    """Nodes of every guard and entry-action expression of the components."""
    def size(e):
        return 1 + sum(size(child) for child in vars(e).values() if isinstance(child, ex.Expr))

    return sum(
        size(e)
        for comp in comps
        for s in comp.states
        for e in [g.guard for g in s.guards] + [a.value for a in s.entry if getattr(a, "value", None) is not None]
    )


def test_engines_compile_each_expression_once_and_never_walk_trees(wpm):
    # Work-count guard: both engines call closures built once per run from
    # each distinct component, whatever the number of its instances (three
    # sensors here), and never `expr.evaluate`.
    import cProfile
    import pstats

    system, comps = wpm
    sys_ir = synthesize_system(system, comps, {inst.name: 1 * MHZ for inst in system.instances})
    stim = [TraceEvent(t, "StartMeasure", "Start", None) for t in WPM_STARTS]
    nodes = _expression_nodes({comps[inst.component].name: comps[inst.component]
                               for inst in system.instances}.values())
    runs = {
        "simulate": lambda: simulate(system, comps, stim[:1], Fraction(3), ALL_IMPLS),
        "interpret": lambda: interpret(sys_ir, stim, 3 * 10**6 - 1, ALL_LATENCIES, ALL_IMPLS),
    }
    for name, run in runs.items():
        profile = cProfile.Profile()
        profile.enable()
        try:
            run()
        finally:
            profile.disable()
        calls = {fn: stat[1] for (file, _, fn), stat in pstats.Stats(profile).stats.items()
                 if file == ex.__file__ and fn in ("evaluate", "compile_expr")}
        assert calls.get("evaluate", 0) == 0, name
        assert 0 < calls["compile_expr"] <= nodes == 41, (name, calls)


def test_a_failing_entry_action_raises_the_same_error_in_both_engines():
    # Division by zero at reset: `psmsynth sim` of this model ends in the one
    # line `error: division by zero` (tests/test_cli.py, division-by-zero).
    comp = parse_component(
        "component D { period 10 ms; var x: int32 = 0; initial Go;"
        " state Go { entry { x = 1 / x; } ts(10 ms) -> Go; } }"
    )
    with pytest.raises(ex.EvalError) as ref:
        simulate_component(comp, [], Fraction(1))
    with pytest.raises(ex.EvalError) as cyc:
        interpret(synthesize_single(comp, 1 * MHZ), [], horizon=Fraction(1))
    assert str(ref.value) == str(cyc.value) == "division by zero"


PINGER = """
component Pinger { period 1 s; output event Ping; initial Idle;
  state Idle { ts(1 ms) -> Step; }
  state Step { ts(delta) -> Send; }
  state Send { entry { notify Ping; } ts(inf); } }
"""
RECEIVER = """
component Receiver { period 1 s; input event Go; input event Ping; initial Wait;
  state Wait { import Go -> GotGo; import Ping -> GotPing; }
  state GotGo { ts(inf); }
  state GotPing { ts(inf); } }
"""
PAIR = """
system Pair { instance p: Pinger; instance r: Receiver;
  connect p.Ping -> r.Ping; port input Go -> r.Go; }
"""


def test_arrivals_within_one_clock_interval_are_taken_in_time_order():
    # The stimulus Go is routed before the run starts, so it is queued first,
    # but it arrives at 10/7 ms, after Ping (emitted at 4/3 ms on the 3 kHz
    # clock).  Both arrive before the receiver's 2 ms edge: Ping is consumed
    # there, and Go is dropped at the next edge by a state that does not
    # import it.
    comps = {"Pinger": parse_component(PINGER), "Receiver": parse_component(RECEIVER)}
    sys_ir = synthesize_system(parse_system(PAIR), comps, {"p": 3000, "r": 1000})
    go = Fraction(10, 7) * MS
    cyc = interpret(sys_ir, [TraceEvent(go, "Go", "Go", None)], 10)
    assert [(e.instance, e.state, e.cycle, e.time) for e in cyc.entries] == [
        ("p", "Idle", 0, 0), ("r", "Wait", 0, 0),
        ("p", "Step", 3, MS), ("p", "Send", 4, Fraction(4, 3) * MS),
        ("r", "GotPing", 2, 2 * MS),
    ]
    assert [(d.instance, d.event, d.cycle, d.time) for d in cyc.dropped] == [("r", "Go", 3, 3 * MS)]


# --- Malformed stimulus and MCC results ------------------------------------------

@pytest.mark.parametrize("stim, impls, message", [
    ([TraceEvent(MS, "StartMeasure", "Start", 5)], ALL_IMPLS,
     "payload mismatch for 'mhr.Start': unexpected data value"),
    ([TraceEvent(MS, "mhr", "Alarm", None)], ALL_IMPLS,
     "stimulus targets 'mhr.Alarm', which is not an input event"),
    ([TraceEvent(MS, "mhr", "Nope", None)], ALL_IMPLS,
     "stimulus targets 'mhr.Nope', which is not an input event"),
    ([TraceEvent(MS, "Nope", "Start", None)], ALL_IMPLS,
     "stimulus targets unknown instance or port 'Nope'"),
    ([TraceEvent(MS, "mhr", "Sample", 7)], ALL_IMPLS,
     "stimulus targets 'mhr.Sample', an input driven by 'mhr_sensor.Out'"),
    ([TraceEvent(MS, "StartMeasure", "Start", None)], {**ALL_IMPLS, "ComputeHR": lambda a: ()},
     "mcc 'ComputeHR' returned 0 values, expected 1"),
    ([TraceEvent(-5 * MS, "StartMeasure", "Start", None)], ALL_IMPLS,
     "stimulus at t=-1/200 is before time 0"),
], ids=["payload-on-pure-event", "output-target", "undeclared-target", "unknown-instance",
        "driven-input", "mcc-result-count", "negative-time"])
def test_simulator_and_interpreter_reject_the_same_inputs(wpm, stim, impls, message):
    system, comps = wpm
    sys_ir = synthesize_system(system, comps, {inst.name: 1 * MHZ for inst in system.instances})
    with pytest.raises(SimulationError, match=re.escape(message)):
        simulate(system, comps, stim, Fraction(1), impls)
    with pytest.raises(SimulationError, match=re.escape(message)):
        interpret(sys_ir, stim, 10**6, ALL_LATENCIES, impls)


@pytest.mark.parametrize("bounds, message", [
    ({"horizon": Fraction(0)}, "horizon must be positive, got 0"),
    ({"horizon": Fraction(-1)}, "horizon must be positive, got -1"),
    ({"max_cycles": -5}, "max_cycles must not be negative, got -5"),
], ids=["horizon-0", "horizon-negative", "max-cycles-negative"])
def test_a_run_with_no_instant_before_its_bound_is_refused(fixtures, bounds, message):
    # Both engines stop strictly before the horizon, so a horizon of 0 or
    # less leaves no instant to record, not even the reset entry.
    comp = parse_file(fixtures / "sensor.psm")
    if "horizon" in bounds:
        with pytest.raises(SimulationError, match=re.escape(message)):
            model.simulate_component(comp, [], bounds["horizon"])
    with pytest.raises(SimulationError, match=re.escape(message)):
        interpret(synthesize_single(comp, 1 * MHZ), [], **bounds)


def test_a_run_of_cycle_zero_records_the_reset_entry(fixtures):
    comp = parse_file(fixtures / "sensor.psm")
    trace = interpret(synthesize_single(comp, 1 * MHZ), [], max_cycles=0)
    assert [(e.cycle, e.state) for e in trace.entries] == [(0, "Emit")]


@pytest.mark.parametrize("latency", [-2, -3, 1.5, "x", None], ids=["-2", "-3", "1.5", "x", "None"])
def test_an_mcc_latency_that_is_not_a_non_negative_integer_is_refused(wpm, latency):
    # A latency of -2 would leave the call no cycles, so its results would
    # never be applied; -3 would end the call before the edge that starts it.
    system, comps = wpm
    sys_ir = synthesize_system(system, comps, {inst.name: 1 * MHZ for inst in system.instances})
    stim = [TraceEvent(MS, "StartMeasure", "Start", None)]
    message = f"mcc 'ComputeHR' latency must be a non-negative integer, got {latency!r}"
    with pytest.raises(SimulationError, match=re.escape(message)):
        interpret(sys_ir, stim, 10**6, {**ALL_LATENCIES, "ComputeHR": latency}, ALL_IMPLS)


@pytest.mark.parametrize("latencies, impls, name", [
    ({**ALL_LATENCIES, "ComputHR": 4056}, ALL_IMPLS, "ComputHR"),
    ({"ComputHR": 4056}, {}, "ComputHR"),
    (ALL_LATENCIES, {**ALL_IMPLS, "ComputHRx": HR_IMPL["ComputeHR"]}, "ComputHRx"),
], ids=["latency", "latency-alone", "implementation"])
def test_an_mcc_that_no_component_declares_is_refused(wpm, latencies, impls, name):
    # Ignoring the binding would run a misspelt MCC at 1 cycle, or without
    # its implementation, and give the same trace as no binding at all.
    system, comps = wpm
    sys_ir = synthesize_system(system, comps, {inst.name: 1 * MHZ for inst in system.instances})
    stim = [TraceEvent(MS, "StartMeasure", "Start", None)]
    message = f"mcc '{name}' is declared by no component of the run"
    with pytest.raises(SimulationError, match=re.escape(message)):
        interpret(sys_ir, stim, 10**6, latencies, impls)
    if name in impls:
        with pytest.raises(SimulationError, match=re.escape(message)):
            simulate(system, comps, stim, Fraction(1), impls)


@pytest.mark.parametrize("engine", ["simulate", "interpret"])
def test_an_mcc_of_a_component_outside_the_run_is_refused(fixtures, engine):
    # SpO2 declares ComputeSpo2 only; WPM's other MCCs are not its own.
    comp = parse_file(fixtures / "spo2.psm")
    message = "mcc 'ComputeHR' is declared by no component of the run"
    with pytest.raises(SimulationError, match=re.escape(message)):
        if engine == "simulate":
            simulate_component(comp, [], 10 * MS, ALL_IMPLS)
        else:
            interpret(synthesize_single(comp, 1 * MHZ), [], 10, ALL_LATENCIES, ALL_IMPLS)


def test_a_call_of_latency_zero_takes_the_handshake_cycles():
    # The 1 s timer starts once the call is done, HANDSHAKE_CYCLES edges after
    # the entry, and the next entry exports the call's result.
    comp = parse_component(WIDTHS)
    sys_ir = synthesize_single(comp, 1 * MHZ)
    cyc = interpret(sys_ir, [], 2 * 10**6 + 4, {"Id": 0}, {"Id": lambda a: a})
    assert [e.cycle for e in cyc.entries] == [0, 10**6 + 2, 2 * 10**6 + 4]
    assert [e.payload for e in cyc.events if e.event == "Res"] == [0, 100, -56]


WIDTHS = """
component W { period 1 s;
  output event Out(int8); output event Wide(int8); output event Res(int8);
  var x: int8 = 0; var y: int32 = 0; var r: int8 = 0;
  mcc Id(1 -> 1) dfg "id.dfg";
  initial S;
  state S {
    entry { export Res(r); x = x + 100; y = y + 100; export Out(x); export Wide(y); invoke Id(y -> r); }
    ts(1 s) -> S;
  }
}
"""


def test_both_engines_wrap_stored_values_to_the_declared_width():
    # Assignments and MCC results wrap to their variable's width and exports
    # to their event's payload width, as the int8 registers of the RTL do.
    comp = parse_component(WIDTHS)
    impls = {"Id": lambda a: a}
    ref = simulate_component(comp, [], Fraction(3), impls)
    cyc = interpret(synthesize_single(comp, 1 * MHZ), [], mcc_impls=impls, horizon=Fraction(3))
    for events in (ref.events, cyc.events):
        assert {name: [e.payload for e in events if e.event == name] for name in ("Out", "Wide", "Res")} == {
            "Out": [100, -56, 44], "Wide": [100, -56, 44], "Res": [0, 100, -56],
        }


# --- Mismatch reporting -------------------------------------------------------

def test_comparison_reports_sequence_divergence(fixtures):
    comp = parse_file(fixtures / "sensor.psm")
    ref = simulate_component(comp, [], Fraction(45, 1000))
    sys_ir = synthesize_single(comp, 1 * MHZ)
    cyc = interpret(sys_ir, [], 30_000)  # shorter run: fewer entries
    problems = compare_with_reference(ref, cyc, sys_ir)
    assert problems and "state sequence differs" in problems[0]


def test_comparison_names_the_first_divergence(fixtures):
    comp = parse_file(fixtures / "sensor.psm")
    ref = simulate_component(comp, [], Fraction(45, 1000))
    sys_ir = synthesize_single(comp, 1 * MHZ)
    assert compare_with_reference(ref, interpret(sys_ir, [], 30_000), sys_ir) == [
        "dut: state sequence differs at #4: 'Emit' vs end (lengths 5 vs 4)"
    ]
    cyc = interpret(sys_ir, [], 45_000 - 1)
    cyc.events[2] = fsm.CycleEventRecord("dut", cyc.events[2].cycle, cyc.events[2].time, "Out", 0)
    assert compare_with_reference(ref, cyc, sys_ir) == [
        "dut: output event sequence differs at #2: ('Out', 3) vs ('Out', 0) (lengths 5 vs 5)"
    ]


def test_comparison_names_an_entry_outside_its_tolerance(wpm):
    # mhr's entry #1 is no zero-time step, so its tolerance is the 0.5 s
    # period plus 1 + 2 handshake cycles at 1 MHz: an entry that far from
    # the reference passes, and one a cycle later is named.
    system, comps = wpm
    horizon = Fraction(1)
    stim = [TraceEvent(t, "StartMeasure", "Start", None) for t in WPM_STARTS]
    ref = simulate(system, comps, [e for e in stim if e.time < horizon], horizon, ALL_IMPLS)
    sys_ir = synthesize_system(system, comps, {inst.name: 1 * MHZ for inst in system.instances})
    cyc = interpret(sys_ir, stim, mcc_latencies=ALL_LATENCIES, mcc_impls=ALL_IMPLS, horizon=horizon)
    assert compare_with_reference(ref, cyc, sys_ir) == []
    k = next(i for i, e in enumerate(cyc.entries) if (e.instance, e.state) == ("mhr", "WaitSample"))
    problems = []
    for late in (Fraction(3, MHZ), Fraction(4, MHZ)):
        cyc.entries[k] = replace(cyc.entries[k], time=Fraction(3, 2500) + Fraction(1, 2) + late)
        problems.append(compare_with_reference(ref, cyc, sys_ir))
    assert problems == [[], [
        "mhr: entry #1 (WaitSample) at 0.501204000s vs reference 0.001200000s "
        "(deviation 0.500004000s > tolerance 0.500003000s)"
    ]]


# --- Artifacts ----------------------------------------------------------------

def test_vcd_export_structure(fixtures):
    comp = parse_file(fixtures / "sensor.psm")
    sys_ir = synthesize_single(comp, 1 * MHZ)
    cyc = interpret(sys_ir, [], 25_000)
    buf = io.StringIO()
    write_vcd(cyc, sys_ir, buf)
    text = buf.getvalue()
    assert text.startswith("$timescale 1ns $end")
    assert "$scope module dut $end" in text
    assert "$var wire 1" in text
    assert "#0\n" in text and "#10000000\n" in text  # 10 ms in ns


def test_vcd_keeps_the_state_wire_apart_from_an_event_named_state():
    comp = parse_component(
        "component C { period 1 s; output event __state; initial A;"
        " state A { entry { notify __state; } ts(1 ms) -> B; } state B { ts(1 ms) -> A; } }"
    )
    sys_ir = synthesize_single(comp, 1000)
    buf = io.StringIO()
    write_vcd(interpret(sys_ir, [], 2), sys_ir, buf)
    assert buf.getvalue().split("$enddefinitions $end\n")[1] == (
        '#0\nb0 !\n1"\n#1000000\nb1 !\n0"\n#2000000\nb0 !\n1"\n#3000000\n0"\n'
    )


def test_rtl_emission_golden(fixtures):
    comp = parse_file(fixtures / "mhr.psm")
    sys_ir = synthesize_single(comp, 102 * MHZ)
    rtl = emit_rtl(sys_ir)
    golden = (fixtures / "golden" / "mhr.v").read_text()
    assert rtl == golden


# sha256 of the emitted RTL: the top module's nets, connections, synchronizers
# and port wiring for WPM, and each fixture component alone at 102 MHz.
@pytest.mark.parametrize("mixed, digest", [
    (False, "3cf6f0ba9a7fe907a0c49fcf1f506a62dc15cb89555917fca56df84599348735"),
    (True, "44e29459b5638780ab24949b77a4e378c955a823d9e34754770648cd972ac5d4"),
], ids=["one-clock", "mixed-clocks"])
def test_golden_wpm_rtl(wpm, mixed, digest):
    system, comps = wpm
    names = [inst.name for inst in system.instances]
    freqs = {n: MIXED_FREQS[i % 4] if mixed else 1 * MHZ for i, n in enumerate(names)}
    assert _sha([emit_rtl(synthesize_system(system, comps, freqs))]) == digest


@pytest.mark.parametrize("name, digest", [
    ("sensor", "2239f0525b89fb56f1bff81f45ac771515c10b6208afc02d06b3d8e61a43b06a"),
    ("spo2", "16bb8e62cedbd36ed3522fe3bcab446cf46efbaaacf4fc264f171700f049826a"),
    ("emg", "20d1ed5fc9691105941183cab17af9aaaf4712b8f2a81fb13e79ff9ec15c480d"),
    ("monitor", "4088374255b7f4f6b51fef6826c41fcef6763d5387312a820b7da09983c4259c"),
])
def test_golden_component_rtl(fixtures, name, digest):
    comp = parse_file(fixtures / f"{name}.psm")
    assert _sha([emit_rtl(synthesize_single(comp, 102 * MHZ))]) == digest


# No fixture state makes two calls, or a call and then a finite dwell: `Both`
# steps from its first call to its second, and `One` starts its timer once its
# call is done.
CALLS = """
component Calls {
  period 10 ms;
  var x: int16 = 1;
  var y: int16 = 0;
  var z: int16 = 0;
  mcc F(1 -> 1) dfg "f.dfg";
  mcc G(2 -> 1) dfg "g.dfg";
  initial Both;
  state Both {
    entry { x = x + 1; invoke F(x -> y); invoke G(x, x -> z); }
    ts(delta) -> One;
  }
  state One {
    entry { invoke F(z -> x); }
    ts(2 ms) -> Both;
  }
}
"""


def test_golden_rtl_of_chained_calls_and_a_timer_after_a_call():
    rtl = emit_rtl(synthesize_single(parse_component(CALLS), 102 * MHZ))
    assert "state <= S_BOTH_CALL1;" in rtl and "tmr_One_start <= 1'b1;" in rtl
    assert _sha([rtl]) == "7ac0ae8c0b52a0e768568f986764f0adf1af29ec154db90e4d435c283c5b1bb3"


@pytest.mark.parametrize("declarations, states, message", [
    ("", "state idle { ts(1 ms) -> IDLE; } state IDLE { ts(1 ms) -> idle; }",
     "RTL module psm_K declares S_IDLE twice"),
    ("", "state idle { ts(1 ms) -> Idle; } state Idle { ts(inf); }",
     "RTL module psm_K declares S_IDLE twice"),
    ('var x: int8; mcc F(1 -> 1) dfg "f.dfg";',
     "state a { entry { invoke F(x -> x); } ts(1 ms) -> a_call0; } state a_call0 { ts(inf); }",
     "RTL module psm_K declares S_A_CALL0 twice"),
    ("var do_entry: int8;", "state S { ts(inf); }", "RTL module psm_K declares do_entry twice"),
    ("input event clk(int8);", "state S { import clk -> S; }", "RTL module psm_K declares clk twice"),
    ("var rst: int8;", "state S { ts(inf); }", "RTL module psm_K declares rst twice"),
    ("var tmr_S_start: int8;", "state S { ts(1 ms) -> S; }", "RTL module psm_K declares tmr_S_start twice"),
    ("var tmr_S_done: int8;", "state S { ts(1 ms) -> S; }", "RTL module psm_K declares tmr_S_done twice"),
    ("var u_tmr_S: int8;", "state S { ts(1 ms) -> S; }", "RTL module psm_K declares u_tmr_S twice"),
    ("input event E; var ev_E_pending: int8;", "state S { import E -> S; }",
     "RTL module psm_K declares ev_E_pending twice"),
], ids=["states-differ-in-case", "timer-less-state-differs-in-case", "state-named-like-a-call",
        "var-do_entry", "event-clk", "var-rst", "var-tmr_S_start", "var-tmr_S_done", "var-u_tmr_S",
        "var-ev_E_pending"])
def test_rtl_refuses_names_that_collide(declarations, states, message):
    # The interpreter runs these models; only their RTL would declare one
    # name twice.
    comp = parse_component(f"component K {{ period 10 ms; {declarations} {states} }}")
    sys_ir = synthesize_single(comp, 1 * MHZ)
    interpret(sys_ir, [], 10)
    with pytest.raises(SynthesisError, match=f"^{re.escape(message)}$"):
        emit_rtl(sys_ir)


def test_rtl_of_a_pure_event_named_clk():
    # A pure input is only its ev_clk_* handshake, which takes no name the
    # module's own clk port holds.
    comp = parse_component("component K { period 10 ms; input event clk; state S { import clk -> S; } }")
    rtl = emit_rtl(synthesize_single(comp, 1 * MHZ))
    module = rtl[rtl.index("module psm_K "):].splitlines()
    assert module[3:7] == [
        "  input wire clk,", "  input wire rst,", "  input wire ev_clk_req,", "  output reg ev_clk_ack",
    ]
    assert "  wire ev_clk_pending = ev_clk_req != ev_clk_ack;" in module


@pytest.mark.parametrize("name", ["timer", "sync"])
def test_rtl_refuses_a_component_named_like_a_shared_module(name):
    comp = parse_component(f"component {name} {{ period 10 ms; initial S; state S {{ ts(inf); }} }}")
    with pytest.raises(SynthesisError, match=f"^two RTL modules are named psm_{name}$"):
        emit_rtl(synthesize_single(comp, 1 * MHZ))


def test_rtl_contains_expected_structure(fixtures):
    comp = parse_file(fixtures / "mhr.psm")
    rtl = emit_rtl(synthesize_single(comp, 102 * MHZ))
    assert "module psm_timer" in rtl
    assert "module psm_MHR" in rtl
    assert "parameter integer CLK_FREQ_HZ" in rtl
    assert "S_ANALYZE_CALL0" in rtl  # wait state for the invoke handshake
    assert "#(.CLK_FREQ_HZ(102000000))" in rtl


def test_rtl_inserts_synchronizers_only_across_clock_domains(fixtures):
    comps = {}
    for name in ["mhr", "spo2", "emg", "sensor", "monitor"]:
        c = parse_file(fixtures / f"{name}.psm")
        comps[c.name] = c
    system = parse_file(fixtures / "wpm_system.psm")
    freqs = {inst.name: 1 * MHZ for inst in system.instances}
    same = emit_rtl(synthesize_system(system, comps, freqs))
    assert "psm_sync #(" not in same.split("endmodule", 2)[2]  # top has no syncs
    freqs["emg"] = 2 * MHZ
    mixed = emit_rtl(synthesize_system(system, comps, freqs))
    assert "psm_sync #(" in mixed.split("module psm_system_")[1]


# --- Every entry action and timing kind -----------------------------------------
# One component with notify, export, ts(delta), ts(inf), a finite spec, a
# guard, imports of a pure and a data event, and an invoke.  sha256 of its
# RTL and of each engine's trace pin how both engines and the RTL emitter
# read each construct; no fixture has a notify.
EVERY_KIND = """\
component Every {
  period 10 ms;
  input event Go;
  input event Val(int8);
  output event Tick;
  output event Out(int16);
  var n: int16 = 0;
  var r: int16 = 0;
  mcc Twice(1 -> 1) dfg "twice.dfg";
  initial Idle;
  state Idle {
    import Go -> Count;
    import Val -> Count;
    ts(inf);
  }
  state Count {
    entry {
      notify Tick;
      n = n + Val;
    }
    when (n > 20) -> Done;
    ts(3 ms) -> Work;
  }
  state Work {
    entry {
      invoke Twice(n -> r);
    }
    ts(delta) -> Report;
  }
  state Report {
    entry {
      export Out(r + 1);
    }
    import Go -> Idle;
    ts(2 ms) -> Count;
  }
  state Done {
    entry {
      export Out(n);
      notify Tick;
    }
    ts(inf);
  }
}
"""
EVERY_KIND_STIMULUS = [
    TraceEvent(1 * MS, "dut", "Val", 5), TraceEvent(10 * MS, "dut", "Go", None),
    TraceEvent(12 * MS, "dut", "Val", 6), TraceEvent(13 * MS, "dut", "Go", None),
    TraceEvent(20 * MS, "dut", "Go", None),
]


def test_golden_every_action_and_timing_kind():
    comp = parse_component(EVERY_KIND)
    impls = {"Twice": lambda a: (2 * a[0],)}
    ref = simulate_component(comp, EVERY_KIND_STIMULUS, 25 * MS, impls)
    sys_ir = synthesize_single(comp, 1 * MHZ)
    cyc = interpret(sys_ir, EVERY_KIND_STIMULUS, mcc_latencies={"Twice": 5}, mcc_impls=impls,
                    horizon=25 * MS)
    assert compare_with_reference(ref, cyc, sys_ir) == []
    assert [e.state for e in ref.state_entries] == [
        "Idle", "Count", "Work", "Report", "Count", "Work", "Report", "Idle",
        "Count", "Work", "Report", "Count", "Done",
    ]
    assert [(e.event, e.payload) for e in ref.events] == [
        ("Tick", None), ("Out", 11), ("Tick", None), ("Out", 21), ("Tick", None), ("Out", 33),
        ("Tick", None), ("Out", 22), ("Tick", None),
    ]
    assert {
        "rtl": _sha([emit_rtl(sys_ir)]),
        "reference": _sha(
            [f"S {e.instance} {e.time} {e.state}" for e in ref.state_entries]
            + [f"E {e.instance} {e.time} {e.event} {e.payload}" for e in ref.events]
            + [f"D {e.instance} {e.time} {e.event} {e.payload}" for e in ref.dropped]
        ),
        "cycles": _sha(
            [f"S {e.instance} {e.cycle} {e.time} {e.state}" for e in cyc.entries]
            + [f"E {e.instance} {e.cycle} {e.time} {e.event} {e.payload}" for e in cyc.events]
            + [f"D {e.instance} {e.cycle} {e.time} {e.event} {e.payload}" for e in cyc.dropped]
        ),
    } == {
        "rtl": "3f40f254b82131d766e657bcfd6d3699609a3d5c5af716b1e14b1c4366e1b1bf",
        "reference": "ae5728ab031cc1d842edb3e4dcb1eb7f81356ca69e78ce4e7039426bac97e93b",
        "cycles": "f8e7e306e3e21694f8678860600852a19767b47f5299a170950b93649be680bd",
    }
