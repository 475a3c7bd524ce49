"""Model validation rules and the reference discrete-event simulator."""

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from psmsynth import expr as ex
from psmsynth.dsl import parse_component, parse_file, parse_system
from psmsynth.model import (
    Assign,
    Connection,
    DeltaCycleError,
    Direction,
    EventDecl,
    ExternalPort,
    GuardTransition,
    Import,
    Instance,
    InvokeMcc,
    MccSignature,
    PsmComponent,
    PsmSystem,
    SimulationError,
    State,
    TimedTransition,
    TimingKind,
    TraceEvent,
    VarDecl,
    simulate,
    simulate_component,
    single_component_system,
    validate_component,
    validate_system,
)
from test_fsm import ALL_IMPLS, WPM_STARTS

MS = Fraction(1, 1000)


def comp(text: str):
    return parse_component(text)


PING_PONG = """
component PingPong {
  period 1 s;
  output event Tick;
  initial A;
  state A {
    ts(delta) -> B;
  }
  state B {
    entry { notify Tick; }
    ts(1 s) -> A;
  }
}
"""


# --- Validation ---------------------------------------------------------------

def test_valid_component_passes():
    report = validate_component(comp(PING_PONG))
    assert report.ok
    assert not report.findings


def test_undeclared_transition_target():
    c = comp(
        """
        component C { period 1 s; input event Go;
          initial A; state A { import Go -> Nowhere; } }
        """
    )
    report = validate_component(c)
    assert not report.ok
    assert any("Nowhere" in str(f) for f in report.errors)


def test_bad_initial_state():
    c = comp("component C { period 1 s; initial Missing; state A { ts(inf); } }")
    report = validate_component(c)
    assert any("initial state" in f.message for f in report.errors)


def test_notify_must_be_pure_output():
    c = comp(
        """
        component C { period 1 s; output event D(int32);
          initial A; state A { entry { notify D; } ts(inf); } }
        """
    )
    assert any("non-data" in f.message for f in validate_component(c).errors)


def test_export_must_carry_data():
    c = comp(
        """
        component C { period 1 s; output event P;
          initial A; state A { entry { export P(1); } ts(inf); } }
        """
    )
    assert any("data event" in f.message for f in validate_component(c).errors)


EMITS_AND_TIMERS = """
component C {{
  period 1 s;
  input event In;
  input event InD(int8);
  output event Out;
  output event OutD(int8);
  initial A;
  state A {{ {body} }}
}}
"""


@pytest.mark.parametrize("body, message", [
    ("entry { notify E; } ts(inf);", "notify of undeclared event 'E'"),
    ("entry { notify In; } ts(inf);", "notify must target an output event, 'In' is an input"),
    ("entry { notify OutD; } ts(inf);", "notify must target a non-data event, 'OutD' carries data"),
    ("entry { export E(1); } ts(inf);", "export of undeclared event 'E'"),
    ("entry { export InD(1); } ts(inf);", "export must target an output event, 'InD' is an input"),
    ("entry { export Out(1); } ts(inf);", "export must target a data event, 'Out' carries none"),
    ("entry { export OutD(x); } ts(inf);", "export references undeclared variable 'x'"),
    ("ts(0 ms) -> A;", "finite timing spec must have a positive duration, got 0"),
    ("ts(5 ms);", "finite timing spec needs a transition target"),
    ("ts(delta);", "delta timing spec needs a transition target"),
    ("ts(inf) -> A;", "infinite timing spec cannot have a transition target"),
    ("ts(5 ms) -> B;", "transition target 'B' is not declared"),
    (TimedTransition(TimingKind.FINITE, "A"), "finite timing spec must have a positive duration, got None"),
    (TimedTransition(TimingKind.DELTA, "A", MS), "delta timing spec cannot carry a duration"),
    (TimedTransition(TimingKind.INFINITE, duration=MS), "infinite timing spec cannot carry a duration"),
])
def test_emit_and_timing_findings(body, message):
    # Each finding of an emit action or a timing spec, word for word; the
    # specs that the grammar cannot spell are built directly.
    if isinstance(body, str):
        c = comp(EMITS_AND_TIMERS.format(body=body))
    else:
        c = replace(comp(EMITS_AND_TIMERS.format(body="ts(inf);")), states=(State("A", timed=body),))
    assert [str(f) for f in validate_component(c).errors] == [f"component C, state A: error: {message}"]


def test_two_imports_on_same_event_rejected():
    c = comp(
        """
        component C { period 1 s; input event Go;
          initial A; state A { import Go -> A; import Go -> A; } }
        """
    )
    assert any("two transitions" in f.message for f in validate_component(c).errors)


def test_guard_referencing_undeclared_variable():
    c = comp(
        """
        component C { period 1 s; initial A;
          state A { when (mystery > 0) -> A; ts(inf); } }
        """
    )
    assert any("undeclared variable" in f.message for f in validate_component(c).errors)


def test_mcc_arity_checked():
    c = comp(
        """
        component C { period 1 s; var x: int32 = 0;
          mcc F(2 -> 1) dfg "f.dfg";
          initial A; state A { entry { invoke F(x -> x); } ts(inf); } }
        """
    )
    assert any("expects 2 arguments" in f.message for f in validate_component(c).errors)


def test_unreachable_state_is_a_warning_only():
    c = comp(
        "component C { period 1 s; initial A; state A { ts(inf); } state B { ts(inf); } }"
    )
    report = validate_component(c)
    assert report.ok
    assert any("unreachable" in f.message for f in report.findings)


def test_system_payload_width_mismatch():
    a = comp("component A { period 1 s; output event Out(int32); initial S; state S { ts(inf); } }")
    b = comp("component B { period 1 s; input event In(int16); initial S; state S { ts(inf); } }")
    system = parse_system(
        """
        system Sys { instance a: A; instance b: B; connect a.Out -> b.In; }
        """
    )
    report = validate_system(system, {"A": a, "B": b})
    assert any("width mismatch" in f.message for f in report.errors)


def test_system_double_driven_input_rejected():
    a = comp("component A { period 1 s; output event Out; initial S; state S { ts(inf); } }")
    b = comp("component B { period 1 s; input event In; initial S; state S { ts(inf); } }")
    system = parse_system(
        """
        system Sys { instance a1: A; instance a2: A; instance b: B;
          connect a1.Out -> b.In; connect a2.Out -> b.In; }
        """
    )
    report = validate_system(system, {"A": a, "B": b})
    assert any("two sources" in f.message for f in report.errors)


# Library-built models for the findings the grammar cannot spell or no other
# test reaches: K is valid, each case changes one field of it.
WAIT = TimedTransition(TimingKind.INFINITE)
K = PsmComponent(
    "K", Fraction(1),
    events=(EventDecl("In", Direction.INPUT), EventDecl("Out", Direction.OUTPUT)),
    variables=(VarDecl("x"),),
    mccs=(MccSignature("F", "f.dfg", 1, 1),),
    initial="A",
    states=(State("A", timed=WAIT),),
)


def state_a(**fields):
    return (State("A", timed=WAIT, **fields),)


@pytest.mark.parametrize("fields, message", [
    ({"period": Fraction(0)}, "component K: error: period must be positive, got 0"),
    ({"events": (EventDecl("In", Direction.INPUT, 0),)},
     "component K: error: event 'In' has non-positive payload width"),
    ({"states": state_a() * 2}, "component K: error: duplicate state 'A'"),
    ({"states": ()}, "component K: error: component has no states"),
    ({"states": state_a(imports=(Import("Nope", "A"),))},
     "component K, state A: error: import of undeclared event 'Nope'"),
    ({"states": state_a(imports=(Import("Out", "A"),))},
     "component K, state A: error: import of output event 'Out'"),
    ({"states": state_a(guards=(GuardTransition(ex.Num(1), "Z"),))},
     "component K, state A: error: transition target 'Z' is not declared"),
    ({"states": state_a(entry=(Assign("q", ex.Num(1)),))},
     "component K, state A: error: assignment to undeclared variable 'q'"),
    ({"states": state_a(entry=(InvokeMcc("G", ("x",), ("x",)),))},
     "component K, state A: error: invoke of undeclared mcc 'G'"),
    ({"states": state_a(entry=(InvokeMcc("F", ("x",), ("x", "x")),))},
     "component K, state A: error: mcc 'F' produces 1 results, got 2"),
    ({"states": state_a(entry=(InvokeMcc("F", ("q",), ("x",)),))},
     "component K, state A: error: mcc argument/result 'q' is not a declared variable"),
], ids=["period-0", "payload-width-0", "duplicate-state", "no-states", "import-undeclared",
        "import-output", "guard-target-undeclared", "assign-undeclared", "invoke-undeclared",
        "result-count", "argument-not-a-variable"])
def test_component_findings_of_library_built_models(fields, message):
    assert validate_component(K).findings == []
    assert [str(f) for f in validate_component(replace(K, **fields)).findings] == [message]


# Instance a of A drives b of B; each case changes one field of the system.
A_COMP = PsmComponent(
    "A", Fraction(1), events=(EventDecl("Out", Direction.OUTPUT),), initial="S",
    states=(State("S", timed=WAIT),),
)
B_COMP = PsmComponent(
    "B", Fraction(1),
    events=(EventDecl("In", Direction.INPUT), EventDecl("InD", Direction.INPUT, 8),
            EventDecl("Ack", Direction.OUTPUT)),
    initial="S", states=(State("S", timed=WAIT),),
)
AB_COMPS = {"A": A_COMP, "B": B_COMP}
AB = PsmSystem(
    "Sys", instances=(Instance("a", "A"), Instance("b", "B")),
    connections=(Connection("a", "Out", "b", "In"),),
)


@pytest.mark.parametrize("fields, message", [
    ({"instances": (Instance("a", "A"), Instance("a", "A"), Instance("b", "B"))},
     "system Sys: error: duplicate instance 'a'"),
    ({"instances": (*AB.instances, Instance("c", "C"))},
     "system Sys: error: instance 'c' uses unknown component 'C'"),
    ({"instances": (Instance("a", "X"), Instance("b", "B"))},
     "system Sys: error: instance 'a' uses unknown component 'X'"),
    ({"instances": (Instance("a", "A", Fraction(0)), Instance("b", "B"))},
     "system Sys: error: instance 'a' has non-positive period override"),
    ({"connections": (Connection("z", "Out", "b", "In"),)},
     "system Sys, z.Out -> b.In: error: connection endpoint names undeclared instance 'z'"),
    ({"connections": (Connection("a", "Nope", "b", "In"),)},
     "system Sys, a.Nope -> b.In: error: instance 'a' has no event 'Nope'"),
    ({"connections": (Connection("a", "Out", "b", "Ack"),)},
     "system Sys, a.Out -> b.Ack: error: event 'b.Ack' is not an input"),
    ({"connections": (Connection("a", "Out", "b", "InD"),)},
     "system Sys, a.Out -> b.InD: error: connected events disagree on payload presence"),
    ({"ports": (ExternalPort("Kick", Direction.INPUT, "b", "In"),)},
     "system Sys, port Kick: error: input 'b.In' is driven by two sources"),
], ids=["duplicate-instance", "unknown-component", "connection-from-unknown-component",
        "period-override-0", "undeclared-instance",
        "missing-event", "wrong-direction", "payload-presence", "port-drives-a-driven-input"])
def test_system_findings_of_library_built_models(fields, message):
    assert validate_system(AB, AB_COMPS).findings == []
    assert [str(f) for f in validate_system(replace(AB, **fields), AB_COMPS).findings] == [message]


# --- Simulation ---------------------------------------------------------------

def test_delta_then_timer_alternation():
    # A is entered, immediately (zero time) falls through to B, B dwells 1 s.
    trace = simulate_component(comp(PING_PONG), [], Fraction(7, 2))
    entries = [(e.time, e.state) for e in trace.state_entries]
    expected = []
    for k in range(4):
        expected += [(Fraction(k), "A"), (Fraction(k), "B")]
    assert entries == expected
    assert [e.time for e in trace.events] == [Fraction(k) for k in range(4)]


def test_timer_preempted_by_import():
    c = comp(
        """
        component C { period 1 s; input event Go; output event Late;
          initial Wait;
          state Wait { import Go -> Fast; ts(100 ms) -> Slow; }
          state Fast { ts(inf); }
          state Slow { entry { notify Late; } ts(inf); }
        }
        """
    )
    trace = simulate_component(c, [TraceEvent(30 * MS, "dut", "Go", None)], Fraction(1))
    assert [e.state for e in trace.state_entries] == ["Wait", "Fast"]
    assert not trace.events  # the timer never fired


def test_external_event_beats_timer_at_same_instant():
    c = comp(
        """
        component C { period 1 s; input event Go;
          initial Wait;
          state Wait { import Go -> ViaEvent; ts(100 ms) -> ViaTimer; }
          state ViaEvent { ts(inf); }
          state ViaTimer { ts(inf); }
        }
        """
    )
    trace = simulate_component(c, [TraceEvent(100 * MS, "dut", "Go", None)], Fraction(1))
    assert [e.state for e in trace.state_entries] == ["Wait", "ViaEvent"]


def test_unmatched_event_is_dropped_not_buffered():
    c = comp(
        """
        component C { period 1 s; input event Go;
          initial Deaf;
          state Deaf { ts(100 ms) -> Open; }
          state Open { import Go -> Done; ts(inf); }
          state Done { ts(inf); }
        }
        """
    )
    trace = simulate_component(c, [TraceEvent(10 * MS, "dut", "Go", None)], Fraction(1))
    assert [d.event for d in trace.dropped] == ["Go"]
    assert [e.state for e in trace.state_entries] == ["Deaf", "Open"]


def test_divergent_delta_loop_diagnosed():
    c = comp(
        """
        component C { period 1 s; initial A;
          state A { ts(delta) -> B; } state B { ts(delta) -> A; } }
        """
    )
    with pytest.raises(DeltaCycleError) as err:
        simulate_component(c, [], Fraction(1))
    assert str(err.value) == (
        "instance 'dut' made 10000 consecutive zero-time transitions at t=0 (last state 'B')"
    )


def test_guard_fires_after_entry_assignments():
    c = comp(
        """
        component C { period 1 s; input event Go(int32);
          var x: int32 = 0;
          initial Wait;
          state Wait { import Go -> Check; }
          state Check { entry { x = Go * 2; } when (x > 10) -> High; ts(delta) -> Wait; }
          state High { ts(inf); }
        }
        """
    )
    trace = simulate_component(c, [TraceEvent(MS, "dut", "Go", 3)], Fraction(1))
    assert [e.state for e in trace.state_entries] == ["Wait", "Check", "Wait"]
    trace = simulate_component(c, [TraceEvent(MS, "dut", "Go", 6)], Fraction(1))
    assert [e.state for e in trace.state_entries] == ["Wait", "Check", "High"]


def test_data_payload_readable_under_event_name():
    c = comp(
        """
        component C { period 1 s; input event In(int32); output event Out(int32);
          initial Wait;
          state Wait { import In -> Emit; }
          state Emit { entry { export Out(In + 1); } ts(delta) -> Wait; }
        }
        """
    )
    trace = simulate_component(c, [TraceEvent(MS, "dut", "In", 41)], Fraction(1))
    assert [(e.event, e.payload) for e in trace.events] == [("Out", 42)]


def test_mcc_results_applied_in_reference_semantics():
    c = comp(
        """
        component C { period 1 s; input event In(int32); output event Out(int32);
          var a: int32 = 0; var r: int32 = 0;
          mcc Double(1 -> 1) dfg "d.dfg";
          initial Wait;
          state Wait { import In -> Work; }
          state Work { entry { a = In; invoke Double(a -> r); export Out(r); } ts(delta) -> Wait; }
        }
        """
    )
    trace = simulate_component(
        c,
        [TraceEvent(MS, "dut", "In", 21)],
        Fraction(1),
        {"Double": lambda args: (args[0] * 2,)},
    )
    assert [(e.event, e.payload) for e in trace.events] == [("Out", 42)]


def test_instances_processed_in_declaration_order():
    producer = comp(
        """
        component P { period 1 s; output event Out(int32);
          initial Go; state Go { entry { export Out(5); } ts(inf); } }
        """
    )
    consumer = comp(
        """
        component Q { period 1 s; input event In(int32); output event Echo(int32);
          initial Wait;
          state Wait { import In -> Say; }
          state Say { entry { export Echo(In); } ts(inf); } }
        """
    )
    system = parse_system(
        "system S { instance p: P; instance q: Q; connect p.Out -> q.In; }"
    )
    trace = simulate(system, {"P": producer, "Q": consumer}, [], Fraction(1))
    assert [(e.instance, e.event, e.payload) for e in trace.events] == [
        ("p", "Out", 5),
        ("q", "Echo", 5),
    ]
    # Delivery at the same timestamp: q leaves Wait in the t=0 instant.
    assert trace.state_entries[-1].time == 0


def test_stimulus_may_name_external_ports():
    c = comp(
        """
        component C { period 1 s; input event Go; initial A;
          state A { import Go -> B; } state B { ts(inf); } }
        """
    )
    system = parse_system(
        "system S { instance c: C; port input Kick -> c.Go; }"
    )
    trace = simulate(
        system, {"C": c}, [TraceEvent(MS, "Kick", "Go", None)], Fraction(1)
    )
    assert [e.state for e in trace.state_entries] == ["A", "B"]


def test_stimulus_after_horizon_rejected():
    c = comp(
        """
        component C { period 1 s; input event Go; initial A;
          state A { import Go -> A; } }
        """
    )
    system = single_component_system(c)
    for time in (Fraction(1), Fraction(2)):  # at the horizon, and past it
        with pytest.raises(SimulationError, match="is not before the horizon"):
            simulate(system, {c.name: c}, [TraceEvent(time, "dut", "Go", None)], Fraction(1))


def test_stimulus_into_a_connection_driven_input_rejected():
    # Only a connection reaches q.In; the system has no port through which a
    # stimulus could arrive there.
    producer = comp(
        """
        component P { period 1 s; output event Out(int32);
          initial Go; state Go { entry { export Out(5); } ts(inf); } }
        """
    )
    consumer = comp(
        """
        component Q { period 1 s; input event In(int32);
          initial Wait; state Wait { import In -> Wait; } }
        """
    )
    system = parse_system("system S { instance p: P; instance q: Q; connect p.Out -> q.In; }")
    with pytest.raises(SimulationError, match="stimulus targets 'q.In', an input driven by 'p.Out'"):
        simulate(system, {"P": producer, "Q": consumer}, [TraceEvent(MS, "q", "In", 7)], Fraction(1))


def test_simulation_is_deterministic():
    c = comp(PING_PONG)
    t1 = simulate_component(c, [], Fraction(5, 2))
    t2 = simulate_component(c, [], Fraction(5, 2))
    assert t1.state_entries == t2.state_entries
    assert t1.events == t2.events


def test_endless_zero_time_exchange_diagnosed():
    # Each delivery re-enters a state that notifies the other instance, so
    # t=0 never settles: the round limit ends it, not the per-chain limit.
    a = comp(
        """
        component A { period 1 s; input event Pong; output event Ping;
          initial S; state S { entry { notify Ping; } import Pong -> S; } }
        """
    )
    b = comp(
        """
        component B { period 1 s; input event Ping; output event Pong;
          initial S; state S { entry { notify Pong; } import Ping -> S; } }
        """
    )
    system = parse_system(
        "system S { instance a: A; instance b: B; connect a.Ping -> b.Ping; connect b.Pong -> a.Pong; }"
    )
    with pytest.raises(DeltaCycleError) as err:
        simulate(system, {"A": a, "B": b}, [], Fraction(1))
    assert str(err.value) == "system never became quiescent at t=0: 10000 zero-time delivery rounds"


# sha256 over the reference trace of the WPM system for 60 s: state entries,
# events and dropped records.  Any change to the order in which simultaneous
# deliveries, timers and zero-time transitions are taken changes it.
def test_golden_wpm_reference_trace(fixtures):
    comps = {}
    for name in ["mhr", "spo2", "emg", "sensor", "monitor"]:
        c = parse_file(fixtures / f"{name}.psm")
        comps[c.name] = c
    system = parse_file(fixtures / "wpm_system.psm")
    stim = [TraceEvent(t, "StartMeasure", "Start", None) for t in WPM_STARTS]
    ref = simulate(system, comps, stim, Fraction(60), ALL_IMPLS)

    def sha(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    assert (len(ref.state_entries), len(ref.events), len(ref.dropped)) == (55611, 19072, 5)
    assert {
        "entries": sha(f"{e.instance} {e.time} {e.state}" for e in ref.state_entries),
        "events": sha(f"{e.instance} {e.time} {e.event} {e.payload}" for e in ref.events),
        "dropped": sha(f"{e.instance} {e.time} {e.event} {e.payload}" for e in ref.dropped),
    } == {
        "entries": "2cdd14ba9a1501730e2005b589e5ed1b0569706edbe7fadd3951d6b3e7b427d7",
        "events": "4c36a10cdf7eade22be7ae4691920cfef47083cc1d4d040287770c079e602fcb",
        "dropped": "05393e360e91041374ba5e2ebdda8fefdf792564939bcf30d37d52c042d58a5f",
    }


def test_simulate_makes_few_fraction_calls_per_record(fixtures):
    # Work-count guard: the simulator keeps time in ticks of its own integer
    # base and builds a Fraction only for a recorded time, at most once per
    # instant.  Deterministic: counts calls into the fractions module.
    import cProfile
    import pstats

    comps = {}
    for name in ["mhr", "spo2", "emg", "sensor", "monitor"]:
        c = parse_file(fixtures / f"{name}.psm")
        comps[c.name] = c
    system = parse_file(fixtures / "wpm_system.psm")
    horizon = Fraction(3)
    stim = [TraceEvent(t, "StartMeasure", "Start", None) for t in WPM_STARTS if t < horizon]
    profile = cProfile.Profile()
    profile.enable()
    try:
        ref = simulate(system, comps, stim, horizon, ALL_IMPLS)
    finally:
        profile.disable()
    calls = sum(
        stat[1] for key, stat in pstats.Stats(profile).stats.items() if key[0].endswith("fractions.py")
    )
    records = len(ref.state_entries) + len(ref.events) + len(ref.dropped)
    assert records == 3679
    assert calls <= 2 * records, f"{calls} calls into fractions for {records} records"
