"""State-based synthesis: translate validated periodic state machines into a
cycle-accurate FSM representation, interpret it for verification against the
reference simulator, and emit a synthesizable hardware description.

Conventions (documented, checked by tests):
  * Timers count 0..N-1 and assert done during cycle N-1, so a Finite spec of
    N cycles dwells exactly N cycles.
  * Delta specs and guard follow-ups take exactly one clock cycle.
  * Event handshakes are 2-phase request/acknowledge; an event emitted at time
    t becomes visible to a receiver at its first clock edge strictly after t.
  * Each computation-call (MCC) invocation occupies its start/done handshake
    (2 cycles) plus the configured execution latency; incoming events stall
    (are back-pressured) while an instance is mid-call.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from . import expr as ex
from .model import (
    Assign,
    Direction,
    EventTrace,
    Export,
    InvokeMcc,
    Notify,
    PsmComponent,
    PsmSystem,
    TimingKind,
    TraceEvent,
    validate_component,
    validate_system,
)

HANDSHAKE_CYCLES = 2  # start + done edges of one call handshake


class SynthesisError(Exception):
    pass


def time_to_cycles(duration: Fraction, freq) -> tuple[int, Fraction]:
    """Cycle count for a real-time duration at `freq` Hz, round half up with a
    minimum of one cycle, plus the residual timing error in seconds."""
    if duration <= 0:
        raise SynthesisError(f"duration must be positive, got {duration}")
    if freq <= 0:
        raise SynthesisError(f"frequency must be positive, got {freq}")
    x = Fraction(duration) * Fraction(freq)
    cycles = max(1, (2 * x.numerator + x.denominator) // (2 * x.denominator))
    error = abs(Fraction(cycles) / Fraction(freq) - Fraction(duration))
    return cycles, error


# --- IR ----------------------------------------------------------------------

@dataclass(frozen=True)
class TimerDecl:
    state: str
    duration: Fraction  # seconds
    generic: str  # cycle-count parameter name


@dataclass(frozen=True)
class FsmIr:
    component: PsmComponent
    state_codes: Mapping[str, int]
    timers: tuple[TimerDecl, ...]


@dataclass(frozen=True)
class FsmInstance:
    name: str
    ir: FsmIr
    freq: Fraction  # Hz
    timer_cycles: Mapping[str, int]  # state name -> resolved cycle count
    period: Fraction  # seconds


@dataclass(frozen=True)
class SystemIr:
    system: PsmSystem
    instances: tuple[FsmInstance, ...]

    def instance(self, name: str) -> FsmInstance:
        for inst in self.instances:
            if inst.name == name:
                return inst
        raise KeyError(name)


def _reject_delta_cycles(comp: PsmComponent) -> None:
    """A cycle of unconditional zero-time transitions can never settle."""
    edges: dict[str, list[str]] = {}
    for s in comp.states:
        targets = []
        if s.timed is not None and s.timed.spec.kind is TimingKind.DELTA:
            targets.append(s.timed.target)
        for g in s.guards:
            if isinstance(g.guard, ex.Num) and g.guard.value != 0:
                targets.append(g.target)
        edges[s.name] = targets
    color: dict[str, int] = {}

    def visit(v: str):
        color[v] = 1
        for t in edges.get(v, ()):
            if color.get(t) == 1:
                raise SynthesisError(
                    f"component {comp.name}: zero-time transition cycle through state '{t}'"
                )
            if color.get(t, 0) == 0:
                visit(t)
        color[v] = 2

    for s in comp.states:
        if color.get(s.name, 0) == 0:
            visit(s.name)


def synthesize_component(comp: PsmComponent) -> FsmIr:
    report = validate_component(comp)
    if not report.ok:
        msgs = "; ".join(str(f) for f in report.errors)
        raise SynthesisError(f"component does not validate: {msgs}")
    _reject_delta_cycles(comp)
    codes = {s.name: i for i, s in enumerate(comp.states)}
    timers = tuple(
        TimerDecl(s.name, s.timed.spec.duration, f"CYCLES_{s.name.upper()}")
        for s in comp.states
        if s.timed is not None and s.timed.spec.kind is TimingKind.FINITE
    )
    return FsmIr(comp, codes, timers)


def synthesize_system(
    system: PsmSystem,
    components: Mapping[str, PsmComponent],
    freqs: Mapping[str, object],
) -> SystemIr:
    """Instantiate one FSM per instance with its clock-frequency generic (Hz)
    resolved into concrete timer cycle counts."""
    report = validate_system(system, components)
    if not report.ok:
        msgs = "; ".join(str(f) for f in report.errors)
        raise SynthesisError(f"system does not validate: {msgs}")
    irs = {name: synthesize_component(comp) for name, comp in components.items()}
    instances = []
    for inst in system.instances:
        try:
            freq = Fraction(freqs[inst.name])
        except KeyError:
            raise SynthesisError(f"no clock frequency given for instance '{inst.name}'") from None
        if freq <= 0:
            raise SynthesisError(f"instance '{inst.name}' has non-positive frequency {freq}")
        ir = irs[inst.component]
        cycles = {t.state: time_to_cycles(t.duration, freq)[0] for t in ir.timers}
        period = inst.period_override
        if period is None:
            period = components[inst.component].period
        instances.append(FsmInstance(inst.name, ir, freq, cycles, period))
    return SystemIr(system, tuple(instances))


def synthesize_single(comp: PsmComponent, freq, instance_name: str = "dut") -> SystemIr:
    from .model import single_component_system

    system = single_component_system(comp, instance_name)
    return synthesize_system(system, {comp.name: comp}, {instance_name: freq})


# --- Cycle-level interpretation ----------------------------------------------

@dataclass(frozen=True)
class CycleStateEntry:
    instance: str
    cycle: int
    time: Fraction
    state: str


@dataclass(frozen=True)
class CycleEventRecord:
    instance: str
    cycle: int
    time: Fraction
    event: str
    payload: int | None = None


@dataclass
class CycleTrace:
    entries: list[CycleStateEntry] = field(default_factory=list)
    events: list[CycleEventRecord] = field(default_factory=list)
    dropped: list[CycleEventRecord] = field(default_factory=list)

    def entries_for(self, instance: str) -> list[CycleStateEntry]:
        return [e for e in self.entries if e.instance == instance]

    def events_for(self, instance: str) -> list[CycleEventRecord]:
        return [e for e in self.events if e.instance == instance]


class _Rt:
    """Mutable per-instance interpreter state."""

    __slots__ = (
        "spec", "cycle", "state", "vars", "queue",
        "busy", "staged", "countdown", "target", "pending_followup",
    )

    def __init__(self, spec: FsmInstance):
        self.spec = spec
        self.cycle = 0
        self.state = spec.ir.component.initial
        self.vars = {v.name: ex.wrap_signed(v.init, v.width) for v in spec.ir.component.variables}
        self.queue: list[tuple[Fraction, int, str, int | None]] = []
        self.busy = 0
        self.staged: list[tuple[str, int]] = []
        self.countdown: int | None = None
        self.target: str | None = None
        self.pending_followup = False

    @property
    def tick(self) -> Fraction:
        return 1 / self.spec.freq


def interpret(
    sys_ir: SystemIr,
    stimulus: Iterable[TraceEvent],
    max_cycles: int,
    mcc_latencies: Mapping[str, int] | None = None,
    mcc_impls: Mapping[str, object] | None = None,
) -> CycleTrace:
    """Execute the synthesized FSMs cycle-accurately until every instance has
    run `max_cycles` clock edges or gone permanently idle.

    Stimulus timestamps are seconds; an event at time t is sampled at the
    target's first clock edge strictly after t.
    """
    mcc_latencies = dict(mcc_latencies or {})
    mcc_impls = dict(mcc_impls or {})
    rts = [_Rt(spec) for spec in sys_ir.instances]
    by_name = {rt.spec.name: rt for rt in rts}
    fanout: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for c in sys_ir.system.connections:
        fanout.setdefault((c.src_instance, c.src_event), []).append(
            (c.dst_instance, c.dst_event)
        )
    in_ports = {
        p.name: (p.instance, p.event)
        for p in sys_ir.system.ports
        if p.direction is Direction.INPUT
    }

    trace = CycleTrace()
    seq = 0

    def deliver(time: Fraction, inst_name: str, event: str, payload: int | None) -> None:
        nonlocal seq
        by_name[inst_name].queue.append((time, seq, event, payload))
        seq += 1

    for evt in sorted(stimulus, key=lambda e: (e.time,)):
        inst_name, event_name = evt.instance, evt.event
        if inst_name in in_ports and inst_name not in by_name:
            inst_name, event_name = in_ports[inst_name]
        if inst_name not in by_name:
            raise SynthesisError(f"stimulus targets unknown instance or port '{evt.instance}'")
        deliver(Fraction(evt.time), inst_name, event_name, evt.payload)

    def emit(rt: _Rt, event: str, payload: int | None) -> None:
        now = rt.cycle * rt.tick
        trace.events.append(CycleEventRecord(rt.spec.name, rt.cycle, now, event, payload))
        for dst_inst, dst_event in fanout.get((rt.spec.name, event), []):
            deliver(now, dst_inst, dst_event, payload)

    def decide_followup(rt: _Rt) -> None:
        rt.countdown = None
        rt.target = None
        state = rt.spec.ir.component.state(rt.state)
        for g in state.guards:
            if ex.evaluate(g.guard, rt.vars):
                rt.countdown, rt.target = 1, g.target
                return
        if state.timed is not None:
            if state.timed.spec.kind is TimingKind.DELTA:
                rt.countdown, rt.target = 1, state.timed.target
            elif state.timed.spec.kind is TimingKind.FINITE:
                rt.countdown = rt.spec.timer_cycles[rt.state]
                rt.target = state.timed.target

    def enter(rt: _Rt, state_name: str) -> None:
        rt.state = state_name
        rt.countdown = None
        rt.target = None
        trace.entries.append(
            CycleStateEntry(rt.spec.name, rt.cycle, rt.cycle * rt.tick, state_name)
        )
        state = rt.spec.ir.component.state(state_name)
        for action in state.entry:
            if isinstance(action, Notify):
                emit(rt, action.event, None)
            elif isinstance(action, Export):
                emit(rt, action.event, ex.evaluate(action.value, rt.vars))
            elif isinstance(action, Assign):
                rt.vars[action.var] = ex.evaluate(action.value, rt.vars)
            elif isinstance(action, InvokeMcc):
                impl = mcc_impls.get(action.mcc)
                args = tuple(rt.vars[a] for a in action.args)
                results = impl(args) if impl else tuple(0 for _ in action.results)
                rt.busy += HANDSHAKE_CYCLES + mcc_latencies.get(action.mcc, 1)
                rt.staged.extend(
                    (name, ex.wrap_signed(v)) for name, v in zip(action.results, results)
                )
        if rt.busy > 0:
            rt.pending_followup = True
        else:
            decide_followup(rt)

    def step(rt: _Rt, elapsed: int) -> None:
        """Process the clock edge an instance just advanced to; `elapsed` is
        the number of edges since its last processed one (idle edges between
        carry no activity, so counters advance in bulk)."""
        now = rt.cycle * rt.tick
        if rt.busy == 0:
            # Sample pending handshakes; drop non-imported arrivals, consume
            # the first imported one (external beats timer at the same edge).
            state = rt.spec.ir.component.state(rt.state)
            imported = {imp.event: imp.target for imp in state.imports}
            while rt.queue and rt.queue[0][0] < now:
                avail, s, event, payload = rt.queue[0]
                if event in imported:
                    rt.queue.pop(0)
                    decl = rt.spec.ir.component.event(event)
                    if decl.is_data:
                        rt.vars[event] = ex.wrap_signed(payload if payload is not None else 0)
                    enter(rt, imported[event])
                    return
                rt.queue.pop(0)
                trace.dropped.append(
                    CycleEventRecord(rt.spec.name, rt.cycle, now, event, payload)
                )
        if rt.busy > 0:
            rt.busy -= elapsed
            if rt.busy == 0:
                for name, value in rt.staged:
                    rt.vars[name] = value
                rt.staged.clear()
                rt.pending_followup = False
                decide_followup(rt)
            return
        if rt.countdown is not None:
            rt.countdown -= elapsed
            if rt.countdown == 0:
                enter(rt, rt.target)

    def next_active_cycle(rt: _Rt) -> int | None:
        candidates = []
        if rt.busy > 0:
            candidates.append(rt.cycle + rt.busy)
        else:
            if rt.countdown is not None:
                candidates.append(rt.cycle + rt.countdown)
            if rt.queue:
                rt.queue.sort(key=lambda item: (item[0], item[1]))
                avail = rt.queue[0][0]
                # First edge strictly after the arrival time.
                k = int(avail / rt.tick) + 1
                candidates.append(max(rt.cycle + 1, k))
        live = [k for k in candidates if k <= max_cycles]
        return min(live) if live else None

    for rt in rts:  # reset: all instances enter their initial state at cycle 0
        enter(rt, rt.spec.ir.component.initial)

    while True:
        best: tuple[Fraction, int] | None = None
        for i, rt in enumerate(rts):
            k = next_active_cycle(rt)
            if k is not None:
                key = (k * rt.tick, i)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, i = best
        rt = rts[i]
        k = next_active_cycle(rt)
        elapsed = k - rt.cycle
        rt.cycle = k
        step(rt, elapsed)

    return trace


# --- Reference comparison ----------------------------------------------------

def compare_with_reference(
    ref: EventTrace,
    cyc: CycleTrace,
    sys_ir: SystemIr,
    handshake_cycles: int = HANDSHAKE_CYCLES,
) -> list[str]:
    """Check that the cycle-level trace matches the reference semantics.

    Returns human-readable mismatch descriptions (empty list = equivalent).
    Each FSM timestamp must land within one clock period of the reference
    time, plus one cycle per zero-time step in the same instant and the
    handshake overhead.
    """
    problems: list[str] = []
    for spec in sys_ir.instances:
        tick = 1 / spec.freq
        ref_entries = ref.entries_for(spec.name)
        cyc_entries = cyc.entries_for(spec.name)
        if [e.state for e in ref_entries] != [e.state for e in cyc_entries]:
            problems.append(
                f"{spec.name}: state sequence differs: "
                f"{[e.state for e in ref_entries]} vs {[e.state for e in cyc_entries]}"
            )
            continue
        zero_steps = 0
        for i, (r, c) in enumerate(zip(ref_entries, cyc_entries)):
            if i > 0 and ref_entries[i - 1].time == r.time:
                zero_steps += 1
            else:
                zero_steps = 0
            tolerance = spec.period + (1 + zero_steps + handshake_cycles) * tick
            dev = abs(Fraction(c.time) - Fraction(r.time))
            if dev > tolerance:
                problems.append(
                    f"{spec.name}: entry #{i} ({r.state}) at {float(c.time):.9f}s "
                    f"vs reference {float(r.time):.9f}s (deviation {float(dev):.9f}s "
                    f"> tolerance {float(tolerance):.9f}s)"
                )
        ref_events = [(e.event, e.payload) for e in ref.events_for(spec.name)]
        cyc_events = [(e.event, e.payload) for e in cyc.events_for(spec.name)]
        if ref_events != cyc_events:
            problems.append(
                f"{spec.name}: output event sequence differs: {ref_events} vs {cyc_events}"
            )
    return problems


# --- VCD export --------------------------------------------------------------

def write_vcd(trace: CycleTrace, sys_ir: SystemIr, path_or_file) -> None:
    """Dump state changes and event strobes as a VCD waveform (1 ns timescale)."""
    if hasattr(path_or_file, "write"):
        _write_vcd(trace, sys_ir, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as handle:
            _write_vcd(trace, sys_ir, handle)


def _vcd_id(index: int) -> str:
    chars = "".join(chr(c) for c in range(33, 127))
    out = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, len(chars))
        out = chars[rem] + out
    return out


def _write_vcd(trace: CycleTrace, sys_ir: SystemIr, handle) -> None:
    handle.write("$timescale 1ns $end\n")
    ids: dict[tuple[str, str], str] = {}
    counter = 0
    for spec in sys_ir.instances:
        handle.write(f"$scope module {spec.name} $end\n")
        ids[(spec.name, "__state")] = _vcd_id(counter)
        counter += 1
        handle.write(f"$var integer 32 {ids[(spec.name, '__state')]} state $end\n")
        for e in spec.ir.component.events:
            ids[(spec.name, e.name)] = _vcd_id(counter)
            counter += 1
            handle.write(f"$var wire 1 {ids[(spec.name, e.name)]} ev_{e.name} $end\n")
        handle.write("$upscope $end\n")
    handle.write("$enddefinitions $end\n")

    changes: dict[int, list[str]] = {}

    def at(time: Fraction) -> list[str]:
        ns = round(time * 10**9)
        return changes.setdefault(ns, [])

    for entry in trace.entries:
        spec = sys_ir.instance(entry.instance)
        code = spec.ir.state_codes[entry.state]
        at(entry.time).append(f"b{code:b} {ids[(entry.instance, '__state')]}")
    for evt in trace.events:
        at(evt.time).append(f"1{ids[(evt.instance, evt.event)]}")
        spec = sys_ir.instance(evt.instance)
        at(evt.time + 1 / spec.freq).append(f"0{ids[(evt.instance, evt.event)]}")

    for ns in sorted(changes):
        handle.write(f"#{ns}\n")
        for line in changes[ns]:
            handle.write(line + "\n")


# --- Hardware text emission ---------------------------------------------------

def emit_rtl(sys_ir: SystemIr) -> str:
    """Emit a deterministic, self-contained hardware description: one module
    per component FSM, a shared timer module, a 2-flop synchronizer module,
    and a top-level module wiring the instances."""
    out = io.StringIO()
    out.write(f"// Generated FSM implementation of system '{sys_ir.system.name}'.\n")
    out.write("`timescale 1ns/1ps\n\n")
    _emit_timer_module(out)
    _emit_sync_module(out)
    emitted: set[str] = set()
    for spec in sys_ir.instances:
        comp = spec.ir.component
        if comp.name not in emitted:
            emitted.add(comp.name)
            _emit_component_module(out, spec.ir)
    _emit_top_module(out, sys_ir)
    return out.getvalue()


def _emit_timer_module(out) -> None:
    out.write(
        "module psm_timer #(\n"
        "  parameter integer CYCLES = 1\n"
        ") (\n"
        "  input wire clk,\n"
        "  input wire rst,\n"
        "  input wire start,\n"
        "  output reg done\n"
        ");\n"
        "  reg [63:0] count;\n"
        "  reg running;\n"
        "  always @(posedge clk) begin\n"
        "    if (rst) begin\n"
        "      count <= 64'd0;\n"
        "      running <= 1'b0;\n"
        "      done <= 1'b0;\n"
        "    end else begin\n"
        "      done <= 1'b0;\n"
        "      if (start) begin\n"
        "        count <= 64'd0;\n"
        "        running <= 1'b1;\n"
        "        if (CYCLES == 1) begin\n"
        "          done <= 1'b1;\n"
        "          running <= 1'b0;\n"
        "        end\n"
        "      end else if (running) begin\n"
        "        if (count == CYCLES - 2) begin\n"
        "          done <= 1'b1;\n"
        "          running <= 1'b0;\n"
        "        end else begin\n"
        "          count <= count + 64'd1;\n"
        "        end\n"
        "      end\n"
        "    end\n"
        "  end\n"
        "endmodule\n\n"
    )


def _emit_sync_module(out) -> None:
    out.write(
        "module psm_sync #(\n"
        "  parameter integer WIDTH = 1\n"
        ") (\n"
        "  input wire clk,\n"
        "  input wire [WIDTH-1:0] d,\n"
        "  output reg [WIDTH-1:0] q\n"
        ");\n"
        "  reg [WIDTH-1:0] meta;\n"
        "  always @(posedge clk) begin\n"
        "    meta <= d;\n"
        "    q <= meta;\n"
        "  end\n"
        "endmodule\n\n"
    )


def _emit_component_module(out, ir: FsmIr) -> None:
    comp = ir.component
    ports = ["  input wire clk", "  input wire rst"]
    for e in comp.events:
        if e.direction is Direction.INPUT:
            ports.append(f"  input wire ev_{e.name}_req")
            ports.append(f"  output reg ev_{e.name}_ack")
            if e.is_data:
                ports.append(f"  input wire signed [{e.payload_width - 1}:0] ev_{e.name}_data")
        else:
            ports.append(f"  output reg ev_{e.name}_req")
            ports.append(f"  input wire ev_{e.name}_ack")
            if e.is_data:
                ports.append(f"  output reg signed [{e.payload_width - 1}:0] ev_{e.name}_data")
    for m in comp.mccs:
        ports.append(f"  output reg mcc_{m.name}_start")
        ports.append(f"  input wire mcc_{m.name}_done")
        for i in range(m.n_args):
            ports.append(f"  output reg signed [31:0] mcc_{m.name}_arg{i}")
        for i in range(m.n_results):
            ports.append(f"  input wire signed [31:0] mcc_{m.name}_res{i}")

    out.write(f"module psm_{comp.name} #(\n")
    out.write("  parameter integer CLK_FREQ_HZ = 100000000\n")
    out.write(") (\n")
    out.write(",\n".join(ports))
    out.write("\n);\n")

    # State encoding: source states first, then generated call-wait states.
    codes = dict(ir.state_codes)
    wait_states: dict[tuple[str, int], int] = {}
    for s in comp.states:
        invokes = [a for a in s.entry if isinstance(a, InvokeMcc)]
        for i, _ in enumerate(invokes):
            wait_states[(s.name, i)] = len(codes) + len(wait_states)
    width = max(1, (len(codes) + len(wait_states) - 1).bit_length())
    for name, code in codes.items():
        out.write(f"  localparam [{width - 1}:0] S_{name.upper()} = {code};\n")
    for (state, i), code in wait_states.items():
        out.write(f"  localparam [{width - 1}:0] S_{state.upper()}_CALL{i} = {code};\n")

    # Timer cycle counts from the frequency generic: round-half-up, minimum 1.
    for t in ir.timers:
        num, den = Fraction(t.duration).as_integer_ratio()
        raw = f"(2 * CLK_FREQ_HZ * {num} + {den}) / (2 * {den})"
        out.write(
            f"  localparam integer {t.generic} = ({raw}) < 1 ? 1 : ({raw});\n"
        )
    out.write("\n")
    out.write(f"  reg [{width - 1}:0] state;\n")
    out.write("  reg do_entry;\n")
    for v in comp.variables:
        out.write(f"  reg signed [{v.width - 1}:0] {v.name};\n")
    for e in comp.events:
        if e.direction is Direction.INPUT:
            out.write(f"  wire ev_{e.name}_pending = ev_{e.name}_req != ev_{e.name}_ack;\n")
            if e.is_data:
                out.write(f"  reg signed [{e.payload_width - 1}:0] {e.name};\n")
    for t in ir.timers:
        out.write(f"  reg tmr_{t.state}_start;\n")
        out.write(f"  wire tmr_{t.state}_done;\n")
        out.write(
            f"  psm_timer #(.CYCLES({t.generic})) u_tmr_{t.state} "
            f"(.clk(clk), .rst(rst), .start(tmr_{t.state}_start), .done(tmr_{t.state}_done));\n"
        )
    out.write("\n  always @(posedge clk) begin\n")
    out.write("    if (rst) begin\n")
    out.write(f"      state <= S_{comp.initial.upper()};\n")
    out.write("      do_entry <= 1'b1;\n")
    for v in comp.variables:
        out.write(f"      {v.name} <= {v.init};\n")
    for e in comp.events:
        if e.direction is Direction.INPUT:
            out.write(f"      ev_{e.name}_ack <= 1'b0;\n")
        else:
            out.write(f"      ev_{e.name}_req <= 1'b0;\n")
            if e.is_data:
                out.write(f"      ev_{e.name}_data <= 0;\n")
    for m in comp.mccs:
        out.write(f"      mcc_{m.name}_start <= 1'b0;\n")
    for t in ir.timers:
        out.write(f"      tmr_{t.state}_start <= 1'b0;\n")
    out.write("    end else begin\n")
    for t in ir.timers:
        out.write(f"      tmr_{t.state}_start <= 1'b0;\n")
    for m in comp.mccs:
        out.write(f"      mcc_{m.name}_start <= 1'b0;\n")
    out.write("      case (state)\n")
    for s in comp.states:
        _emit_state_case(out, ir, s, wait_states, width)
    out.write("        default: begin\n")
    out.write(f"          state <= S_{comp.initial.upper()};\n")
    out.write("          do_entry <= 1'b1;\n")
    out.write("        end\n")
    out.write("      endcase\n")
    out.write("    end\n")
    out.write("  end\n")
    out.write("endmodule\n\n")


def _emit_state_case(out, ir: FsmIr, s, wait_states, width) -> None:
    comp = ir.component
    invokes = [a for a in s.entry if isinstance(a, InvokeMcc)]
    has_timer = s.timed is not None and s.timed.spec.kind is TimingKind.FINITE
    ind = "          "
    out.write(f"        S_{s.name.upper()}: begin\n")
    out.write(f"{ind}if (do_entry) begin\n")
    for action in s.entry:
        if isinstance(action, Notify):
            out.write(f"{ind}  ev_{action.event}_req <= ~ev_{action.event}_req;\n")
        elif isinstance(action, Export):
            out.write(f"{ind}  ev_{action.event}_data <= {ex.to_text(action.value)};\n")
            out.write(f"{ind}  ev_{action.event}_req <= ~ev_{action.event}_req;\n")
        elif isinstance(action, Assign):
            out.write(f"{ind}  {action.var} <= {ex.to_text(action.value)};\n")
    if invokes:
        first = invokes[0]
        for i, arg in enumerate(first.args):
            out.write(f"{ind}  mcc_{first.mcc}_arg{i} <= {arg};\n")
        out.write(f"{ind}  mcc_{first.mcc}_start <= 1'b1;\n")
        out.write(f"{ind}  state <= S_{s.name.upper()}_CALL0;\n")
    else:
        if has_timer:
            out.write(f"{ind}  tmr_{s.name}_start <= 1'b1;\n")
        out.write(f"{ind}  do_entry <= 1'b0;\n")
    out.write(f"{ind}end else begin\n")
    _emit_dwell(out, ir, s, ind + "  ")
    out.write(f"{ind}end\n")
    out.write("        end\n")
    for i, inv in enumerate(invokes):
        out.write(f"        S_{s.name.upper()}_CALL{i}: begin\n")
        out.write(f"{ind}if (mcc_{inv.mcc}_done) begin\n")
        for j, res in enumerate(inv.results):
            out.write(f"{ind}  {res} <= mcc_{inv.mcc}_res{j};\n")
        if i + 1 < len(invokes):
            nxt = invokes[i + 1]
            for j, arg in enumerate(nxt.args):
                out.write(f"{ind}  mcc_{nxt.mcc}_arg{j} <= {arg};\n")
            out.write(f"{ind}  mcc_{nxt.mcc}_start <= 1'b1;\n")
            out.write(f"{ind}  state <= S_{s.name.upper()}_CALL{i + 1};\n")
        else:
            if has_timer:
                out.write(f"{ind}  tmr_{s.name}_start <= 1'b1;\n")
            out.write(f"{ind}  state <= S_{s.name.upper()};\n")
            out.write(f"{ind}  do_entry <= 1'b0;\n")
        out.write(f"{ind}end\n")
        out.write("        end\n")


def _emit_dwell(out, ir: FsmIr, s, ind) -> None:
    comp = ir.component
    branches: list[tuple[str, list[str]]] = []
    for imp in s.imports:
        decl = comp.event(imp.event)
        body = [f"ev_{imp.event}_ack <= ev_{imp.event}_req;"]
        if decl.is_data:
            body.append(f"{imp.event} <= ev_{imp.event}_data;")
        body += [f"state <= S_{imp.target.upper()};", "do_entry <= 1'b1;"]
        branches.append((f"ev_{imp.event}_pending", body))
    for g in s.guards:
        branches.append(
            (ex.to_text(g.guard), [f"state <= S_{g.target.upper()};", "do_entry <= 1'b1;"])
        )
    if s.timed is not None and s.timed.spec.kind is TimingKind.DELTA:
        branches.append(("1'b1", [f"state <= S_{s.timed.target.upper()};", "do_entry <= 1'b1;"]))
    elif s.timed is not None and s.timed.spec.kind is TimingKind.FINITE:
        branches.append(
            (f"tmr_{s.name}_done", [f"state <= S_{s.timed.target.upper()};", "do_entry <= 1'b1;"])
        )
    if not branches:
        out.write(f"{ind}state <= state;\n")
        return
    for i, (cond, body) in enumerate(branches):
        kw = "if" if i == 0 else "end else if"
        out.write(f"{ind}{kw} ({cond}) begin\n")
        for line in body:
            out.write(f"{ind}  {line}\n")
    out.write(f"{ind}end\n")


def _emit_top_module(out, sys_ir: SystemIr) -> None:
    system = sys_ir.system
    ports = ["  input wire clk", "  input wire rst"]
    port_decls: list[str] = []
    comps = {spec.ir.component.name: spec.ir.component for spec in sys_ir.instances}
    inst_comp = {spec.name: spec.ir.component for spec in sys_ir.instances}
    for p in system.ports:
        decl = inst_comp[p.instance].event(p.event)
        if p.direction is Direction.INPUT:
            ports.append(f"  input wire {p.name}_req")
            ports.append(f"  output wire {p.name}_ack")
            if decl.is_data:
                ports.append(f"  input wire signed [{decl.payload_width - 1}:0] {p.name}_data")
        else:
            ports.append(f"  output wire {p.name}_req")
            ports.append(f"  input wire {p.name}_ack")
            if decl.is_data:
                ports.append(f"  output wire signed [{decl.payload_width - 1}:0] {p.name}_data")
    out.write(f"module psm_system_{system.name} (\n")
    out.write(",\n".join(ports))
    out.write("\n);\n")

    # Internal nets per instance event pin.
    for spec in sys_ir.instances:
        for e in spec.ir.component.events:
            out.write(f"  wire {spec.name}__{e.name}_req;\n")
            out.write(f"  wire {spec.name}__{e.name}_ack;\n")
            if e.is_data:
                out.write(
                    f"  wire signed [{e.payload_width - 1}:0] {spec.name}__{e.name}_data;\n"
                )

    freq_of = {spec.name: spec.freq for spec in sys_ir.instances}
    sync_count = 0
    for c in system.connections:
        src = f"{c.src_instance}__{c.src_event}"
        dst = f"{c.dst_instance}__{c.dst_event}"
        decl = inst_comp[c.src_instance].event(c.src_event)
        if freq_of[c.src_instance] != freq_of[c.dst_instance]:
            # Clock-domain crossing: 2-flop synchronizer on the request toggle.
            out.write(
                f"  psm_sync #(.WIDTH(1)) u_sync{sync_count} "
                f"(.clk(clk), .d({src}_req), .q({dst}_req));\n"
            )
            sync_count += 1
        else:
            out.write(f"  assign {dst}_req = {src}_req;\n")
        out.write(f"  assign {src}_ack = {dst}_ack;\n")
        if decl.is_data:
            out.write(f"  assign {dst}_data = {src}_data;\n")
    for p in system.ports:
        net = f"{p.instance}__{p.event}"
        decl = inst_comp[p.instance].event(p.event)
        if p.direction is Direction.INPUT:
            out.write(f"  assign {net}_req = {p.name}_req;\n")
            out.write(f"  assign {p.name}_ack = {net}_ack;\n")
            if decl.is_data:
                out.write(f"  assign {net}_data = {p.name}_data;\n")
        else:
            out.write(f"  assign {p.name}_req = {net}_req;\n")
            out.write(f"  assign {net}_ack = {p.name}_ack;\n")
            if decl.is_data:
                out.write(f"  assign {p.name}_data = {net}_data;\n")

    for spec in sys_ir.instances:
        comp = spec.ir.component
        conns = [".clk(clk)", ".rst(rst)"]
        for e in comp.events:
            conns.append(f".ev_{e.name}_req({spec.name}__{e.name}_req)")
            conns.append(f".ev_{e.name}_ack({spec.name}__{e.name}_ack)")
            if e.is_data:
                conns.append(f".ev_{e.name}_data({spec.name}__{e.name}_data)")
        for m in comp.mccs:
            conns.append(f".mcc_{m.name}_start()")
            conns.append(f".mcc_{m.name}_done(1'b0)")
            for i in range(m.n_args):
                conns.append(f".mcc_{m.name}_arg{i}()")
            for i in range(m.n_results):
                conns.append(f".mcc_{m.name}_res{i}(32'd0)")
        freq_hz = int(spec.freq)
        out.write(
            f"  psm_{comp.name} #(.CLK_FREQ_HZ({freq_hz})) u_{spec.name} (\n    "
            + ",\n    ".join(conns)
            + "\n  );\n"
        )
    out.write("endmodule\n")
