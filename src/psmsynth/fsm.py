"""State-based synthesis: instantiate each periodic state machine of a system
as a cycle-accurate FSM, interpret the FSMs for verification against the
reference simulator, and emit a synthesizable hardware description.

Synthesis reads each component directly and checks only the components the
system instantiates, each once.  `emit_rtl` needs clocks of whole Hz;
`interpret` takes any rational clock.

Conventions (documented, checked by tests):
  * Timers count 0..N-1 and assert done during cycle N-1, so a Finite spec of
    N cycles dwells exactly N cycles.
  * Delta specs and guard follow-ups take exactly one clock cycle.
  * Event handshakes are 2-phase request/acknowledge; an event emitted at time
    t becomes visible to a receiver at its first clock edge strictly after t.
  * Each computation-call (MCC) invocation occupies its start/done handshake
    (2 cycles) plus the configured execution latency; incoming events stall
    (are back-pressured) while an instance is mid-call.
  * The interpreter puts every clock edge and stimulus arrival of a run on
    one integer time base: `base` is the lcm of the clock numerators (a tick
    is q/p s) and of the stimulus times' denominators, and edge k of an
    instance lies at k * base*q/p.  Edges are ordered and arrivals sampled
    in integers; a Fraction time is built only for a recorded entry, event
    or dropped event.  A run is bounded by an edge count, by a time horizon
    (edges strictly before it, as the reference simulator stops), or both.
"""

from __future__ import annotations

import heapq
import io
import math
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from . import expr as ex
from .model import (
    Assign,
    Direction,
    Emit,
    EventTrace,
    InvokeMcc,
    PsmComponent,
    PsmSystem,
    SimulationError,
    TimingKind,
    TraceEvent,
    _check_mcc_names,
    _fanout,
    _has_timer,
    _route_stimulus,
    _seconds,
    _state_code,
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


# --- Synthesis ---------------------------------------------------------------

@dataclass(frozen=True)
class FsmInstance:
    """One FSM: a state's code is its position in `component.states`, and
    each state with a finite timing spec has a timer of `timer_cycles`."""

    name: str
    component: PsmComponent
    freq: Fraction  # Hz
    timer_cycles: Mapping[str, int]  # state name -> resolved cycle count
    period: Fraction  # seconds


@dataclass(frozen=True)
class SystemIr:
    system: PsmSystem
    instances: tuple[FsmInstance, ...]


def _reject_delta_cycles(comp: PsmComponent) -> None:
    """A cycle of unconditional zero-time transitions can never settle."""
    edges: dict[str, list[str]] = {}
    for s in comp.states:
        targets = []
        if s.timed is not None and s.timed.kind is TimingKind.DELTA:
            targets.append(s.timed.target)
        for g in s.guards:  # a guard over no variables is a constant
            if not ex.free_vars(g.guard) and ex.compile_expr(g.guard)({}):
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


def _reject_early_result_use(comp: PsmComponent) -> None:
    """The reference simulator applies a call's results at once, the FSM only
    when the call is done, after the state's other entry actions: an action
    after an invoke that reads or writes one of its results means two things."""
    for s in comp.states:
        returned_by: dict[str, str] = {}  # result variable -> computation
        for action in s.entry:
            if isinstance(action, Emit):
                used = set() if action.value is None else ex.free_vars(action.value)
            elif isinstance(action, Assign):
                used = {action.var} | ex.free_vars(action.value)
            else:  # InvokeMcc
                used = {*action.args, *action.results}
            early = sorted(used & returned_by.keys())
            if early:
                raise SynthesisError(
                    f"component {comp.name}: state '{s.name}' uses '{early[0]}' after "
                    f"invoke {returned_by[early[0]]}, which returns it only when the call is done"
                )
            if isinstance(action, InvokeMcc):
                returned_by.update((r, action.mcc) for r in action.results)


def synthesize_system(
    system: PsmSystem,
    components: Mapping[str, PsmComponent],
    freqs: Mapping[str, object],
) -> SystemIr:
    """Instantiate one FSM per instance with its clock-frequency generic (Hz)
    resolved into concrete timer cycle counts.  Only the instantiated
    components are checked, each once; `components` may hold others."""
    report = validate_system(system, components)
    if not report.ok:
        msgs = "; ".join(str(f) for f in report.errors)
        raise SynthesisError(f"system does not validate: {msgs}")
    for name in dict.fromkeys(inst.component for inst in system.instances):
        _reject_delta_cycles(components[name])
        _reject_early_result_use(components[name])
    instances = []
    for inst in system.instances:
        try:
            freq = Fraction(freqs[inst.name])
        except KeyError:
            raise SynthesisError(f"no clock frequency given for instance '{inst.name}'") from None
        if freq <= 0:
            raise SynthesisError(f"instance '{inst.name}' has non-positive frequency {freq}")
        comp = components[inst.component]
        cycles = {
            s.name: time_to_cycles(s.timed.duration, freq)[0] for s in comp.states if _has_timer(s)
        }
        period = comp.period if inst.period_override is None else inst.period_override
        instances.append(FsmInstance(inst.name, comp, freq, cycles, period))
    return SystemIr(system, tuple(instances))


def synthesize_single(comp: PsmComponent, freq, instance_name: str = "dut") -> SystemIr:
    from .model import single_component_system

    system = single_component_system(comp, instance_name)
    return synthesize_system(system, {comp.name: comp}, {instance_name: freq})


# --- Cycle-level interpretation ----------------------------------------------

@dataclass(slots=True)
class CycleStateEntry:
    instance: str
    cycle: int
    time: Fraction
    state: str


@dataclass(slots=True)
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


class _Rt:
    """Mutable per-instance interpreter state.  Times are integers on the
    run's time base: edge k of this instance lies at `k * unit`, and `last`
    is the last edge it runs.  `done_at` is the edge at which the running
    call ends, `fire_at` the edge at which the pending transition to
    `target` fires; `queue` is a heap of (arrival, seq, event, payload).
    `index`, the instance's position in the system, orders ties on the
    agenda, and `due` is the edge of the instance's live entry, or None.
    `state` is the name of the state the instance is in and `code` its
    component's compiled states (`model._state_code`)."""

    __slots__ = (
        "inst", "index", "code", "unit", "last", "cycle", "state", "vars",
        "queue", "staged", "done_at", "fire_at", "target", "due",
    )

    def __init__(self, inst: FsmInstance, index: int, code, unit: int, last: int):
        self.inst = inst
        self.index = index
        comp = inst.component
        self.code = code
        self.unit = unit
        self.last = last
        self.cycle = 0
        self.state = comp.initial
        self.vars = {v.name: ex.wrap_signed(v.init, v.width) for v in comp.variables}
        self.queue: list[tuple[int, int, str, int | None]] = []
        self.staged: list[tuple[str, int]] = []
        self.done_at: int | None = None
        self.fire_at: int | None = None
        self.target: str | None = None
        self.due: int | None = 0  # the reset edge, until the agenda is built

    def wake(self) -> int | None:
        """The next edge with work: the end of the running call; else the
        pending transition or the first edge strictly after the head arrival."""
        if self.done_at is not None:
            return self.done_at
        k = self.fire_at
        if self.queue:
            arrival = max(self.cycle + 1, self.queue[0][0] // self.unit + 1)
            if k is None or arrival < k:
                k = arrival
        return k


def interpret(
    sys_ir: SystemIr,
    stimulus: Iterable[TraceEvent],
    max_cycles: int | None = None,
    mcc_latencies: Mapping[str, int] | None = None,
    mcc_impls: Mapping[str, object] | None = None,
    *,
    horizon: Fraction | None = None,
) -> CycleTrace:
    """Execute the synthesized FSMs cycle-accurately until every instance has
    run its last clock edge or gone permanently idle.  An instance runs the
    edges up to `max_cycles`, and those strictly before `horizon` seconds, as
    `model.simulate` stops before its horizon; at least one bound is needed.

    Stimulus timestamps are seconds; an event at time t is sampled at the
    target's first clock edge strictly after t.  Stimulus and MCC results are
    checked as `model.simulate` checks them, with a SimulationError, and so
    is a negative `max_cycles`, a `horizon` that is not positive, an MCC
    latency that is not a non-negative integer, and a latency or
    implementation for an MCC that no component of the run declares.
    """
    if max_cycles is None and horizon is None:
        raise TypeError("interpret needs max_cycles or horizon")
    if max_cycles is not None and max_cycles < 0:
        raise SimulationError(f"max_cycles must not be negative, got {max_cycles}")
    if horizon is not None and not horizon > 0:
        raise SimulationError(f"horizon must be positive, got {horizon}")
    mcc_latencies = dict(mcc_latencies or {})
    for name, latency in mcc_latencies.items():
        if not isinstance(latency, numbers.Integral) or latency < 0:
            raise SimulationError(f"mcc '{name}' latency must be a non-negative integer, got {latency!r}")
    mcc_impls = dict(mcc_impls or {})
    comps = {spec.name: spec.component for spec in sys_ir.instances}
    routed = [
        (Fraction(time), inst_name, event, payload)
        for time, inst_name, event, payload in _route_stimulus(sys_ir.system, comps, stimulus)
    ]
    # One integer time base for every clock edge and stimulus arrival.
    base = math.lcm(
        *(spec.freq.numerator for spec in sys_ir.instances), *(t.denominator for t, *_ in routed)
    )
    used = {id(spec.component): spec.component for spec in sys_ir.instances}
    _check_mcc_names([*mcc_latencies, *mcc_impls], used.values())
    code = {key: _state_code(comp, mcc_impls) for key, comp in used.items()}
    rts = []
    for i, spec in enumerate(sys_ir.instances):
        last = max_cycles
        if horizon is not None:
            x = Fraction(horizon) * spec.freq
            before = (x.numerator - 1) // x.denominator  # the last edge k with k < x
            last = before if last is None else min(last, before)
        unit = base * spec.freq.denominator // spec.freq.numerator
        rts.append(_Rt(spec, i, code[id(spec.component)], unit, last))
    by_name = {rt.inst.name: rt for rt in rts}
    fanout = _fanout(sys_ir.system)
    trace = CycleTrace()
    # One agenda, a heap of (edge time, instance index, edge): an entry is
    # live while its edge is its instance's `due`, and skipped otherwise.
    agenda: list[tuple[int, int, int]] = []
    seq = 0

    def schedule(rt: _Rt, k: int | None) -> None:
        if k is not None and k <= rt.last:
            rt.due = k
            heapq.heappush(agenda, (k * rt.unit, rt.index, k))
        else:
            rt.due = None

    def deliver(arrival: int, inst_name: str, event: str, payload: int | None) -> None:
        nonlocal seq
        rt = by_name[inst_name]
        heapq.heappush(rt.queue, (arrival, seq, event, payload))
        seq += 1
        if rt.done_at is None:  # a running call's end waits for no arrival
            k = arrival // rt.unit + 1  # > cycle, as nothing arrives before the receiver's edge
            if rt.due is None or k < rt.due:
                schedule(rt, k)

    for time, inst_name, event, payload in routed:
        deliver(time.numerator * (base // time.denominator), inst_name, event, payload)

    seconds = _seconds(base)

    def emit(rt: _Rt, now: int, time: Fraction, event: str, payload: int | None) -> None:
        trace.events.append(CycleEventRecord(rt.inst.name, rt.cycle, time, event, payload))
        for dst_inst, dst_event in fanout.get((rt.inst.name, event), []):
            deliver(now, dst_inst, dst_event, payload)

    def arm(rt: _Rt) -> None:
        """Schedule the state's transition: a true guard or a delta spec fires
        on the next edge, a finite spec when its timer runs out."""
        _, guards, _, target, timer = rt.code[rt.state]
        for guard, to in guards:
            if guard(rt.vars):
                target = to
                break
        if target is not None:
            rt.fire_at, rt.target = rt.cycle + 1, target
        elif timer is not None:
            rt.fire_at, rt.target = rt.cycle + rt.inst.timer_cycles[rt.state], timer
        else:
            rt.fire_at = rt.target = None

    def enter(rt: _Rt, state_name: str) -> None:
        rt.state = state_name
        now = rt.cycle * rt.unit
        time = seconds(now)
        trace.entries.append(CycleStateEntry(rt.inst.name, rt.cycle, time, state_name))
        busy = 0
        for kind, name, fn in rt.code[state_name][0]:
            if kind == "emit":
                emit(rt, now, time, name, fn(rt.vars))
            elif kind == "assign":
                rt.vars[name] = fn(rt.vars)
            else:
                rt.staged += fn(rt.vars)
                busy += HANDSHAKE_CYCLES + mcc_latencies.get(name, 1)
        if busy:
            rt.done_at = rt.cycle + busy
        else:
            arm(rt)

    def step(rt: _Rt) -> None:
        """Process the clock edge an instance just advanced to."""
        if rt.done_at is not None:  # the running call completes
            rt.done_at = None
            rt.vars.update(rt.staged)
            rt.staged.clear()
            arm(rt)
            return
        # Sample pending handshakes; drop non-imported arrivals, consume the
        # first imported one (external beats timer at the same edge).
        now = rt.cycle * rt.unit
        imports = rt.code[rt.state][2]
        while rt.queue and rt.queue[0][0] < now:
            _, _, event, payload = heapq.heappop(rt.queue)
            target = imports.get(event)
            if target is not None:
                if payload is not None:
                    rt.vars[event] = payload
                enter(rt, target)
                return
            trace.dropped.append(CycleEventRecord(rt.inst.name, rt.cycle, seconds(now), event, payload))
        if rt.fire_at == rt.cycle:
            enter(rt, rt.target)

    for rt in rts:  # reset: all instances enter their initial state at cycle 0
        enter(rt, rt.state)
    for rt in rts:
        schedule(rt, rt.wake())
    while agenda:
        _, i, k = heapq.heappop(agenda)
        rt = rts[i]
        if k == rt.due:  # after a step, only the stepped instance moves
            rt.cycle = k
            step(rt)
            schedule(rt, rt.wake())
    return trace


# --- Reference comparison ----------------------------------------------------

def compare_with_reference(
    ref: EventTrace,
    cyc: CycleTrace,
    sys_ir: SystemIr,
) -> list[str]:
    """Check that the cycle-level trace matches the reference semantics.

    Returns human-readable mismatch descriptions (empty list = equivalent).
    Each FSM entry time must lie within a tolerance of the reference time:
    the instance's period (the component's declared `period` unless the
    system overrides it; 500 ms for mhr), plus 1 + z + `HANDSHAKE_CYCLES`
    cycles of the instance's clock, z being the number of zero-time steps
    before the entry in the same instant.
    """
    problems: list[str] = []
    ref_entries, ref_events = _by_instance(ref.state_entries), _by_instance(ref.events)
    cyc_entries, cyc_events = _by_instance(cyc.entries), _by_instance(cyc.events)
    for spec in sys_ir.instances:
        refs, cycs = ref_entries.get(spec.name, []), cyc_entries.get(spec.name, [])
        ref_states = [e.state for e in refs]
        cyc_states = [e.state for e in cycs]
        if ref_states != cyc_states:
            problems.append(
                f"{spec.name}: state sequence differs{_divergence(ref_states, cyc_states)}"
            )
            continue
        tolerances: dict[int, tuple[int, int]] = {}  # zero-time steps -> tolerance ratio
        zero_steps = 0
        previous = None
        for i, (r, c) in enumerate(zip(refs, cycs)):
            rn, rd = r.time.as_integer_ratio()
            zero_steps = zero_steps + 1 if (rn, rd) == previous else 0
            previous = rn, rd
            if zero_steps not in tolerances:
                tolerances[zero_steps] = (
                    spec.period + Fraction(1 + zero_steps + HANDSHAKE_CYCLES) / spec.freq
                ).as_integer_ratio()
            tn, td = tolerances[zero_steps]
            cn, cd = c.time.as_integer_ratio()
            if abs(cn * rd - rn * cd) * td > tn * cd * rd:  # |c - r| > tolerance
                dev, tolerance = abs(c.time - r.time), Fraction(tn, td)
                problems.append(
                    f"{spec.name}: entry #{i} ({r.state}) at {float(c.time):.9f}s "
                    f"vs reference {float(r.time):.9f}s (deviation {float(dev):.9f}s "
                    f"> tolerance {float(tolerance):.9f}s)"
                )
        ref_out = [(e.event, e.payload) for e in ref_events.get(spec.name, [])]
        cyc_out = [(e.event, e.payload) for e in cyc_events.get(spec.name, [])]
        if ref_out != cyc_out:
            problems.append(
                f"{spec.name}: output event sequence differs{_divergence(ref_out, cyc_out)}"
            )
    return problems


def _by_instance(records: Iterable) -> dict[str, list]:
    """Records grouped by their instance, each group in record order."""
    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(record.instance, []).append(record)
    return groups


def _divergence(ref: list, cyc: list) -> str:
    """Where two different sequences first differ: the index, the item on
    each side there ('end' past a sequence's end) and both lengths."""
    i = next((i for i, (r, c) in enumerate(zip(ref, cyc)) if r != c), min(len(ref), len(cyc)))
    ref_item, cyc_item = (repr(seq[i]) if i < len(seq) else "end" for seq in (ref, cyc))
    return f" at #{i}: {ref_item} vs {cyc_item} (lengths {len(ref)} vs {len(cyc)})"


# --- VCD export --------------------------------------------------------------

def _vcd_id(index: int) -> str:
    chars = "".join(chr(c) for c in range(33, 127))
    out = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, len(chars))
        out = chars[rem] + out
    return out


def write_vcd(trace: CycleTrace, sys_ir: SystemIr, handle) -> None:
    """Write state changes and event strobes to the text handle as a VCD
    waveform (1 ns timescale)."""
    handle.write("$timescale 1ns $end\n")
    ids: dict[tuple[str, str | None], str] = {}  # (instance, event or None for the state)
    counter = 0
    for spec in sys_ir.instances:
        handle.write(f"$scope module {spec.name} $end\n")
        ids[(spec.name, None)] = _vcd_id(counter)
        counter += 1
        handle.write(f"$var integer 32 {ids[(spec.name, None)]} state $end\n")
        for e in spec.component.events:
            ids[(spec.name, e.name)] = _vcd_id(counter)
            counter += 1
            handle.write(f"$var wire 1 {ids[(spec.name, e.name)]} ev_{e.name} $end\n")
        handle.write("$upscope $end\n")
    handle.write("$enddefinitions $end\n")

    changes: dict[int, list[str]] = {}

    def at(num: int, den: int) -> list[str]:
        """The change list at time num/den seconds, in ns rounded half to
        even, as round() rounds a Fraction."""
        ns, rem = divmod(num * 10**9, den)
        if 2 * rem > den or (2 * rem == den and ns % 2):
            ns += 1
        return changes.setdefault(ns, [])

    # Each change line is built once and shared by all the records it stands for.
    set_state = {
        (spec.name, state.name): f"b{code:b} {ids[(spec.name, None)]}"
        for spec in sys_ir.instances
        for code, state in enumerate(spec.component.states)
    }
    strobe = {key: ("1" + wire, "0" + wire) for key, wire in ids.items()}
    ticks = {spec.name: spec.freq.as_integer_ratio() for spec in sys_ir.instances}
    for entry in trace.entries:
        at(*entry.time.as_integer_ratio()).append(set_state[(entry.instance, entry.state)])
    for evt in trace.events:
        num, den = evt.time.as_integer_ratio()
        p, q = ticks[evt.instance]  # the strobe ends one tick, q/p s, later
        rise, fall = strobe[(evt.instance, evt.event)]
        at(num, den).append(rise)
        at(num * p + den * q, den * p).append(fall)

    body = []
    for ns in sorted(changes):
        body.append(f"#{ns}")
        body += changes[ns]
    body.append("")  # each line ends in a newline
    handle.write("\n".join(body))


# --- Hardware text emission ---------------------------------------------------

def emit_rtl(sys_ir: SystemIr) -> str:
    """Emit a deterministic, self-contained hardware description: one module
    per component FSM, a shared timer module, a 2-flop synchronizer module,
    and a top-level module wiring the instances.  Each clock must be a whole
    number of Hz, as the `CLK_FREQ_HZ` generic is an integer."""
    for spec in sys_ir.instances:
        if spec.freq.denominator != 1:
            raise SynthesisError(
                f"instance '{spec.name}': RTL needs a clock of whole Hz, got {spec.freq} Hz"
            )
    out = io.StringIO()
    out.write(f"// Generated FSM implementation of system '{sys_ir.system.name}'.\n")
    out.write("`timescale 1ns/1ps\n\n")
    _emit_timer_module(out)
    _emit_sync_module(out)
    emitted: set[str] = set()
    for spec in sys_ir.instances:
        if spec.component.name not in emitted:
            emitted.add(spec.component.name)
            _emit_component_module(out, spec.component)
    _emit_top_module(out, sys_ir)
    rtl = out.getvalue()
    _reject_duplicate_declarations(rtl)
    return rtl


# A module header, or one name that a module declares at its two-space
# indent: a port, wire, reg or parameter, or an instance of a `psm_` module.
_DECLARATION = re.compile(
    r"module (\w+)"
    r"|  (?:(?:input|output) )?(?:wire|reg|localparam|parameter)"
    r"(?: (?:signed|integer))?(?: ?\[[^\]]*\])? (\w+)"
    r"|  psm_\w+ (?:#\(.*\) )?(\w+) \("
)


def _reject_duplicate_declarations(rtl: str) -> None:
    """No two modules share a name, and no module declares a name twice, as
    when two states differ only in case, a declaration takes the module's
    clk, rst or do_entry, a variable is named like a generated timer signal,
    or two instance pins make the same `<instance>__<event>` net."""
    modules: set[str] = set()
    for match in filter(None, map(_DECLARATION.match, rtl.splitlines())):
        module, name = match.group(1), match.group(2) or match.group(3)
        if module is not None:
            if module in modules:
                raise SynthesisError(f"two RTL modules are named {module}")
            modules.add(module)
            where, declared = module, set()
        elif name in declared:
            raise SynthesisError(f"RTL module {where} declares {name} twice")
        else:
            declared.add(name)


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


def _handshake_ports(name: str, direction: Direction, width: int | None, driven: str) -> list[str]:
    """Port lines of the req/ack(/data) handshake `name`: the sending side
    drives req and data, the receiving side ack, each as a `driven` output
    ("reg" or "wire")."""
    send, receive = ("input wire", f"output {driven}")
    if direction is Direction.OUTPUT:
        send, receive = receive, send
    ports = [f"  {send} {name}_req", f"  {receive} {name}_ack"]
    if width is not None:
        ports.append(f"  {send} signed [{width - 1}:0] {name}_data")
    return ports


def _emit_component_module(out, comp: PsmComponent) -> None:
    ports = ["  input wire clk", "  input wire rst"]
    for e in comp.events:
        ports += _handshake_ports(f"ev_{e.name}", e.direction, e.payload_width, "reg")
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
    wait_states = [
        (s.name, i)
        for s in comp.states
        for i, _ in enumerate(a for a in s.entry if isinstance(a, InvokeMcc))
    ]
    width = max(1, (len(comp.states) + len(wait_states) - 1).bit_length())
    for code, s in enumerate(comp.states):
        out.write(f"  localparam [{width - 1}:0] S_{s.name.upper()} = {code};\n")
    for code, (state, i) in enumerate(wait_states, len(comp.states)):
        out.write(f"  localparam [{width - 1}:0] S_{state.upper()}_CALL{i} = {code};\n")

    # Timer cycle counts from the frequency generic: round-half-up, minimum 1.
    timed = [s for s in comp.states if _has_timer(s)]
    for s in timed:
        num, den = Fraction(s.timed.duration).as_integer_ratio()
        raw = f"(2 * CLK_FREQ_HZ * {num} + {den}) / (2 * {den})"
        out.write(
            f"  localparam integer CYCLES_{s.name.upper()} = ({raw}) < 1 ? 1 : ({raw});\n"
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
    for s in timed:
        out.write(f"  reg tmr_{s.name}_start;\n")
        out.write(f"  wire tmr_{s.name}_done;\n")
        out.write(
            f"  psm_timer #(.CYCLES(CYCLES_{s.name.upper()})) u_tmr_{s.name} "
            f"(.clk(clk), .rst(rst), .start(tmr_{s.name}_start), .done(tmr_{s.name}_done));\n"
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
    for s in timed:
        out.write(f"      tmr_{s.name}_start <= 1'b0;\n")
    out.write("    end else begin\n")
    for s in timed:
        out.write(f"      tmr_{s.name}_start <= 1'b0;\n")
    for m in comp.mccs:
        out.write(f"      mcc_{m.name}_start <= 1'b0;\n")
    out.write("      case (state)\n")
    for s in comp.states:
        _emit_state_case(out, comp, s)
    out.write("        default: begin\n")
    out.write(f"          state <= S_{comp.initial.upper()};\n")
    out.write("          do_entry <= 1'b1;\n")
    out.write("        end\n")
    out.write("      endcase\n")
    out.write("    end\n")
    out.write("  end\n")
    out.write("endmodule\n\n")


def _emit_state_case(out, comp: PsmComponent, s) -> None:
    """The state's entry arm, then one arm per call that waits for it.  Each
    arm ends alike: it starts the next call, or, after the last, starts the
    timer, returns to the state from a call arm, and clears `do_entry`."""
    invokes = [a for a in s.entry if isinstance(a, InvokeMcc)]
    name = s.name.upper()
    ind = "          "
    for i in range(len(invokes) + 1):
        if i == 0:
            out.write(f"        S_{name}: begin\n{ind}if (do_entry) begin\n")
            for action in s.entry:
                if isinstance(action, Emit):
                    if action.value is not None:
                        out.write(f"{ind}  ev_{action.event}_data <= {ex.to_text(action.value)};\n")
                    out.write(f"{ind}  ev_{action.event}_req <= ~ev_{action.event}_req;\n")
                elif isinstance(action, Assign):
                    out.write(f"{ind}  {action.var} <= {ex.to_text(action.value)};\n")
        else:
            done = invokes[i - 1]
            out.write(f"        S_{name}_CALL{i - 1}: begin\n{ind}if (mcc_{done.mcc}_done) begin\n")
            for j, res in enumerate(done.results):
                out.write(f"{ind}  {res} <= mcc_{done.mcc}_res{j};\n")
        if i < len(invokes):
            nxt = invokes[i]
            for j, arg in enumerate(nxt.args):
                out.write(f"{ind}  mcc_{nxt.mcc}_arg{j} <= {arg};\n")
            out.write(f"{ind}  mcc_{nxt.mcc}_start <= 1'b1;\n")
            out.write(f"{ind}  state <= S_{name}_CALL{i};\n")
        else:
            if _has_timer(s):
                out.write(f"{ind}  tmr_{s.name}_start <= 1'b1;\n")
            if i:
                out.write(f"{ind}  state <= S_{name};\n")
            out.write(f"{ind}  do_entry <= 1'b0;\n")
        if i == 0:
            out.write(f"{ind}end else begin\n")
            _emit_dwell(out, comp, s, ind + "  ")
        out.write(f"{ind}end\n        end\n")


def _emit_dwell(out, comp: PsmComponent, s, ind) -> None:
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
    if s.timed is not None and s.timed.target is not None:  # a delta or a finite spec
        cond = "1'b1" if s.timed.kind is TimingKind.DELTA else f"tmr_{s.name}_done"
        branches.append((cond, [f"state <= S_{s.timed.target.upper()};", "do_entry <= 1'b1;"]))
    if not branches:
        out.write(f"{ind}state <= state;\n")
        return
    for i, (cond, body) in enumerate(branches):
        kw = "if" if i == 0 else "end else if"
        out.write(f"{ind}{kw} ({cond}) begin\n")
        for line in body:
            out.write(f"{ind}  {line}\n")
    out.write(f"{ind}end\n")


def _join(out, src: str, dst: str, is_data: bool, req: str | None = None) -> None:
    """Assign handshake `src`'s request and data to `dst`, and `dst`'s
    acknowledge back; `req`, when given, is the line that carries the request."""
    out.write(req or f"  assign {dst}_req = {src}_req;\n")
    out.write(f"  assign {src}_ack = {dst}_ack;\n")
    if is_data:
        out.write(f"  assign {dst}_data = {src}_data;\n")


def _emit_top_module(out, sys_ir: SystemIr) -> None:
    system = sys_ir.system
    ports = ["  input wire clk", "  input wire rst"]
    inst_comp = {spec.name: spec.component for spec in sys_ir.instances}
    for p in system.ports:
        width = inst_comp[p.instance].event(p.event).payload_width
        ports += _handshake_ports(p.name, p.direction, width, "wire")
    out.write(f"module psm_system_{system.name} (\n")
    out.write(",\n".join(ports))
    out.write("\n);\n")

    # Internal nets per instance event pin.
    for spec in sys_ir.instances:
        for e in spec.component.events:
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
        req = None
        if freq_of[c.src_instance] != freq_of[c.dst_instance]:
            # Clock-domain crossing: 2-flop synchronizer on the request toggle.
            req = (
                f"  psm_sync #(.WIDTH(1)) u_sync{sync_count} "
                f"(.clk(clk), .d({src}_req), .q({dst}_req));\n"
            )
            sync_count += 1
        _join(out, src, dst, inst_comp[c.src_instance].event(c.src_event).is_data, req)
    for p in system.ports:
        net = f"{p.instance}__{p.event}"
        is_data = inst_comp[p.instance].event(p.event).is_data
        if p.direction is Direction.INPUT:
            _join(out, p.name, net, is_data)
        else:
            _join(out, net, p.name, is_data)

    for spec in sys_ir.instances:
        comp = spec.component
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
        out.write(
            f"  psm_{comp.name} #(.CLK_FREQ_HZ({spec.freq})) u_{spec.name} (\n    "
            + ",\n    ".join(conns)
            + "\n  );\n"
        )
    out.write("endmodule\n")
