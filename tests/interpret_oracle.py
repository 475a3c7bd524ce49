"""The plain cycle interpreter: the judge of `psmsynth.fsm.interpret`.

At every step it asks every instance for its next edge and runs the
earliest, ties broken by instance index.  Each invocation looks its MCC
implementation up anew.  The interpreter in `src/` must record the same
entries, events and dropped events, in the same order, as this one.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping

from psmsynth import expr as ex
from psmsynth.fsm import (
    HANDSHAKE_CYCLES,
    CycleEventRecord,
    CycleStateEntry,
    CycleTrace,
    FsmInstance,
    SystemIr,
)
from psmsynth.model import (
    Action,
    Assign,
    Emit,
    InvokeMcc,
    McImpl,
    PsmComponent,
    SimulationError,
    State,
    TimingKind,
    TraceEvent,
    _fanout,
    _route_stimulus,
    _seconds,
)


def _call_mcc(
    mcc_impls: Mapping[str, McImpl], action: InvokeMcc,
    variables: Mapping[str, int], widths: Mapping[str, int],
) -> list[tuple[str, int]]:
    """(result variable, value wrapped to the variable's width) pairs of one
    invocation; a computation without an implementation returns zeros."""
    impl = mcc_impls.get(action.mcc)
    args = tuple(variables[a] for a in action.args)
    results = impl(args) if impl else tuple(0 for _ in action.results)
    if len(results) != len(action.results):
        raise SimulationError(
            f"mcc '{action.mcc}' returned {len(results)} values, expected {len(action.results)}"
        )
    return [(name, ex.wrap_signed(value, widths[name])) for name, value in zip(action.results, results)]


def _state_code(comp: PsmComponent, mcc_impls: Mapping[str, McImpl]) -> dict[str, tuple]:
    """Each state compiled once for a run: (actions, guards, imports, delta,
    timer), as `psmsynth.model._state_code` documents."""
    widths = {v.name: v.width for v in comp.variables}
    payload_widths = {e.name: e.payload_width for e in comp.events}

    def wrapped(e: ex.Expr | None, width: int | None):
        if e is None:  # a pure event carries no value
            return lambda env: None
        value, half, mask = ex.compile_expr(e), 1 << (width - 1), (1 << width) - 1
        return lambda env: ((value(env) + half) & mask) - half

    def compiled(action: Action) -> tuple:
        if isinstance(action, Emit):
            return "emit", action.event, wrapped(action.value, payload_widths[action.event])
        if isinstance(action, Assign):
            return "assign", action.var, wrapped(action.value, widths[action.var])
        return "invoke", action.mcc, lambda env: _call_mcc(mcc_impls, action, env, widths)

    def target(s: State, kind: TimingKind) -> str | None:
        return s.timed.target if s.timed is not None and s.timed.kind is kind else None

    return {
        s.name: (
            [compiled(a) for a in s.entry],
            [(ex.compile_expr(g.guard), g.target) for g in s.guards],
            {i.event: i.target for i in s.imports},
            target(s, TimingKind.DELTA),
            target(s, TimingKind.FINITE),
        )
        for s in comp.states
    }


class _Rt:
    """Mutable per-instance interpreter state.  Times are integers on the
    run's time base: edge k of this instance lies at `k * unit`, and `last`
    is the last edge it runs.  `done_at` is the edge at which the running
    call ends, `fire_at` the edge at which the pending transition to
    `target` fires; `queue` is a heap of (arrival, seq, event, payload)."""

    __slots__ = (
        "inst", "code", "unit", "last", "cycle", "state", "vars",
        "queue", "staged", "done_at", "fire_at", "target",
    )

    def __init__(self, inst: FsmInstance, code, unit: int, last: int):
        self.inst = inst
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
    run its last clock edge or gone permanently idle."""
    if max_cycles is None and horizon is None:
        raise TypeError("interpret needs max_cycles or horizon")
    if max_cycles is not None and max_cycles < 0:
        raise SimulationError(f"max_cycles must not be negative, got {max_cycles}")
    if horizon is not None and not horizon > 0:
        raise SimulationError(f"horizon must be positive, got {horizon}")
    mcc_latencies = dict(mcc_latencies or {})
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
    code = {key: _state_code(comp, mcc_impls) for key, comp in used.items()}
    rts = []
    for spec in sys_ir.instances:
        last = max_cycles
        if horizon is not None:
            x = Fraction(horizon) * spec.freq
            before = (x.numerator - 1) // x.denominator  # the last edge k with k < x
            last = before if last is None else min(last, before)
        unit = base * spec.freq.denominator // spec.freq.numerator
        rts.append(_Rt(spec, code[id(spec.component)], unit, last))
    by_name = {rt.inst.name: rt for rt in rts}
    fanout = _fanout(sys_ir.system)
    trace = CycleTrace()
    seq = 0

    def deliver(arrival: int, inst_name: str, event: str, payload: int | None) -> None:
        nonlocal seq
        heapq.heappush(by_name[inst_name].queue, (arrival, seq, event, payload))
        seq += 1

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
        _, guards, _, delta, timer = rt.code[rt.state]
        target = next((to for guard, to in guards if guard(rt.vars)), delta)
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

    while True:
        due = []
        for i, rt in enumerate(rts):
            k = rt.wake()
            if k is not None and k <= rt.last:
                due.append((k * rt.unit, i, k))
        if not due:
            return trace
        _, i, k = min(due)
        rts[i].cycle = k
        step(rts[i])
