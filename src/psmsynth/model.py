"""In-memory periodic state machine (PSM) models, validation, and the
reference discrete-event simulator.

A component is a finite state machine with a fixed execution period, explicit
per-state timing specifications, and event-based communication.  Systems wire
component instances together through typed event connections.  The simulator
here is the semantic reference the cycle-level FSM interpreter is checked
against.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from . import expr as ex

DEFAULT_WIDTH = 32

# Consecutive zero-time transitions tolerated before a model is declared
# divergent.
DELTA_CYCLE_LIMIT = 10_000


class SimulationError(Exception):
    pass


class DeltaCycleError(SimulationError):
    """A chain of zero-time transitions never let time advance."""


class TimingKind(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    DELTA = "delta"


class Direction(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class EventDecl:
    name: str
    direction: Direction
    payload_width: int | None = None  # None for pure (non-data) events

    @property
    def is_data(self) -> bool:
        return self.payload_width is not None


@dataclass(frozen=True)
class VarDecl:
    name: str
    width: int = DEFAULT_WIDTH
    init: int = 0


# --- Entry actions -----------------------------------------------------------

@dataclass(frozen=True)
class Emit:
    """Raise an output event: a pure one (`notify E;`) carries no value, a
    data one (`export E(x);`) carries `value`."""
    event: str
    value: ex.Expr | None = None


@dataclass(frozen=True)
class Assign:
    var: str
    value: ex.Expr


@dataclass(frozen=True)
class InvokeMcc:
    mcc: str
    args: tuple[str, ...]
    results: tuple[str, ...]


Action = Emit | Assign | InvokeMcc


@dataclass(frozen=True)
class Import:
    event: str
    target: str


@dataclass(frozen=True)
class TimedTransition:
    """A state's timing spec, `ts(...) -> target`: a finite spec dwells
    `duration` seconds, a delta spec takes no time, an infinite one waits."""
    kind: TimingKind
    target: str | None = None  # None only for infinite specs
    duration: Fraction | None = None  # finite specs only


@dataclass(frozen=True)
class GuardTransition:
    guard: ex.Expr
    target: str


@dataclass(frozen=True)
class State:
    name: str
    entry: tuple[Action, ...] = ()
    imports: tuple[Import, ...] = ()
    timed: TimedTransition | None = None
    guards: tuple[GuardTransition, ...] = ()


@dataclass(frozen=True)
class MccSignature:
    name: str
    dfg_ref: str
    n_args: int
    n_results: int


@dataclass(frozen=True)
class PsmComponent:
    name: str
    period: Fraction
    events: tuple[EventDecl, ...] = ()
    variables: tuple[VarDecl, ...] = ()
    mccs: tuple[MccSignature, ...] = ()
    initial: str = ""
    states: tuple[State, ...] = ()

    def event(self, name: str) -> EventDecl | None:
        """The event declared as `name`, or None."""
        return next((e for e in self.events if e.name == name), None)


@dataclass(frozen=True)
class Instance:
    name: str
    component: str
    period_override: Fraction | None = None


@dataclass(frozen=True)
class Connection:
    src_instance: str
    src_event: str
    dst_instance: str
    dst_event: str


@dataclass(frozen=True)
class ExternalPort:
    name: str
    direction: Direction
    instance: str
    event: str


@dataclass(frozen=True)
class PsmSystem:
    name: str
    instances: tuple[Instance, ...] = ()
    connections: tuple[Connection, ...] = ()
    ports: tuple[ExternalPort, ...] = ()


# --- Validation --------------------------------------------------------------

class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    severity: Severity
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.location}: {self.severity.value}: {self.message}"


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    def error(self, location: str, message: str) -> None:
        self.findings.append(Finding(Severity.ERROR, location, message))

    def warning(self, location: str, message: str) -> None:
        self.findings.append(Finding(Severity.WARNING, location, message))

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    def extend(self, other: "ValidationReport") -> None:
        self.findings.extend(other.findings)


def _check_expr(report, comp, loc, e, what):
    for name in sorted(ex.free_vars(e)):
        if not any(v.name == name for v in comp.variables) and not any(
            ev.name == name and ev.direction is Direction.INPUT and ev.is_data
            for ev in comp.events
        ):
            report.error(loc, f"{what} references undeclared variable '{name}'")


def validate_component(comp: PsmComponent) -> ValidationReport:
    report = ValidationReport()
    where = f"component {comp.name}"
    if comp.period <= 0:
        report.error(where, f"period must be positive, got {comp.period}")

    # Events, variables and mccs share one namespace, as in the DSL: a data
    # input's payload is stored under the event's name.
    declared: set[str] = set()
    for decl in (*comp.events, *comp.variables, *comp.mccs):
        if decl.name in declared:
            report.error(where, f"duplicate declaration of '{decl.name}'")
        declared.add(decl.name)
    for e in comp.events:
        if e.payload_width is not None and e.payload_width <= 0:
            report.error(where, f"event '{e.name}' has non-positive payload width")
    var_names = {v.name for v in comp.variables}
    for v in comp.variables:
        if v.width < 1:
            report.error(where, f"variable '{v.name}' has non-positive width")

    state_names = [s.name for s in comp.states]
    for name in state_names:
        if state_names.count(name) > 1:
            report.error(where, f"duplicate state '{name}'")
            break
    if not comp.states:
        report.error(where, "component has no states")
    elif comp.initial not in state_names:
        report.error(where, f"initial state '{comp.initial}' is not declared")

    for s in comp.states:
        loc = f"{where}, state {s.name}"
        seen_imports: set[str] = set()
        for imp in s.imports:
            if imp.event in seen_imports:
                report.error(loc, f"state has two transitions on input '{imp.event}'")
            seen_imports.add(imp.event)
            decl = comp.event(imp.event)
            if decl is None:
                report.error(loc, f"import of undeclared event '{imp.event}'")
            elif decl.direction is not Direction.INPUT:
                report.error(loc, f"import of output event '{imp.event}'")
            if imp.target not in state_names:
                report.error(loc, f"transition target '{imp.target}' is not declared")
        if (timed := s.timed) is not None:
            if timed.kind is TimingKind.FINITE:
                if timed.duration is None or timed.duration <= 0:
                    report.error(loc, f"finite timing spec must have a positive duration, got {timed.duration}")
                if timed.target is None:
                    report.error(loc, "finite timing spec needs a transition target")
            elif timed.kind is TimingKind.DELTA and timed.target is None:
                report.error(loc, "delta timing spec needs a transition target")
            elif timed.kind is TimingKind.INFINITE and timed.target is not None:
                report.error(loc, "infinite timing spec cannot have a transition target")
            if timed.kind is not TimingKind.FINITE and timed.duration is not None:
                report.error(loc, f"{timed.kind.value} timing spec cannot carry a duration")
            if timed.target is not None and timed.target not in state_names:
                report.error(loc, f"transition target '{timed.target}' is not declared")
        for g in s.guards:
            if g.target not in state_names:
                report.error(loc, f"transition target '{g.target}' is not declared")
            _check_expr(report, comp, loc, g.guard, "guard")
        for a in s.entry:
            if isinstance(a, Emit):
                pure = a.value is None  # `notify` raises a pure event, `export` a data one
                verb, kind, other = ("notify", "non-data", "data") if pure else ("export", "data", "none")
                decl = comp.event(a.event)
                if decl is None:
                    report.error(loc, f"{verb} of undeclared event '{a.event}'")
                elif decl.direction is not Direction.OUTPUT:
                    report.error(loc, f"{verb} must target an output event, '{a.event}' is an input")
                elif decl.is_data == pure:
                    report.error(loc, f"{verb} must target a {kind} event, '{a.event}' carries {other}")
                if not pure:
                    _check_expr(report, comp, loc, a.value, verb)
            elif isinstance(a, Assign):
                if a.var not in var_names:
                    report.error(loc, f"assignment to undeclared variable '{a.var}'")
                _check_expr(report, comp, loc, a.value, "assignment")
            elif isinstance(a, InvokeMcc):
                sig = next((m for m in comp.mccs if m.name == a.mcc), None)
                if sig is None:
                    report.error(loc, f"invoke of undeclared mcc '{a.mcc}'")
                else:
                    if len(a.args) != sig.n_args:
                        report.error(loc, f"mcc '{a.mcc}' expects {sig.n_args} arguments, got {len(a.args)}")
                    if len(a.results) != sig.n_results:
                        report.error(loc, f"mcc '{a.mcc}' produces {sig.n_results} results, got {len(a.results)}")
                for name in (*a.args, *a.results):
                    if name not in var_names:
                        report.error(loc, f"mcc argument/result '{name}' is not a declared variable")

    # Reachability is a warning, not an error.
    if comp.states and comp.initial in state_names:
        reachable = {comp.initial}
        frontier = [comp.initial]
        by_name = {s.name: s for s in comp.states}
        while frontier:
            s = by_name[frontier.pop()]
            targets = [i.target for i in s.imports]
            targets += [g.target for g in s.guards]
            if s.timed is not None and s.timed.target is not None:
                targets.append(s.timed.target)
            for t in targets:
                if t in by_name and t not in reachable:
                    reachable.add(t)
                    frontier.append(t)
        for name in state_names:
            if name not in reachable:
                report.warning(where, f"state '{name}' is unreachable from '{comp.initial}'")

    return report


def validate_system(system: PsmSystem, components: Mapping[str, PsmComponent]) -> ValidationReport:
    report = ValidationReport()
    where = f"system {system.name}"

    seen: set[str] = set()
    for inst in system.instances:
        if inst.name in seen:
            report.error(where, f"duplicate instance '{inst.name}'")
        seen.add(inst.name)
        if inst.component not in components:
            report.error(where, f"instance '{inst.name}' uses unknown component '{inst.component}'")
        elif inst.period_override is not None and inst.period_override <= 0:
            report.error(where, f"instance '{inst.name}' has non-positive period override")

    def resolve(inst_name: str, event_name: str, direction: Direction, loc: str):
        inst = next((i for i in system.instances if i.name == inst_name), None)
        if inst is None:
            report.error(loc, f"connection endpoint names undeclared instance '{inst_name}'")
            return None
        comp = components.get(inst.component)
        if comp is None:
            return None
        decl = comp.event(event_name)
        if decl is None:
            report.error(loc, f"instance '{inst_name}' has no event '{event_name}'")
            return None
        if decl.direction is not direction:
            report.error(loc, f"event '{inst_name}.{event_name}' is not an {direction.value}")
            return None
        return decl

    driven: set[tuple[str, str]] = set()
    for c in system.connections:
        loc = f"{where}, {c.src_instance}.{c.src_event} -> {c.dst_instance}.{c.dst_event}"
        src = resolve(c.src_instance, c.src_event, Direction.OUTPUT, loc)
        dst = resolve(c.dst_instance, c.dst_event, Direction.INPUT, loc)
        if src is not None and dst is not None:
            if src.is_data != dst.is_data:
                report.error(loc, "connected events disagree on payload presence")
            elif src.is_data and src.payload_width != dst.payload_width:
                report.error(loc, f"payload width mismatch ({src.payload_width} vs {dst.payload_width})")
        key = (c.dst_instance, c.dst_event)
        if key in driven:
            report.error(loc, f"input '{c.dst_instance}.{c.dst_event}' is driven by two sources")
        driven.add(key)

    for p in system.ports:
        loc = f"{where}, port {p.name}"
        resolve(p.instance, p.event, p.direction, loc)
        if p.direction is Direction.INPUT:
            key = (p.instance, p.event)
            if key in driven:
                report.error(loc, f"input '{p.instance}.{p.event}' is driven by two sources")
            driven.add(key)

    # Each instantiated component once, however many instances share it.
    for name in dict.fromkeys(inst.component for inst in system.instances):
        if name in components:
            report.extend(validate_component(components[name]))

    return report


# --- Traces ------------------------------------------------------------------

@dataclass(slots=True)
class TraceEvent:
    time: Fraction
    instance: str
    event: str
    payload: int | None = None


@dataclass(slots=True)
class StateEntry:
    time: Fraction
    instance: str
    state: str


@dataclass
class EventTrace:
    events: list[TraceEvent] = field(default_factory=list)
    state_entries: list[StateEntry] = field(default_factory=list)
    dropped: list[TraceEvent] = field(default_factory=list)


def single_component_system(comp: PsmComponent, instance_name: str = "dut") -> PsmSystem:
    """Wrap one component for direct simulation; every input/output becomes a port."""
    ports = tuple(
        ExternalPort(e.name, e.direction, instance_name, e.name) for e in comp.events
    )
    return PsmSystem(
        name=f"{comp.name}_bench",
        instances=(Instance(instance_name, comp.name),),
        connections=(),
        ports=ports,
    )


# --- Simulation --------------------------------------------------------------

McImpl = Callable[[tuple[int, ...]], tuple[int, ...]]


# Stimulus routing, event fanout and MCC calls are shared with the cycle-level
# interpreter; they resolve inputs and leave timing and state semantics to
# each simulator.

def _route_stimulus(
    system: PsmSystem, comps: Mapping[str, PsmComponent], stimulus: Iterable[TraceEvent]
) -> list[tuple[Fraction, str, str, int | None]]:
    """Stimulus in time order as (time, instance, input event, payload), with
    external input ports resolved to the instance input they drive.  `comps`
    maps instance names to their components."""
    in_ports = {p.name: (p.instance, p.event) for p in system.ports if p.direction is Direction.INPUT}
    drivers = {
        (c.dst_instance, c.dst_event): f"{c.src_instance}.{c.src_event}" for c in system.connections
    }
    routed = []
    for evt in sorted(stimulus, key=lambda e: e.time):
        if evt.time < 0:
            raise SimulationError(f"stimulus at t={evt.time} is before time 0")
        inst_name, event_name = evt.instance, evt.event
        if inst_name in in_ports and inst_name not in comps:
            inst_name, event_name = in_ports[inst_name]
        if inst_name not in comps:
            raise SimulationError(f"stimulus targets unknown instance or port '{evt.instance}'")
        decl = comps[inst_name].event(event_name)
        if decl is None or decl.direction is not Direction.INPUT:
            raise SimulationError(f"stimulus targets '{inst_name}.{event_name}', which is not an input event")
        if (inst_name, event_name) in drivers:
            raise SimulationError(
                f"stimulus targets '{inst_name}.{event_name}', an input driven by "
                f"'{drivers[inst_name, event_name]}'"
            )
        if decl.is_data != (evt.payload is not None):
            raise SimulationError(
                f"payload mismatch for '{inst_name}.{event_name}': "
                f"{'expected' if decl.is_data else 'unexpected'} data value"
            )
        if decl.is_data and ex.wrap_signed(evt.payload, decl.payload_width) != evt.payload:
            raise SimulationError(
                f"payload {evt.payload} for '{inst_name}.{event_name}' "
                f"does not fit int{decl.payload_width}"
            )
        routed.append((evt.time, inst_name, event_name, evt.payload))
    return routed


def _check_mcc_names(names: Iterable[str], comps: Iterable[PsmComponent]) -> None:
    """Refuse an MCC latency or implementation for a name that no component
    of the run declares: such an entry would be ignored without a word."""
    declared = {m.name for comp in comps for m in comp.mccs}
    for name in names:
        if name not in declared:
            raise SimulationError(f"mcc '{name}' is declared by no component of the run")


def _fanout(system: PsmSystem) -> dict[tuple[str, str], list[tuple[str, str]]]:
    """The (instance, input) receivers of each (instance, output) event."""
    fanout: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for c in system.connections:
        fanout.setdefault((c.src_instance, c.src_event), []).append((c.dst_instance, c.dst_event))
    return fanout


def _state_code(comp: PsmComponent, mcc_impls: Mapping[str, McImpl]) -> dict[str, tuple]:
    """Each state compiled once for a run into the one form both engines
    run: (actions, guards, imports, delta, timer).  An action is ("emit",
    event, payload), ("assign", variable, value) or ("invoke", mcc, results),
    each third item a function of the variables: values come wrapped to
    their declared width, a pure event's payload is None, and `results`
    gives the call's (result variable, wrapped value) pairs, zeros without
    an implementation.  A guard is (condition, target), `imports` maps each
    imported event to its target, and `delta` and `timer` are the targets
    of a delta and of a finite timing spec, or None."""
    widths = {v.name: v.width for v in comp.variables}
    payload_widths = {e.name: e.payload_width for e in comp.events}

    def wrapped(e: ex.Expr | None, width: int | None):
        if e is None:  # a pure event carries no value
            return lambda env: None
        value, half, mask = ex.compile_expr(e), 1 << (width - 1), (1 << width) - 1
        return lambda env: ((value(env) + half) & mask) - half

    def invoke(action: InvokeMcc):
        impl, args, n = mcc_impls.get(action.mcc), action.args, len(action.results)
        wraps = [(r, 1 << (widths[r] - 1), (1 << widths[r]) - 1) for r in action.results]

        def call(env):
            values = impl(tuple([env[a] for a in args])) if impl else (0,) * n
            if len(values) != n:
                raise SimulationError(f"mcc '{action.mcc}' returned {len(values)} values, expected {n}")
            return [(r, ((v + half) & mask) - half) for (r, half, mask), v in zip(wraps, values)]
        return call

    def compiled(action: Action) -> tuple:
        if isinstance(action, Emit):
            return "emit", action.event, wrapped(action.value, payload_widths[action.event])
        if isinstance(action, Assign):
            return "assign", action.var, wrapped(action.value, widths[action.var])
        return "invoke", action.mcc, invoke(action)

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


def _seconds(base: int) -> Callable[[int], Fraction]:
    """The time in seconds of a tick count on time base `base`.  Records come
    in time order, so one Fraction is built per instant and kept until the
    next."""
    last = [None, None]

    def seconds(now: int) -> Fraction:
        if last[0] != now:
            last[:] = now, Fraction(now, base)
        return last[1]
    return seconds


class _InstanceState:
    """Mutable per-instance simulator state: `state` is the name of the state
    the instance is in and `code` its component's compiled states
    (`_state_code`).  `dwell` holds each timed state's duration and
    `timer_deadline` its expiry, both in ticks of the run's time base."""

    __slots__ = ("name", "code", "dwell", "state", "vars", "timer_deadline", "inbox")

    def __init__(self, name: str, comp: PsmComponent, code, base: int):
        self.name = name
        self.code = code
        self.dwell = {s.name: int(Fraction(s.timed.duration) * base) for s in comp.states if _has_timer(s)}
        self.state = comp.initial
        self.vars: dict[str, int] = {v.name: ex.wrap_signed(v.init, v.width) for v in comp.variables}
        self.timer_deadline: int | None = None
        self.inbox: list[tuple[str, int | None]] = []  # (event, payload) in delivery order


def _has_timer(state: State) -> bool:
    """A state with a finite timing spec dwells on a timer."""
    return state.timed is not None and state.timed.kind is TimingKind.FINITE


def simulate(
    system: PsmSystem,
    components: Mapping[str, PsmComponent],
    stimulus: Iterable[TraceEvent],
    horizon: Fraction,
    mcc_impls: Mapping[str, McImpl] | None = None,
) -> EventTrace:
    """Run the reference semantics up to (but excluding) `horizon` seconds.

    Stimulus events name instance inputs directly or external input ports.
    Simultaneous work is processed in instance declaration order, external
    events before timer expirations, and zero-time transitions run to
    quiescence before time advances.  Stored values wrap to the declared
    width of their variable or event.  A horizon that is not positive is
    refused, as it leaves no instant to run, and so is an implementation for
    an MCC that no component of the run declares.
    """
    if not horizon > 0:
        raise SimulationError(f"horizon must be positive, got {horizon}")
    report = validate_system(system, components)
    if not report.ok:
        msgs = "; ".join(str(f) for f in report.errors)
        raise SimulationError(f"system does not validate: {msgs}")

    mcc_impls = dict(mcc_impls or {})
    comps = {inst.name: components[inst.component] for inst in system.instances}
    routed = _route_stimulus(system, comps, stimulus)
    # The run's own integer time base: a tick is 1/base s, and every timer,
    # stimulus time and the horizon is a whole number of ticks.
    used = {inst.component: components[inst.component] for inst in system.instances}
    dwells = [s.timed.duration for c in used.values() for s in c.states if _has_timer(s)]
    base = math.lcm(*(Fraction(t).denominator for t in [horizon, *dwells, *(t for t, *_ in routed)]))
    end = int(Fraction(horizon) * base)
    _check_mcc_names(mcc_impls, used.values())
    code = {key: _state_code(comp, mcc_impls) for key, comp in used.items()}
    insts = {inst.name: _InstanceState(inst.name, comps[inst.name], code[inst.component], base)
             for inst in system.instances}
    fanout = _fanout(system)
    trace = EventTrace()
    # Pending deliveries, a heap of (tick, seq, instance, event, payload):
    # simultaneous deliveries are taken in the order they were made.
    agenda: list[tuple[int, int, _InstanceState, str, int | None]] = []
    seq = itertools.count()
    for time, inst_name, event, payload in routed:
        if time >= horizon:
            raise SimulationError(f"stimulus at t={time} is not before the horizon {horizon}")
        heapq.heappush(agenda, (int(Fraction(time) * base), next(seq), insts[inst_name], event, payload))

    seconds = _seconds(base)

    def emit(now: int, st: _InstanceState, event: str, payload: int | None) -> None:
        trace.events.append(TraceEvent(seconds(now), st.name, event, payload))
        for dst_inst, dst_event in fanout.get((st.name, event), []):
            heapq.heappush(agenda, (now, next(seq), insts[dst_inst], dst_event, payload))

    def enter(now: int, st: _InstanceState, target: str) -> None:
        """Enter `target`, then follow zero-time transitions (a true guard,
        else a delta spec) until a state waits."""
        variables = st.vars
        for _ in range(DELTA_CYCLE_LIMIT):
            st.state = target
            actions, guards, _, delta, _ = st.code[target]
            trace.state_entries.append(StateEntry(seconds(now), st.name, target))
            for kind, name, fn in actions:
                if kind == "emit":
                    emit(now, st, name, fn(variables))
                elif kind == "assign":
                    variables[name] = fn(variables)
                else:
                    variables.update(fn(variables))
            target = delta
            for guard, to in guards:
                if guard(variables):
                    target = to
                    break
            if target is None:
                dwell = st.dwell.get(st.state)
                st.timer_deadline = None if dwell is None else now + dwell
                return
        raise DeltaCycleError(
            f"instance '{st.name}' made {DELTA_CYCLE_LIMIT} consecutive "
            f"zero-time transitions at t={Fraction(now, base)} (last state '{st.state}')"
        )

    for st in insts.values():
        enter(0, st, st.state)

    while True:
        now = min((st.timer_deadline for st in insts.values() if st.timer_deadline is not None), default=end)
        if agenda and agenda[0][0] < now:
            now = agenda[0][0]
        if now >= end:
            return trace
        # Each pass moves the due deliveries into inboxes; then each instance,
        # in declaration order, takes its inbox and then its due timer.  The
        # instant ends with the first pass that finds nothing to do.
        for _ in range(DELTA_CYCLE_LIMIT):
            busy = False
            while agenda and agenda[0][0] == now:
                _, _, st, event, payload = heapq.heappop(agenda)
                st.inbox.append((event, payload))
                busy = True
            for st in insts.values():
                for event, payload in st.inbox:
                    target = st.code[st.state][2].get(event)
                    if target is None:
                        trace.dropped.append(TraceEvent(seconds(now), st.name, event, payload))
                        continue
                    if payload is not None:
                        st.vars[event] = payload
                    enter(now, st, target)
                st.inbox.clear()
                if st.timer_deadline == now:
                    busy = True
                    enter(now, st, st.code[st.state][4])
            if not busy:
                break
        else:
            raise DeltaCycleError(
                f"system never became quiescent at t={Fraction(now, base)}: "
                f"{DELTA_CYCLE_LIMIT} zero-time delivery rounds"
            )


def simulate_component(
    comp: PsmComponent,
    stimulus: Iterable[TraceEvent],
    horizon: Fraction,
    mcc_impls: Mapping[str, McImpl] | None = None,
) -> EventTrace:
    system = single_component_system(comp)
    named = [replace(e, instance="dut") for e in stimulus]
    return simulate(system, {comp.name: comp}, named, horizon, mcc_impls)
