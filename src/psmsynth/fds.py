"""Latency-constrained force-directed scheduling, a list-scheduling baseline,
and an exhaustive minimum-resource oracle for small graphs.

The force-directed scheduler fixes one operation per round at the
(operation, control step) pair with the lowest total force, where force is
measured against per-type distribution graphs.  Ties break on lowest total
force, then lowest op id, then earliest step, which makes results
byte-for-byte reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Mapping

from .cost import CostTable, exec_latency, loop_keys
from .dfg import (
    DEFAULT_LATENCIES,
    Dfg,
    InfeasibleLatency,
    Loop,
    LoopNest,
    asap,
    min_latency,
    max_useful_latency,
)

BRUTE_FORCE_OP_LIMIT = 12


class SchedulingError(Exception):
    pass


@dataclass(frozen=True)
class Schedule:
    start: Mapping[int, int]  # op id -> control step
    lam: int

    def makespan(self, dfg: Dfg, latencies=None) -> int:
        latencies = DEFAULT_LATENCIES if latencies is None else latencies
        return max(
            (self.start[op.id] + latencies.get(op.type, 1) for op in dfg.ops),
            default=0,
        )


@dataclass(frozen=True)
class ResourceUsage:
    per_type: Mapping[str, int]

    def cost(self, table: CostTable | None = None) -> float:
        table = table or CostTable()
        return sum(table.area.get(t, 1.0) * r for t, r in self.per_type.items())


def resource_usage(dfg: Dfg, schedule: Schedule, latencies=None) -> ResourceUsage:
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    occupancy: dict[str, dict[int, int]] = {}
    for op in dfg.ops:
        lat = latencies.get(op.type, 1)
        slots = occupancy.setdefault(op.type, {})
        for t in range(schedule.start[op.id], schedule.start[op.id] + lat):
            slots[t] = slots.get(t, 0) + 1
    return ResourceUsage({t: max(slots.values()) for t, slots in occupancy.items()})


def validate_schedule(dfg: Dfg, schedule: Schedule, latencies=None) -> None:
    """Raise if frame containment, dependences, or the makespan bound fail."""
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    op_ids = {op.id for op in dfg.ops}
    early = asap(dfg, latencies)
    for op in dfg.ops:
        t = schedule.start[op.id]
        if t < early[op.id]:
            raise SchedulingError(f"op {op.id} scheduled before its earliest start")
        for p in op.operands:
            if p in op_ids:
                if t < schedule.start[p] + latencies.get(dfg.op(p).type, 1):
                    raise SchedulingError(f"dependence {p} -> {op.id} violated")
        if t + latencies.get(op.type, 1) > schedule.lam:
            raise SchedulingError(f"op {op.id} finishes after the latency constraint")


# --- Frames and distribution graphs ------------------------------------------

@dataclass(frozen=True)
class _Ops:
    """The operations of one graph, indexed once per call: dependence order,
    type and latency per op, and operation predecessors/successors (an operand
    used twice is listed twice, so its force counts twice)."""

    order: list[int]
    kind: dict[int, str]
    lat: dict[int, int]
    preds: dict[int, list[int]]
    succs: dict[int, list[int]]
    needed: int  # minimum achievable latency


def _index(dfg: Dfg, latencies) -> _Ops:
    op_ids = {op.id for op in dfg.ops}
    preds = {op.id: [p for p in op.operands if p in op_ids] for op in dfg.ops}
    succs: dict[int, list[int]] = {v: [] for v in op_ids}
    for v, ps in preds.items():
        for p in ps:
            succs[p].append(v)
    return _Ops(
        order=dfg.topo_order(),
        kind={op.id: op.type for op in dfg.ops},
        lat={op.id: latencies.get(op.type, 1) for op in dfg.ops},
        preds=preds,
        succs=succs,
        needed=min_latency(dfg, latencies),
    )


def _frames(
    ops: _Ops, lam: int, fixed: Mapping[int, int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Start-time bounds lo[v] <= hi[v] for every op, honoring fixed placements."""
    lat, order = ops.lat, ops.order
    lo: dict[int, int] = {}
    for v in order:
        lo[v] = fixed[v] if v in fixed else max(
            (lo[p] + lat[p] for p in ops.preds[v]), default=0
        )
    hi: dict[int, int] = {}
    for v in reversed(order):
        hi[v] = fixed[v] if v in fixed else min(
            (hi[s] for s in ops.succs[v]), default=lam
        ) - lat[v]
    for v in order:
        if lo[v] > hi[v]:
            raise InfeasibleLatency(lam, ops.needed, v)
    return lo, hi


def _distribution_graphs(
    ops: _Ops, lam: int, lo: Mapping[int, int], hi: Mapping[int, int]
) -> dict[str, list[float]]:
    """Expected occupancy per type and control step 0..lam-1.  Each op spreads
    its latency evenly over the starts in its frame; the resulting trapezoid
    is added as four second differences and integrated twice."""
    second = {kind: [0.0] * (lam + 2) for kind in sorted(set(ops.kind.values()))}
    for v in ops.order:
        d, lat, m = second[ops.kind[v]], ops.lat[v], 1.0 / (hi[v] - lo[v] + 1)
        d[lo[v]] += m
        d[lo[v] + lat] -= m
        d[hi[v] + 1] -= m
        d[hi[v] + 1 + lat] += m
    return {kind: list(accumulate(accumulate(d)))[:lam] for kind, d in second.items()}


Observer = Callable[[Mapping[int, tuple[int, int]], Mapping[str, Mapping[int, float]]], None]


def fds_schedule(
    dfg: Dfg,
    lam: int,
    latencies=None,
    observer: Observer | None = None,
) -> Schedule:
    """Minimum-resource schedule under the latency constraint `lam`.

    Each round recomputes frames and distribution graphs, evaluates the self
    force plus depth-1 predecessor/successor forces for every unfixed
    (op, step) candidate, and fixes the minimum-force pair.

    Per type, W[s] is the distribution-graph mass an op of that type covers
    when it starts at s, and R is the prefix sum of W.  The self force of
    (v, t) is W[t] - base[v]; the expected force of a frame [lo, hi] is
    (R[hi+1] - R[lo]) / (hi - lo + 1), so every force term costs O(1).
    (R equals the difference of two shifted second prefix sums of the
    graph, but its values stay small, and so do its rounding errors.)
    """
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    ops = _index(dfg, latencies)
    if lam < ops.needed:
        raise InfeasibleLatency(lam, ops.needed)
    kind, lat = ops.kind, ops.lat
    unfixed = sorted(ops.order)
    fixed: dict[int, int] = {}
    while unfixed:
        lo, hi = _frames(ops, lam, fixed)
        graphs = _distribution_graphs(ops, lam, lo, hi)
        if observer is not None:
            observer(
                {v: (lo[v], hi[v]) for v in ops.order},
                {k: dict(enumerate(dg)) for k, dg in graphs.items()},
            )
        window: dict[str, list[float]] = {}
        cum: dict[str, list[float]] = {}
        for k, dg in graphs.items():
            k_lat = latencies.get(k, 1)
            window[k] = [sum(dg[s:s + k_lat]) for s in range(lam - k_lat + 1)]
            cum[k] = [0.0, *accumulate(window[k])]
        base = {
            v: (cum[kind[v]][hi[v] + 1] - cum[kind[v]][lo[v]]) / (hi[v] - lo[v] + 1)
            for v in unfixed
        }

        # Minimum of (round(force, 9), op, step).  Candidates come in (op,
        # step) order, so only a strictly smaller rounded force wins; and as
        # rounding is monotone, a force not below the best raw one cannot.
        best_key = best_force = float("inf")
        best_v = best_t = -1
        for v in unfixed:
            # Fixed neighbors never tighten: their one start already
            # satisfies every start in v's frame.  Frames are consistent, so
            # a tightened frame is never empty.
            before = [
                (hi[p], lo[p], lat[p], cum[kind[p]], base[p])
                for p in ops.preds[v] if p not in fixed
            ]
            after = [
                (lo[s], hi[s], cum[kind[s]], base[s])
                for s in ops.succs[v] if s not in fixed
            ]
            own, b, v_lat = window[kind[v]], base[v], lat[v]
            for t in range(lo[v], hi[v] + 1):
                force = own[t] - b
                for phi, plo, p_lat, pcum, pbase in before:
                    new_hi = t - p_lat
                    if new_hi < phi:
                        force += (pcum[new_hi + 1] - pcum[plo]) / (new_hi - plo + 1) - pbase
                new_lo = t + v_lat
                for slo, shi, scum, sbase in after:
                    if new_lo > slo:
                        force += (scum[shi + 1] - scum[new_lo]) / (shi - new_lo + 1) - sbase
                if force < best_force:
                    key = round(force, 9)
                    if key < best_key:
                        best_key, best_force, best_v, best_t = key, force, v, t
        fixed[best_v] = best_t
        unfixed.remove(best_v)

    schedule = Schedule(dict(fixed), lam)
    validate_schedule(dfg, schedule, latencies)
    return schedule


# --- Baseline and oracle -----------------------------------------------------

def list_schedule(dfg: Dfg, resources: Mapping[str, int], latencies=None) -> Schedule:
    """Resource-constrained list schedule, priority = longest path to a sink,
    ties by lowest op id."""
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    op_ids = {op.id for op in dfg.ops}
    for op in dfg.ops:
        if resources.get(op.type, 0) < 1:
            raise SchedulingError(f"need at least one '{op.type}' resource")

    succ: dict[int, list[int]] = {i: [] for i in op_ids}
    for op in dfg.ops:
        for p in op.operands:
            if p in op_ids:
                succ[p].append(op.id)
    height: dict[int, int] = {}
    for v in reversed(dfg.topo_order()):
        lat = latencies.get(dfg.op(v).type, 1)
        height[v] = lat + max((height[s] for s in succ[v]), default=0)

    start: dict[int, int] = {}
    unscheduled = set(op_ids)
    busy: dict[str, dict[int, int]] = {}
    t = 0
    while unscheduled:
        ready = sorted(
            (
                v
                for v in unscheduled
                if all(
                    p in start and start[p] + latencies.get(dfg.op(p).type, 1) <= t
                    for p in dfg.op(v).operands
                    if p in op_ids
                )
            ),
            key=lambda v: (-height[v], v),
        )
        for v in ready:
            op = dfg.op(v)
            lat = latencies.get(op.type, 1)
            slots = busy.setdefault(op.type, {})
            if all(slots.get(u, 0) < resources[op.type] for u in range(t, t + lat)):
                for u in range(t, t + lat):
                    slots[u] = slots.get(u, 0) + 1
                start[v] = t
                unscheduled.remove(v)
        t += 1
    makespan = max(
        (start[op.id] + latencies.get(op.type, 1) for op in dfg.ops), default=0
    )
    return Schedule(start, makespan)


def brute_force_min_resources(
    dfg: Dfg, lam: int, latencies=None, table: CostTable | None = None
) -> tuple[ResourceUsage, Schedule]:
    """Exact minimum weighted resource usage over all feasible schedules.

    Exhaustive over the ops' time frames; guarded to small graphs.
    """
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    table = table or CostTable()
    if len(dfg.ops) > BRUTE_FORCE_OP_LIMIT:
        raise SchedulingError(
            f"brute force limited to {BRUTE_FORCE_OP_LIMIT} ops, got {len(dfg.ops)}"
        )
    ops = _index(dfg, latencies)
    lo, hi = _frames(ops, lam, {})
    order = ops.order

    best_cost = float("inf")
    best: tuple[ResourceUsage, Schedule] | None = None
    start: dict[int, int] = {}

    def partial_usage() -> dict[str, int]:
        occupancy: dict[str, dict[int, int]] = {}
        for v, t in start.items():
            slots = occupancy.setdefault(ops.kind[v], {})
            for u in range(t, t + ops.lat[v]):
                slots[u] = slots.get(u, 0) + 1
        return {ty: max(s.values()) for ty, s in occupancy.items()}

    def walk(idx: int):
        nonlocal best_cost, best
        if idx == len(order):
            usage = ResourceUsage(partial_usage())
            cost = usage.cost(table)
            if cost < best_cost:
                best_cost = cost
                best = (usage, Schedule(dict(start), lam))
            return
        v = order[idx]
        earliest = max((start[p] + ops.lat[p] for p in ops.preds[v]), default=lo[v])
        for t in range(max(lo[v], earliest), hi[v] + 1):
            start[v] = t
            usage = partial_usage()
            if ResourceUsage(usage).cost(table) < best_cost:
                walk(idx + 1)
            del start[v]

    walk(0)
    assert best is not None
    return best


def schedule_nest(
    nest: LoopNest, lam: int, latencies=None
) -> tuple[int, ResourceUsage, dict]:
    """Schedule a whole loop nest: each loop body under the per-iteration
    latency constraint `lam`, the pre/post segments at their minimum latency.

    Returns total execution cycles for one activation, the combined resource
    usage (per-type maximum across parts — parts never run concurrently), and
    the individual schedules keyed 'pre'/'post'/loop position.
    """
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    keys = loop_keys(nest)
    by_key: dict[tuple[int, ...], Loop] = {}

    def walk(loop: Loop, key: tuple[int, ...]):
        by_key[key] = loop
        for i, c in enumerate(loop.children):
            walk(c, key + (i,))

    for i, loop in enumerate(nest.loops):
        walk(loop, (i,))

    schedules: dict = {}
    combined: dict[str, int] = {}
    body_makespans: dict[int, int] = {}

    def merge(usage: ResourceUsage) -> None:
        for t, r in usage.per_type.items():
            combined[t] = max(combined.get(t, 0), r)

    def do_part(part_key, dfg: Dfg | None, constraint: int | None) -> int:
        if dfg is None or not dfg.ops:
            return 0
        lo = min_latency(dfg, latencies)
        sched = fds_schedule(dfg, constraint if constraint is not None else lo, latencies)
        schedules[part_key] = sched
        merge(resource_usage(dfg, sched, latencies))
        return sched.makespan(dfg, latencies)

    pre_span = do_part("pre", nest.pre, None)
    post_span = do_part("post", nest.post, None)
    for key, loop in by_key.items():
        body_makespans[keys[key]] = do_part(key, loop.body, lam)
    cycles = exec_latency(nest, body_makespans, pre_span, post_span)
    return max(1, cycles), ResourceUsage(combined), schedules


def format_schedule(dfg: Dfg, schedule: Schedule, latencies=None) -> str:
    """Textual `.sched` form: one `op <id> @ <cstep>` line per operation plus
    a resource summary block."""
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    lines = [f"latency {schedule.lam}"]
    for op in dfg.ops:
        lines.append(f"op {op.id} @ {schedule.start[op.id]}")
    usage = resource_usage(dfg, schedule, latencies)
    lines.append("resources {")
    for t in sorted(usage.per_type):
        lines.append(f"  {t} {usage.per_type[t]}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def latency_sweep(dfg: Dfg, points: int = 4, latencies=None) -> list[int]:
    """Up to `points` evenly spaced latency constraints from the minimum
    achievable latency to the longest useful one."""
    if points < 1:
        raise SchedulingError(f"need at least one exploration point, got {points}")
    lo = min_latency(dfg, latencies)
    hi = max_useful_latency(dfg, latencies)
    if points == 1 or hi == lo:
        return [lo]
    return sorted({round(lo + (hi - lo) * k / (points - 1)) for k in range(points)})


def explore_latencies(
    dfg: Dfg, points: int = 4, latencies=None, table: CostTable | None = None
) -> list[tuple[int, Schedule, ResourceUsage]]:
    """Each constraint of `latency_sweep`, scheduled with FDS."""
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    results = []
    for lam in latency_sweep(dfg, points, latencies):
        schedule = fds_schedule(dfg, lam, latencies)
        results.append((lam, schedule, resource_usage(dfg, schedule, latencies)))
    return results
