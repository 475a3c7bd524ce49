"""Latency-constrained force-directed scheduling and whole-nest scheduling.

The force-directed scheduler fixes one operation per round at the
(operation, control step) pair with the lowest total force, where force is
measured against per-type distribution graphs.  Ties break on lowest total
force, then lowest op id, then earliest step, which makes results
byte-for-byte reproducible.  Rounds are incremental: a round rebuilds only
the graphs of the types whose frames moved, and an op whose forces read a
moved frame or a rebuilt graph goes stale; every other op keeps its best
pair from an earlier round.  Evaluation is lazy, as in the accelerated
greedy method (Minoux, 1978): each stale op carries a lower bound on its
forces, the sum of its own and its unfixed neighbours' slacks (an op's least
W over its frame minus its base), and a round evaluates stale ops in bound
order only while a bound could still beat the least evaluated pair.  On the
128-op unrolled mhr body that cuts a schedule's evaluations from 4,713 to
1,203 at lambda 84.  As each graph sums its ops in the same order and each
force keeps its expression, the schedules equal those of re-evaluating every
op every round bit for bit (`tests/fds_oracle.py`).

Every routine here reads the dependence index each `Dfg` builds once, when
it is constructed: operation predecessors and successors, dependence order,
the latency of each op, which is fixed by its type
(`dfg.DEFAULT_LATENCIES`), and each op's ASAP start.  Time frames come from
`Dfg.frames` once per schedule; each round then narrows only the frames its
fixed op bounds, so rounds never recompute them.  A loop nest is scheduled
part by part over `dfg.nest_parts`, and its execution cycles are the sum
over its parts of runs x makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .dfg import (
    DEFAULT_LATENCIES,
    Dfg,
    InfeasibleLatency,
    LoopNest,
    min_latency,
    max_useful_latency,
    nest_parts,
)


class SchedulingError(Exception):
    pass


# Covers the rounding of forces and slack sums and the 5e-10 of
# round(force, 9), so a skipped op's key is strictly above the round's
# winner.  Those roundings are a few ulps of the prefix sums R, which stay
# below lam x ops x latency, so 1e-6 holds with room for the graphs here.
_MARGIN = 1e-6


@dataclass(frozen=True)
class Schedule:
    start: Mapping[int, int]  # op id -> control step
    lam: int

    def makespan(self, dfg: Dfg) -> int:
        return max((self.start[v] + dfg.lat[v] for v in dfg.order), default=0)


@dataclass(frozen=True)
class ResourceUsage:
    per_type: Mapping[str, int]


def resource_usage(dfg: Dfg, schedule: Schedule) -> ResourceUsage:
    """Most ops of each type busy in one step; types appear in the order of
    their first op in `dfg.ops`."""
    occupancy: dict[str, dict[int, int]] = {}
    for op in dfg.ops:
        slots = occupancy.setdefault(op.type, {})
        start = schedule.start[op.id]
        for t in range(start, start + dfg.lat[op.id]):
            slots[t] = slots.get(t, 0) + 1
    return ResourceUsage({t: max(slots.values()) for t, slots in occupancy.items()})


def validate_schedule(dfg: Dfg, schedule: Schedule) -> None:
    """Raise if frame containment, dependences, or the makespan bound fail."""
    early, lat = dfg.early, dfg.lat
    for op in dfg.ops:
        t = schedule.start[op.id]
        if t < early[op.id]:
            raise SchedulingError(f"op {op.id} scheduled before its earliest start")
        for p in dfg.preds[op.id]:
            if t < schedule.start[p] + lat[p]:
                raise SchedulingError(f"dependence {p} -> {op.id} violated")
        if t + lat[op.id] > schedule.lam:
            raise SchedulingError(f"op {op.id} finishes after the latency constraint")


# --- Distribution graphs -----------------------------------------------------

def _type_graph(
    kind: str, ops: Iterable[int], lam: int, lo: Sequence[int], hi: Sequence[int]
) -> list[float]:
    """Expected occupancy of type `kind` per control step 0..lam-1 from the
    frames of its `ops`, summed in the order given.  Each op spreads its
    latency evenly over the starts in its frame; the resulting trapezoid is
    added as four second differences and integrated twice."""
    d, lat = [0.0] * (lam + 2), DEFAULT_LATENCIES[kind]
    for v in ops:
        m = 1.0 / (hi[v] - lo[v] + 1)
        d[lo[v]] += m
        d[lo[v] + lat] -= m
        d[hi[v] + 1] -= m
        d[hi[v] + 1 + lat] += m
    return list(accumulate(accumulate(d)))[:lam]


def fds_schedule(dfg: Dfg, lam: int) -> Schedule:
    """Minimum-resource schedule under the latency constraint `lam`.

    Each round fixes the unfixed (op, step) pair with the least
    (round(force, 9), op, step), where the force of a pair is its self force
    plus its depth-1 predecessor/successor forces.  Frames come from
    `Dfg.frames` once; after each fix `_pin` narrows only the frames that
    the fixed op bounds and returns the ops whose frame moved.

    Per type, W[s] is the distribution-graph mass an op of that type covers
    when it starts at s, and R is the prefix sum of W.  The self force of
    (v, t) is W[t] - base[v]; the expected force of a frame [lo, hi] is
    (R[hi+1] - R[lo]) / (hi - lo + 1), so every force term costs O(1).
    (R equals the difference of two shifted second prefix sums of the
    graph, but its values stay small, and so do its rounding errors.)
    Each op's forces form one list over its frame, starting from the self
    forces.  An unfixed predecessor p adds its term only at the steps that
    cut p's frame (t < hi[p] + lat[p]), an unfixed successor s only at those
    that cut s's frame (t + lat[v] > lo[s]): predecessors in `preds` order,
    then successors, so each force sums its terms in one fixed order.

    Rounds are incremental.  Only the types of moved ops get their graph, W
    and R recomputed.  The changed ops are the unfixed ops of those types,
    which include the unfixed moved ops; each op keeps its least (key, op,
    step), and only the changed ops and the neighbours of changed or moved
    ops go stale, since no other op reads a frame, graph or base that
    moved.  A neighbour whose frame is one step adds no term, so fixing it
    where it must start dirties nothing.

    Stale ops are evaluated lazily.  A changed op u also keeps its slack,
    min(W[lo[u]:hi[u] + 1]) - base[u] <= 0: that is exactly its least self
    force, and no term u adds to a neighbour's force is below it, since a
    cut frame's mean W is at least the least W of the whole frame.  So
    slack[v] plus the slacks of v's unfixed neighbours bounds every force of
    v from below, and the bound holds until v goes stale again; a fixed op's
    slack is 0.  One heap holds every unfixed op, evaluated ones at their
    (key, op, step) and stale ones at their bound less `_MARGIN`; a round
    evaluates stale ops off its top until an evaluated pair is least, and
    fixes that pair.  The margin covers the rounding of the slack sums and
    of round(force, 9), so every op left stale has a key strictly above the
    winner's.  On the 128-op unrolled mhr body at lambda 63/84/105/126 a
    schedule evaluates 134/1,203/2,017/2,061 ops, where evaluating every
    stale op took 460/4,713/3,837/3,840.

    The schedules equal those of rebuilding and evaluating everything every
    round bit for bit: each graph sums its ops in `dfg.order`, every force
    keeps its expression and term order, and the least evaluated tuple is
    the least over all pairs.
    """
    needed = min_latency(dfg)
    if lam < needed:
        raise InfeasibleLatency(lam, needed)
    # Op i is the i-th lowest id, so comparing indices compares ids.
    ids = sorted(dfg.order)
    index = {v: i for i, v in enumerate(ids)}
    kind = [dfg.op(v).type for v in ids]
    lat = [dfg.lat[v] for v in ids]
    preds = [[index[p] for p in dfg.preds[v]] for v in ids]
    succs = [[index[s] for s in dfg.succs[v]] for v in ids]
    # The ops whose slack bounds each op's forces; a fixed op's slack is 0.
    around = [[v, *preds[v], *succs[v]] for v in range(len(ids))]
    lo_of, hi_of = dfg.frames(lam)
    lo, hi = [lo_of[v] for v in ids], [hi_of[v] for v in ids]
    of_type: dict[str, list[int]] = {}
    for v in dfg.order:
        of_type.setdefault(kind[index[v]], []).append(index[v])
    fixed = [False] * len(ids)
    window: dict[str, list[float]] = {}
    cum: dict[str, list[float]] = {}
    base = [0.0] * len(ids)
    slack = [0.0] * len(ids)
    # One heap holds each unfixed op's entry: (key, v, step) once evaluated,
    # (bound - margin, v, -1) while stale.  entry[v] is v's live entry; the
    # others are dropped when they reach the top, and all at once when the
    # heap holds four entries an op.
    heap: list[tuple[float, int, int]] = []
    entry: list[tuple[float, int, int] | None] = [None] * len(ids)
    start: dict[int, int] = {}
    moved = set(range(len(ids)))
    for _ in ids:
        types = {kind[u] for u in moved}
        for k in types:
            # W[s] = sum(dg[s:s + L]), added left to right.
            dg = w = _type_graph(k, of_type[k], lam, lo, hi)
            for shift in range(1, DEFAULT_LATENCIES[k]):
                w = [x + y for x, y in zip(w, dg[shift:])]
            window[k] = w
            cum[k] = [0.0, *accumulate(w)]
        # Every unfixed moved op is of a rebuilt type.
        changed = {u for k in types for u in of_type[k] if not fixed[u]}
        for u in changed:
            c, u_lo, u_hi = cum[kind[u]], lo[u], hi[u]
            base[u] = b = (c[u_hi + 1] - c[u_lo]) / (u_hi - u_lo + 1)
            slack[u] = min(window[kind[u]][u_lo:u_hi + 1]) - b
        dirty: set[int] = set()
        for u in changed | moved:
            dirty.update(around[u])
        for v in dirty:
            if not fixed[v]:
                b = -_MARGIN
                for u in around[v]:
                    b += slack[u]
                entry[v] = e = (b, v, -1)
                heappush(heap, e)
        if len(heap) > 4 * len(ids):
            heap = [e for e in heap if entry[e[1]] is e]
            heapify(heap)

        # Evaluate stale ops in bound order until an evaluated pair is least.
        while True:
            e = heap[0]
            v = e[1]
            if entry[v] is not e:
                heappop(heap)
            elif e[2] < 0:
                entry[v] = e = _least_force(
                    v, kind, lat, preds, succs, lo, hi, fixed, window, cum, base
                )
                heapreplace(heap, e)
            else:
                break

        _, v, t = heappop(heap)
        entry[v] = None
        fixed[v] = True
        slack[v] = 0.0
        start[ids[v]] = t
        moved = _pin(preds, succs, lat, lo, hi, fixed, v, t)

    schedule = Schedule(start, lam)
    validate_schedule(dfg, schedule)
    return schedule


def _least_force(
    v: int, kind: Sequence[str], lat: Sequence[int],
    preds: Sequence[Sequence[int]], succs: Sequence[Sequence[int]],
    lo: Sequence[int], hi: Sequence[int], fixed: Sequence[bool],
    window: Mapping[str, Sequence[float]], cum: Mapping[str, Sequence[float]],
    base: Sequence[float],
) -> tuple[float, int, int]:
    """The least (round(force, 9), v, step) over the steps of v's frame."""
    v_lo, v_hi, v_lat, b = lo[v], hi[v], lat[v], base[v]
    forces = [x - b for x in window[kind[v]][v_lo:v_hi + 1]]
    # Fixed neighbors never tighten: their one start already satisfies every
    # start in v's frame.  Frames are consistent, so a tightened frame is
    # never empty.
    for p in preds[v]:
        if fixed[p]:
            continue
        # Starting at t cuts p's frame to [lo[p], t - lat[p]].
        first = v_lo - lat[p] + 1
        cuts = hi[p] - first + 1
        if cuts > 0:
            pcum, plo, pbase = cum[kind[p]], lo[p], base[p]
            c0 = pcum[plo]
            head = [
                f + ((c - c0) / d - pbase)
                for f, c, d in zip(
                    forces, pcum[first:first + cuts], range(first - plo, hi[p] - plo + 1)
                )
            ]
            forces[:len(head)] = head
    for s in succs[v]:
        if fixed[s]:
            continue
        # Starting at t cuts s's frame to [t + lat[v], hi[s]].
        i = lo[s] + 1 - v_lat - v_lo
        if i < 0:
            i = 0
        if i <= v_hi - v_lo:
            scum, shi, sbase = cum[kind[s]], hi[s], base[s]
            c1, first = scum[shi + 1], v_lo + i + v_lat
            forces[i:] = [
                f + ((c1 - c) / d - sbase)
                for f, c, d in zip(forces[i:], scum[first:], range(shi - first + 1, 0, -1))
            ]
    # The least rounded force is that of the least force (rounding is
    # monotone); an earlier step ties it only from within 1e-8.
    least = min(forces)
    i, key = forces.index(least), round(least, 9)
    if i and min(forces[:i]) - least < 1e-8:
        i = next(j for j, force in enumerate(forces) if round(force, 9) == key)
    return key, v, v_lo + i


def _pin(
    preds: Sequence[Sequence[int]], succs: Sequence[Sequence[int]], lat: Sequence[int],
    lo: list[int], hi: list[int], fixed: Sequence[bool], v: int, t: int,
) -> set[int]:
    """Narrow the frames once `v` is fixed at step `t`: pin v's frame, push
    `lo` forward through unfixed successors and `hi` back through unfixed
    predecessors, and stop where a bound does not move.  The frames then
    equal `dfg.frames(lam, fixed)`.  Returns the ops whose frame moved."""
    moved = {v} if lo[v] < hi[v] else set()
    lo[v] = hi[v] = t
    stack = [v]
    while stack:
        u = stack.pop()
        end = lo[u] + lat[u]
        for s in succs[u]:
            if lo[s] < end and not fixed[s]:
                lo[s] = end
                moved.add(s)
                stack.append(s)
    stack = [v]
    while stack:
        u = stack.pop()
        for p in preds[u]:
            start = hi[u] - lat[p]
            if hi[p] > start and not fixed[p]:
                hi[p] = start
                moved.add(p)
                stack.append(p)
    return moved


def schedule_nest(nest: LoopNest, lam: int) -> tuple[int, ResourceUsage, dict]:
    """Schedule a whole loop nest: each loop body under the per-iteration
    latency constraint `lam`, the pre/post segments at their minimum latency.

    Returns the execution cycles of one activation (the sum over the parts
    of runs x makespan), the combined resource usage (per-type maximum
    across parts — parts never run concurrently), and the individual
    schedules keyed 'pre'/'post'/loop position.
    """
    return schedule_sweep(nest, [lam])[0]


def schedule_sweep(
    nest: LoopNest, lams: Iterable[int]
) -> list[tuple[int, ResourceUsage, dict]]:
    """`schedule_nest` at each latency constraint in `lams`, in order.  The
    pre/post segments do not depend on the constraint, so each is scheduled
    once and its schedule is shared by every row."""
    parts = [
        (key, part, runs) for key, (part, runs) in nest_parts(nest).items()
        if part is not None and part.ops
    ]
    segments = {
        key: fds_schedule(part, min_latency(part))
        for key, part, _ in parts if isinstance(key, str)
    }
    rows = []
    for lam in lams:
        schedules: dict = {}
        combined: dict[str, int] = {}
        cycles = 0
        for key, part, runs in parts:
            sched = segments[key] if isinstance(key, str) else fds_schedule(part, lam)
            schedules[key] = sched
            for t, r in resource_usage(part, sched).per_type.items():
                combined[t] = max(combined.get(t, 0), r)
            cycles += runs * sched.makespan(part)
        rows.append((max(1, cycles), ResourceUsage(combined), schedules))
    return rows


def format_schedule(dfg: Dfg, schedule: Schedule) -> str:
    """Textual `.sched` form: one `op <id> @ <cstep>` line per operation plus
    a resource summary block."""
    lines = [f"latency {schedule.lam}"]
    for op in dfg.ops:
        lines.append(f"op {op.id} @ {schedule.start[op.id]}")
    usage = resource_usage(dfg, schedule)
    lines.append("resources {")
    for t in sorted(usage.per_type):
        lines.append(f"  {t} {usage.per_type[t]}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def latency_sweep(dfg: Dfg, points: int = 4) -> list[int]:
    """Up to `points` evenly spaced latency constraints from the minimum
    achievable latency to the longest useful one."""
    if points < 1:
        raise SchedulingError(f"need at least one exploration point, got {points}")
    lo = min_latency(dfg)
    hi = max_useful_latency(dfg)
    if points == 1 or hi == lo:
        return [lo]
    return sorted({round(lo + (hi - lo) * k / (points - 1)) for k in range(points)})

