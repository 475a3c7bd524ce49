"""Latency-constrained force-directed scheduling and whole-nest scheduling.

The force-directed scheduler fixes one operation per round at the
(operation, control step) pair with the lowest total force, where force is
measured against per-type distribution graphs.  Ties break on lowest total
force, then lowest op id, then earliest step, which makes results
byte-for-byte reproducible.

Every routine here reads the dependence index each `Dfg` builds once, when
it is constructed: operation predecessors and successors, dependence order,
and the latency of each op, which is fixed by its type
(`dfg.DEFAULT_LATENCIES`).  Time frames come from `Dfg.frames`.  A loop
nest is scheduled part by part over `dfg.nest_parts`, and its execution
cycles are the sum over its parts of runs x makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

from .dfg import (
    DEFAULT_LATENCIES,
    Dfg,
    InfeasibleLatency,
    LoopNest,
    asap,
    min_latency,
    max_useful_latency,
    nest_parts,
)


class SchedulingError(Exception):
    pass


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
    early, lat = asap(dfg), dfg.lat
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

def _distribution_graphs(
    dfg: Dfg, kind: Mapping[int, str], lam: int, lo: Mapping[int, int], hi: Mapping[int, int]
) -> dict[str, list[float]]:
    """Expected occupancy per type (`kind` maps op to type) and control step
    0..lam-1.  Each op spreads its latency evenly over the starts in its
    frame; the resulting trapezoid is added as four second differences and
    integrated twice."""
    second = {k: [0.0] * (lam + 2) for k in sorted(set(kind.values()))}
    for v in dfg.order:
        d, lat, m = second[kind[v]], dfg.lat[v], 1.0 / (hi[v] - lo[v] + 1)
        d[lo[v]] += m
        d[lo[v] + lat] -= m
        d[hi[v] + 1] -= m
        d[hi[v] + 1 + lat] += m
    return {kind: list(accumulate(accumulate(d)))[:lam] for kind, d in second.items()}


def fds_schedule(dfg: Dfg, lam: int) -> Schedule:
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
    needed = min_latency(dfg)
    if lam < needed:
        raise InfeasibleLatency(lam, needed)
    kind, lat = {op.id: op.type for op in dfg.ops}, dfg.lat
    unfixed = sorted(dfg.order)
    fixed: dict[int, int] = {}
    while unfixed:
        lo, hi = dfg.frames(lam, fixed)
        graphs = _distribution_graphs(dfg, kind, lam, lo, hi)
        window: dict[str, list[float]] = {}
        cum: dict[str, list[float]] = {}
        for k, dg in graphs.items():
            k_lat = DEFAULT_LATENCIES[k]
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
                for p in dfg.preds[v] if p not in fixed
            ]
            after = [
                (lo[s], hi[s], cum[kind[s]], base[s])
                for s in dfg.succs[v] if s not in fixed
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
    validate_schedule(dfg, schedule)
    return schedule


def schedule_nest(nest: LoopNest, lam: int) -> tuple[int, ResourceUsage, dict]:
    """Schedule a whole loop nest: each loop body under the per-iteration
    latency constraint `lam`, the pre/post segments at their minimum latency.

    Returns the execution cycles of one activation (the sum over the parts
    of runs x makespan), the combined resource usage (per-type maximum
    across parts — parts never run concurrently), and the individual
    schedules keyed 'pre'/'post'/loop position.
    """
    schedules: dict = {}
    combined: dict[str, int] = {}
    cycles = 0
    for key, (part, runs) in nest_parts(nest).items():
        if part is None or not part.ops:
            continue
        constraint = min_latency(part) if isinstance(key, str) else lam
        sched = fds_schedule(part, constraint)
        schedules[key] = sched
        for t, r in resource_usage(part, sched).per_type.items():
            combined[t] = max(combined.get(t, 0), r)
        cycles += runs * sched.makespan(part)
    return max(1, cycles), ResourceUsage(combined), schedules


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

