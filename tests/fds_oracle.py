"""The plain force-directed scheduler: the judge of
`psmsynth.fds.fds_schedule`.

Every round rebuilds every per-type distribution graph from all frames and
re-evaluates every unfixed op at every step of its frame.  The scheduler in
`src/` must fix the same (op, step) in every round, so its schedules equal
these bit for bit.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Mapping

from psmsynth.dfg import DEFAULT_LATENCIES, Dfg, InfeasibleLatency, min_latency
from psmsynth.fds import Schedule, validate_schedule


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

    Each round evaluates the self force plus depth-1 predecessor/successor
    forces for every unfixed (op, step) candidate and fixes the
    minimum-force pair.  Frames come from `Dfg.frames` once; after each fix
    `_pin` narrows only the frames that the fixed op bounds.

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
    """
    needed = min_latency(dfg)
    if lam < needed:
        raise InfeasibleLatency(lam, needed)
    kind, lat = {op.id: op.type for op in dfg.ops}, dfg.lat
    lo, hi = dfg.frames(lam)
    unfixed = sorted(dfg.order)
    fixed: dict[int, int] = {}
    while unfixed:
        graphs = _distribution_graphs(dfg, kind, lam, lo, hi)
        window: dict[str, list[float]] = {}
        cum: dict[str, list[float]] = {}
        for k, dg in graphs.items():
            # W[s] = sum(dg[s:s + L]), added left to right.
            w = dg
            for shift in range(1, DEFAULT_LATENCIES[k]):
                w = [x + y for x, y in zip(w, dg[shift:])]
            window[k] = w
            cum[k] = [0.0, *accumulate(w)]
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
            v_lo, v_hi, v_lat, b = lo[v], hi[v], lat[v], base[v]
            forces = [x - b for x in window[kind[v]][v_lo:v_hi + 1]]
            # Fixed neighbors never tighten: their one start already
            # satisfies every start in v's frame.  Frames are consistent, so
            # a tightened frame is never empty.
            for p in dfg.preds[v]:
                if p in fixed:
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
            for s in dfg.succs[v]:
                if s in fixed:
                    continue
                # Starting at t cuts s's frame to [t + lat[v], hi[s]].
                i = max(lo[s] + 1 - v_lat - v_lo, 0)
                if i <= v_hi - v_lo:
                    scum, shi, sbase = cum[kind[s]], hi[s], base[s]
                    c1, first = scum[shi + 1], v_lo + i + v_lat
                    forces[i:] = [
                        f + ((c1 - c) / d - sbase)
                        for f, c, d in zip(forces[i:], scum[first:], range(shi - first + 1, 0, -1))
                    ]
            if min(forces) < best_force:
                for i, force in enumerate(forces):
                    if force < best_force:
                        key = round(force, 9)
                        if key < best_key:
                            best_key, best_force, best_v, best_t = key, force, v, v_lo + i
        fixed[best_v] = best_t
        unfixed.remove(best_v)
        _pin(dfg, lo, hi, fixed, best_v)

    schedule = Schedule(dict(fixed), lam)
    validate_schedule(dfg, schedule)
    return schedule


def _pin(
    dfg: Dfg, lo: dict[int, int], hi: dict[int, int], fixed: Mapping[int, int], v: int
) -> None:
    """Narrow the frames once `v` is fixed at `fixed[v]`: pin v's frame,
    push `lo` forward through unfixed successors and `hi` back through
    unfixed predecessors, and stop where a bound does not move.  The frames
    then equal `dfg.frames(lam, fixed)`."""
    lat = dfg.lat
    lo[v] = hi[v] = fixed[v]
    stack = [v]
    while stack:
        u = stack.pop()
        end = lo[u] + lat[u]
        for s in dfg.succs[u]:
            if lo[s] < end and s not in fixed:
                lo[s] = end
                stack.append(s)
    stack = [v]
    while stack:
        u = stack.pop()
        for p in dfg.preds[u]:
            start = hi[u] - lat[p]
            if hi[p] > start and p not in fixed:
                hi[p] = start
                stack.append(p)
