"""Exact minimum-area schedules: the judge of the force-directed scheduler.

The time-indexed integer program of Hwang, Lee & Hsu (IEEE TCAD 1991): a
binary x[v, t] for each op v and each start t in its time frame, one start
per op, each dependence p -> s as sum(t x[s, t]) - sum(t x[p, t]) >= lat[p],
and for each op type k and control step at most N_k ops of type k busy.  It
minimises sum(area[k] N_k), so the `estimate_area` of an optimal schedule is
that objective times (1 + OVERHEAD).  HiGHS solves it through
`scipy.optimize.milp`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import coo_array

from psmsynth.cost import OVERHEAD, CostTable, estimate_area
from psmsynth.dfg import Dfg
from psmsynth.fds import Schedule, resource_usage, validate_schedule


def area(dfg: Dfg, schedule: Schedule) -> float:
    """The pipeline's area estimate of the units `schedule` occupies."""
    return estimate_area(resource_usage(dfg, schedule).per_type)


def min_area_schedule(dfg: Dfg, lam: int) -> Schedule:
    """A schedule of least area under the latency constraint `lam`.

    Fails when the solver finds no optimum, when its schedule is invalid
    (`validate_schedule`), or when the schedule's area is not the objective
    the solver reports.
    """
    lo, hi = dfg.frames(lam)
    kind = {op.id: op.type for op in dfg.ops}
    starts = {v: range(lo[v], hi[v] + 1) for v in dfg.order}
    col = {(v, t): i for i, (v, t) in enumerate((v, t) for v in dfg.order for t in starts[v])}
    types = sorted(set(kind.values()))
    units = {k: len(col) + i for i, k in enumerate(types)}

    # Each constraint is (terms, lower bound, upper bound); a term is
    # (column, coefficient).
    constraints: list[tuple[list[tuple[int, int]], float, float]] = []
    for v in dfg.order:
        constraints.append(([(col[v, t], 1) for t in starts[v]], 1, 1))
        for p in dfg.preds[v]:
            terms = [(col[v, t], t) for t in starts[v]] + [(col[p, t], -t) for t in starts[p]]
            constraints.append((terms, dfg.lat[p], np.inf))
    busy: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for (v, t), i in col.items():
        for step in range(t, t + dfg.lat[v]):
            busy.setdefault((kind[v], step), []).append((i, 1))
    for (k, _), terms in busy.items():
        constraints.append((terms + [(units[k], -1)], -np.inf, 0))

    n = len(col) + len(types)
    rows, cols, coefs = zip(
        *((r, i, a) for r, (terms, _, _) in enumerate(constraints) for i, a in terms)
    )
    _, lower, upper = zip(*constraints)
    weights = CostTable().area
    objective = np.zeros(n)
    objective[list(units.values())] = [weights[k] for k in units]
    result = milp(
        objective,
        constraints=LinearConstraint(
            coo_array((coefs, (rows, cols)), shape=(len(constraints), n)), lower, upper
        ),
        integrality=np.ones_like(objective),
        bounds=(0, [1] * len(col) + [len(dfg.ops)] * len(types)),
        options={"mip_rel_gap": 0},
    )
    assert result.status == 0, f"no optimum at lambda {lam}: {result.message}"

    schedule = Schedule({v: t for (v, t), i in col.items() if result.x[i] > 0.5}, lam)
    validate_schedule(dfg, schedule)
    got = area(dfg, schedule)
    assert math.isclose(got, (1 + OVERHEAD) * result.fun, rel_tol=1e-9), (got, result.fun)
    return schedule
