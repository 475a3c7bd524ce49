"""The enumerating front: the oracle for `dse`'s merged front.

It evaluates every configuration of a flat space a chunk at a time with
`kernels.evaluate_combos` and merges each chunk's feasible points into the
running front with `kernels.pareto_mask`, so its areas and energies are the
enumerated values by construction.
"""

import numpy as np

from psmsynth import dse, kernels


def enumerate_front(space, window, static_fraction=0.0, independent=False, chunk=dse.CHUNK):
    """(front areas, front energies in mJ, front config ids), sorted by area,
    energy and id, and the number of feasible configs."""
    front_a = np.empty(0)
    front_e = np.empty(0)
    front_i = np.empty(0, dtype=np.int64)
    feasible = 0
    for start in range(0, space.total, chunk):
        count = min(chunk, space.total - start)
        areas, energies, ok, _, _ = kernels.evaluate_combos(
            start, count, space.offsets, space.sizes, space.f_req, space.f_max,
            space.power, space.area, static_fraction, independent,
        )
        energies = energies * window
        ids = np.arange(start, start + count, dtype=np.int64)
        feasible += int(ok.sum())
        cand_a = np.concatenate([front_a, areas[ok]])
        cand_e = np.concatenate([front_e, energies[ok]])
        cand_i = np.concatenate([front_i, ids[ok]])
        keep = kernels.pareto_mask(cand_a, cand_e)
        front_a, front_e, front_i = cand_a[keep], cand_e[keep], cand_i[keep]
    order = np.lexsort((front_i, front_e, front_a))
    return front_a[order], front_e[order], front_i[order], feasible
