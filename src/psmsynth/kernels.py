"""Numerical hot paths for design-space exploration, in numpy.

`dominated` is the one dominance test: `pareto_mask` is its complement,
and `dse`'s merge prunes and skips clocks with it.  `pareto_mask_brute` is
the quadratic pairwise definition they must agree with, kept as the oracle.
`evaluate_combos` evaluates a contiguous range of configurations of a
cartesian product of per-computation alternatives.
"""

from __future__ import annotations

import numpy as np

HAVE_NUMBA = False  # numpy is the only path; perfbench still reports this flag

BRUTE_CHUNK = 512  # rows of the pairwise comparison per step


def pareto_mask_brute(xs, ys):
    """Exact non-dominated mask by pairwise comparison: a point is removed iff
    another point is <= in both coordinates and < in at least one (exact ties
    are kept).  Quadratic; used as the oracle."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    n = xs.shape[0]
    keep = np.ones(n, dtype=np.bool_)
    for lo in range(0, n, BRUTE_CHUNK):
        hi = min(lo + BRUTE_CHUNK, n)
        cx = xs[lo:hi, None]
        cy = ys[lo:hi, None]
        dominated = (
            (xs[None, :] <= cx)
            & (ys[None, :] <= cy)
            & ((xs[None, :] < cx) | (ys[None, :] < cy))
        ).any(axis=1)
        keep[lo:hi] = ~dominated
    return keep


def dominated(xs, ys, margin_x=0.0, margin_y=0.0):
    """Mask of the points i that another point beats by more than the
    margins (>= 0; no NaN): one with x < x_i - margin_x and y <= y_i, or
    with x <= x_i and y < y_i - margin_y.  With no margins this is Pareto
    dominance.  `best[k - 1]` is the least y of the k points of least x, so
    only x is sorted, and k counts the points left of each query."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    order = np.argsort(xs, kind="stable")  # quicksort maps ~0.5 MB more code into RSS
    x = xs[order]
    y = ys[order]
    best = np.minimum.accumulate(y)
    left = np.searchsorted(x, x - margin_x, side="left")
    upto = np.searchsorted(x, x, side="right")
    mask = np.empty(len(x), dtype=np.bool_)
    mask[order] = ((left > 0) & (best[left - 1] <= y)) | (best[upto - 1] < y - margin_y)
    return mask


def pareto_mask(xs, ys):
    """Non-dominated mask in O(n log n), identical to `pareto_mask_brute`."""
    return ~dominated(xs, ys)


# --- Cartesian-product configuration evaluation ------------------------------
#
# Alternatives of all groups are packed into flat arrays; `offsets[g]` is the
# start of group g and `sizes[g]` its length.  A configuration index decodes
# mixed-radix with the last group varying fastest (plain nested-loop order).

def combo_rows(ids, offsets, sizes):
    """Flat row of each group's choice for every configuration id, as an
    (n_groups, len(ids)) array."""
    idx = np.array(ids, dtype=np.int64)
    rows = np.empty((sizes.shape[0], idx.shape[0]), dtype=np.int64)
    for g in range(sizes.shape[0] - 1, -1, -1):
        rows[g] = offsets[g] + idx % sizes[g]
        idx //= sizes[g]
    return rows


def scaled_power(power, f, f_max, d):
    """Power drawn at clock f by a design that draws `power` at its f_max,
    d being the static fraction that does not scale.  The one form of this
    rule, so that every caller rounds alike."""
    return power * (d + (1.0 - d) * (f / f_max))


def evaluate_combos(start, count, offsets, sizes, f_req, f_max, power, area,
                    static_fraction=0.0, independent=False):
    """Evaluate configurations [start, start+count) of the cartesian product.

    Power scales from each row's f_max down to its clock with `scaled_power`.
    A row's clock is its own f_req with `independent`, and otherwise the
    configuration's common frequency, the largest f_req of its rows; either
    way it must not exceed the row's f_max.  Sums run over the groups in
    order, starting from 0.0, exactly like Python's `sum`.

    Returns (total area, energy per second, feasible, common frequency,
    flat rows as `combo_rows` gives them); multiply the energy by the
    accounting window outside.
    """
    rows = combo_rows(np.arange(start, start + count, dtype=np.int64), offsets, sizes)
    f_common = np.zeros(count)
    total_area = np.zeros(count)
    energy = np.zeros(count)
    feasible = np.ones(count, dtype=np.bool_)
    for r in rows:
        np.maximum(f_common, f_req[r], out=f_common)
        total_area += area[r]
    for r in rows:
        f = f_req[r] if independent else f_common
        energy += scaled_power(power[r], f, f_max[r], static_fraction)
        feasible &= f <= f_max[r]
    return total_area, energy, feasible, f_common, rows
