"""Numerical hot paths for design-space exploration, in numpy.

`pareto_mask` extracts the non-dominated (area, energy) points by one
lexicographic sort and a prefix-minimum scan; `pareto_mask_brute` is the
quadratic pairwise definition it must agree with, kept as the oracle for the
tests.  `evaluate_combos` evaluates a contiguous range of configurations of a
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


def pareto_mask(xs, ys):
    """Non-dominated mask via lexicographic sort and a single min-scan.
    Identical semantics to `pareto_mask_brute` in O(n log n)."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    # Scanning in (x, y) order, a point is dropped iff its y exceeds the best
    # y seen before it, or equals it while the point that set that best has
    # a smaller x.  The best so far is a prefix minimum, and the point that
    # set it is the last one to lower it.
    n = xs.shape[0]
    keep = np.ones(n, dtype=np.bool_)
    if n == 0:
        return keep
    order = np.lexsort((ys, xs))
    x = xs[order]
    y = ys[order]
    best = np.empty(n)
    best[0] = np.inf
    np.minimum.accumulate(y[:-1], out=best[1:])
    setter = np.maximum.accumulate(np.where(y < best, np.arange(n), -1))
    before = np.concatenate(([-1], setter[:-1]))
    best_x = np.where(before >= 0, x[before], np.inf)
    keep[order] = ~((y > best) | ((y == best) & (best_x < x)))
    return keep


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


def evaluate_rows(rows, f_req, f_max, power, area, static_fraction=0.0, independent=False):
    """Evaluate the configurations whose choices are the columns of `rows`.

    Power scales from each row's f_max down to its clock with `scaled_power`.
    The clock is the configuration's common frequency, the largest f_req of its
    rows, which must not exceed any row's f_max; with `independent` each row
    runs at its own f_req and must only meet its own f_max.  Sums run over
    the groups in order, starting from 0.0, exactly like Python's `sum`.

    Returns (total area, energy per second, feasible, common frequency).
    """
    count = rows.shape[1]
    f_common = np.zeros(count)
    total_area = np.zeros(count)
    energy = np.zeros(count)
    feasible = np.ones(count, dtype=np.bool_)
    for r in rows:
        np.maximum(f_common, f_req[r], out=f_common)
        total_area += area[r]
    if independent:
        scaled = scaled_power(power, f_req, f_max, static_fraction)
        meets = f_req <= f_max
        for r in rows:
            energy += scaled[r]
            feasible &= meets[r]
    else:
        for r in rows:
            energy += scaled_power(power[r], f_common, f_max[r], static_fraction)
            feasible &= f_common <= f_max[r]
    return total_area, energy, feasible, f_common


def evaluate_combos(start, count, offsets, sizes, f_req, f_max, power, area,
                    static_fraction=0.0, independent=False):
    """Evaluate configurations [start, start+count) of the cartesian product
    with `evaluate_rows`; multiply the energy by the accounting window
    outside."""
    ids = np.arange(start, start + count, dtype=np.int64)
    return evaluate_rows(
        combo_rows(ids, offsets, sizes), f_req, f_max, power, area,
        static_fraction, independent,
    )
