"""Numeric kernels: the sort-and-scan mask must agree exactly with the
pairwise oracle, and configuration evaluation with a nested-loop reference."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from psmsynth import kernels


def clouds(seed=0, count=50, max_n=600):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, max_n))
        xs = rng.random(n)
        ys = rng.random(n)
        if i % 3 == 0:
            # Quantized coordinates produce exact ties and duplicates.
            xs = np.round(xs, 1)
            ys = np.round(ys, 1)
        yield xs, ys


def reference_mask(xs, ys):
    n = len(xs)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if (
                xs[j] <= xs[i]
                and ys[j] <= ys[i]
                and (xs[j] < xs[i] or ys[j] < ys[i])
            ):
                keep[i] = False
                break
    return keep


def test_brute_mask_matches_python_reference():
    for xs, ys in clouds(seed=1, count=20, max_n=120):
        assert np.array_equal(kernels.pareto_mask_brute(xs, ys), reference_mask(xs, ys))


def test_scan_mask_matches_brute_mask():
    for xs, ys in clouds(seed=2):
        assert np.array_equal(kernels.pareto_mask(xs, ys), kernels.pareto_mask_brute(xs, ys))


def test_exact_ties_are_kept():
    xs = np.array([1.0, 1.0, 2.0])
    ys = np.array([2.0, 2.0, 1.0])
    assert kernels.pareto_mask(xs, ys).all()
    assert kernels.pareto_mask_brute(xs, ys).all()


def test_single_point_and_dominated_point():
    xs = np.array([1.0])
    ys = np.array([1.0])
    assert kernels.pareto_mask(xs, ys).tolist() == [True]
    xs = np.array([1.0, 2.0])
    ys = np.array([1.0, 2.0])
    assert kernels.pareto_mask(xs, ys).tolist() == [True, False]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda p: (float(p[0]), float(p[1]))),
    max_size=40,
))
def test_scan_mask_matches_brute_mask_on_tie_heavy_sets(points):
    # Small integer grids give empty input, exact duplicates and runs of
    # equal x or equal y.
    xs = np.array([x for x, _ in points], dtype=np.float64)
    ys = np.array([y for _, y in points], dtype=np.float64)
    assert np.array_equal(kernels.pareto_mask(xs, ys), kernels.pareto_mask_brute(xs, ys))
    assert np.array_equal(kernels.pareto_mask(xs, ys), reference_mask(xs, ys))


def _random_space(seed, n_groups=3, group_size=4):
    rng = np.random.default_rng(seed)
    n = n_groups * group_size
    return dict(
        offsets=np.arange(n_groups, dtype=np.int64) * group_size,
        sizes=np.full(n_groups, group_size, dtype=np.int64),
        f_req=rng.uniform(1e6, 2e8, n),
        f_max=rng.uniform(5e7, 2e8, n),
        power=rng.uniform(50.0, 300.0, n),
        area=rng.uniform(100.0, 9000.0, n),
    )


def _combo_reference(space, static_fraction=0.0, independent=False):
    """Plain nested-loop evaluation in itertools.product order."""
    d = static_fraction
    n_groups = len(space["sizes"])
    areas, energies, feasible, f_common = [], [], [], []
    for combo in itertools.product(*(range(s) for s in space["sizes"])):
        rows = [space["offsets"][g] + combo[g] for g in range(n_groups)]
        fc = max(space["f_req"][r] for r in rows)
        clocks = {r: space["f_req"][r] if independent else fc for r in rows}
        areas.append(sum(space["area"][r] for r in rows))
        energies.append(sum(
            space["power"][r] * (d + (1.0 - d) * (clocks[r] / space["f_max"][r])) for r in rows
        ))
        feasible.append(all(clocks[r] <= space["f_max"][r] for r in rows))
        f_common.append(fc)
    return [areas, energies, feasible, f_common]


def test_combo_evaluation_matches_nested_loop_order():
    space = _random_space(4)
    total = int(np.prod(space["sizes"]))
    for static_fraction in (0.0, 0.3):
        for independent in (False, True):
            got = kernels.evaluate_combos(
                0, total, space["offsets"], space["sizes"],
                space["f_req"], space["f_max"], space["power"], space["area"],
                static_fraction, independent,
            )
            ref = _combo_reference(space, static_fraction, independent)
            assert [g.tolist() for g in got] == ref


def test_combo_evaluation_chunking_is_seamless():
    space = _random_space(5)
    total = int(np.prod(space["sizes"]))
    whole = kernels.evaluate_combos(
        0, total, space["offsets"], space["sizes"],
        space["f_req"], space["f_max"], space["power"], space["area"],
    )
    parts = [
        kernels.evaluate_combos(
            start, min(7, total - start), space["offsets"], space["sizes"],
            space["f_req"], space["f_max"], space["power"], space["area"],
        )
        for start in range(0, total, 7)
    ]
    for k in range(4):
        np.testing.assert_array_equal(np.concatenate([p[k] for p in parts]), whole[k])

