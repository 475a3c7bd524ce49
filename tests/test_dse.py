"""Timing-constrained design-space exploration."""

import hashlib
import itertools
import math
import random
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from front_oracle import enumerate_front
from psmsynth import cli, dse, kernels
from psmsynth.cost import MHZ, MccAlternative, load_alternatives
from psmsynth.dse import (
    EnvelopeEntry,
    FlatSpace,
    InfeasibleConfigError,
    explore,
    explore_streaming,
    flatten_groups,
    required_frequency,
    synthetic_space,
)

WINDOW = Fraction(1, 10)


def alt(mcc, cycles, fmax_mhz, area, power, unroll=0, lam=None):
    return MccAlternative(
        mcc, "measured", unroll, lam, cycles, fmax_mhz * MHZ, area, power
    )


def env_for(groups, period=WINDOW, **kwargs):
    return {n: EnvelopeEntry(period, **kwargs) for n in groups}


def load_groups(path):
    groups = {}
    for row in load_alternatives(path):
        groups.setdefault(row.mcc, []).append(row)
    return groups


def load_groups_wpm():
    from conftest import FIXTURES

    return load_groups(FIXTURES / "wpm_lcfds.csv")


def oracle_configs(groups, env, window, static_fraction=0.0, independent=False):
    """Plain per-config loop with the formula and summation order of the
    exploration: one (indices, f_common, area, energy in mJ, feasible) tuple
    per configuration, last group varying fastest."""
    d = static_fraction
    names = list(groups)
    out = []
    for combo in itertools.product(*(range(len(groups[n])) for n in names)):
        choices = [groups[n][i] for n, i in zip(names, combo)]
        f_reqs = [required_frequency(a, env[a.mcc]) for a in choices]
        f_common = max(f_reqs)
        clocks = f_reqs if independent else [f_common] * len(choices)
        energy = sum(
            a.power * (d + (1.0 - d) * (f / a.f_max)) for f, a in zip(clocks, choices)
        ) * float(window)
        if independent:
            feasible = all(f <= a.f_max for f, a in zip(f_reqs, choices))
        else:
            feasible = f_common <= min(a.f_max for a in choices)
        out.append((combo, f_common, sum(a.area for a in choices), energy, feasible))
    return out


def oracle_front(configs):
    """Ids of the feasible configs no other feasible config dominates,
    sorted by (area, energy, id); exact ties are kept."""
    points = [(c[2], c[3], k) for k, c in enumerate(configs) if c[4]]
    front = [
        p for p in points
        if not any(q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1]) for q in points)
    ]
    return [k for _, _, k in sorted(front)]


def explore_in_temp(groups, env, window=WINDOW, *args, **kwargs):
    with tempfile.TemporaryDirectory() as out:
        return explore(groups, env, window, out, *args, **kwargs)


# --- Frequency derivation -----------------------------------------------------

def test_required_frequency_is_cycles_over_period():
    a = alt("m", 885_316, 94, 1.0, 1.0)
    assert required_frequency(a, EnvelopeEntry(WINDOW)) == pytest.approx(8.85316 * MHZ)


def test_required_frequency_accounts_for_invocations_and_reserve():
    a = alt("m", 100, 100, 1.0, 1.0)
    entry = EnvelopeEntry(Fraction(1, 1000), invocations=3, reserved_cycles=10)
    assert required_frequency(a, entry) == pytest.approx(3 * 110 / 1e-3)


def test_common_frequency_takes_worst_requirement():
    groups = {"a": [alt("a", 1000, 100, 1, 1)], "b": [alt("b", 5000, 100, 1, 1)]}
    for independent in (False, True):
        report = explore_in_temp(groups, env_for(groups), independent=independent)
        assert report.configs[0].f_common == pytest.approx(5000 / 0.1)


def test_common_frequency_infeasible_when_above_fmax():
    # a needs 50 MHz (rated 100), b's first row 150 MHz (rated 200): each
    # meets its own rating, but the common 150 MHz exceeds a's.
    groups = {
        "a": [alt("a", 5_000_000, 100, 1, 1)],
        "b": [alt("b", 15_000_000, 200, 1, 1), alt("b", 2_000_000, 200, 1, 1)],
    }
    common = explore_in_temp(groups, env_for(groups))
    assert [c.feasible for c in common.configs] == [False, True]
    assert common.configs[0].f_common == pytest.approx(150 * MHZ)
    independent = explore_in_temp(groups, env_for(groups), independent=True)
    assert [c.feasible for c in independent.configs] == [True, True]


# --- Energy model -------------------------------------------------------------

def test_energy_scales_power_to_common_frequency():
    groups = {
        "a": [alt("a", 1000, 100, 1.0, 40.0)],  # needs 0.01 MHz
        "b": [alt("b", 5_000_000, 100, 1.0, 60.0)],  # needs 50 MHz
    }
    report = explore_in_temp(groups, env_for(groups))
    # Both scale to 50 MHz: (40 + 60) * 0.5 * 0.1 s = 5 mJ.
    assert report.configs[0].energy == pytest.approx(5.0)


def test_static_fraction_limits_scaling_gain():
    groups = {"a": [alt("a", 1000, 100, 1.0, 100.0)]}
    full, floored = (
        explore_in_temp(groups, env_for(groups), static_fraction=d).configs[0]
        for d in (0.0, 0.5)
    )
    assert floored.energy > full.energy
    # delta_s = 0.5 keeps at least half the unscaled power.
    assert floored.energy >= 0.5 * 100.0 * 0.1


def test_independent_clocks_never_cost_more_energy():
    groups = load_groups_wpm()
    env = env_for(groups)
    shared = explore_in_temp(groups, env).configs
    per_clock = explore_in_temp(groups, env, independent=True).configs
    for s, p in zip(shared, per_clock):
        assert p.energy <= s.energy + 1e-12


def _space_strategy():
    f_max = st.sampled_from([50.0, 100.0, 150.0])
    area = st.one_of(st.sampled_from([0.0, 100.0, 250.5]), st.floats(0.0, 1e4))
    power = st.one_of(st.sampled_from([0.0, 10.0, 33.3]), st.floats(0.0, 500.0))
    row = st.tuples(st.integers(1, 2_000_000), f_max, area, power)

    @st.composite
    def space(draw):
        groups, entries = {}, {}
        for g in range(draw(st.integers(1, 3))):
            name = f"m{g}"
            rows = draw(st.lists(row, min_size=1, max_size=4))
            rows += draw(st.lists(st.sampled_from(rows), max_size=2))  # repeated rows
            groups[name] = [alt(name, *r, unroll=k) for k, r in enumerate(rows)]
            entries[name] = EnvelopeEntry(
                draw(st.sampled_from([WINDOW, Fraction(1, 100), Fraction(3, 70)])),
                invocations=draw(st.integers(1, 3)),
                reserved_cycles=draw(st.integers(0, 50)),
            )
        return groups, entries

    return space()


@settings(max_examples=80, deadline=None)
@given(
    _space_strategy(),
    st.sampled_from([0.0, 0.2, 0.5]),
    st.booleans(),
    st.sampled_from([WINDOW, Fraction(1, 3)]),
)
def test_kernel_and_explore_match_the_scalar_oracle(space, static_fraction, independent, window):
    groups, env = space
    expected = oracle_configs(groups, env, window, static_fraction, independent)
    flat = flatten_groups(groups, env)
    area, energy, feasible, f_common = kernels.evaluate_combos(
        0, flat.total, flat.offsets, flat.sizes, flat.f_req, flat.f_max, flat.power,
        flat.area, static_fraction, independent,
    )
    assert f_common.tolist() == [c[1] for c in expected]
    assert area.tolist() == [c[2] for c in expected]
    assert (energy * float(window)).tolist() == [c[3] for c in expected]
    assert feasible.tolist() == [c[4] for c in expected]

    if not any(c[4] for c in expected):
        with pytest.raises(InfeasibleConfigError):
            explore_in_temp(groups, env, window, static_fraction, independent)
        return
    report = explore_in_temp(groups, env, window, static_fraction, independent)
    got = [(c.indices, c.f_common, c.area, c.energy, c.feasible) for c in report.configs]
    assert got == expected
    assert [c.config_id for c in report.configs] == list(range(len(expected)))
    assert [c.config_id for c in report.front] == oracle_front(expected)


# --- Enumeration --------------------------------------------------------------

def test_enumeration_covers_cartesian_product_in_order():
    groups = {
        "a": [alt("a", 1000, 100, 1, 1, unroll=0), alt("a", 900, 100, 2, 2, unroll=4)],
        "b": [alt("b", 1000, 100, 3, 3, lam=1), alt("b", 900, 100, 4, 4, lam=2),
              alt("b", 800, 100, 5, 5, lam=3)],
    }
    configs = explore_in_temp(groups, env_for(groups)).configs
    assert len(configs) == 6
    assert [c.config_id for c in configs] == list(range(6))
    # Last group varies fastest.
    assert [c.indices for c in configs] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]
    assert all(c.area == c.choices[0].area + c.choices[1].area for c in configs)


def test_report_configs_is_a_read_only_sequence():
    groups = {"a": [alt("a", 1000, 100, 1, 1), alt("a", 900, 100, 2, 2)]}
    configs = explore_in_temp(groups, env_for(groups)).configs
    assert configs[-1] == configs[1] and configs[np.int64(0)].config_id == 0
    with pytest.raises(IndexError):
        configs[2]
    with pytest.raises(TypeError):
        configs[0] = configs[1]


def test_infeasible_configs_emitted_not_dropped(tmp_path):
    groups = {
        "a": [alt("a", 1000, 100, 1, 1), alt("a", 50_000_000, 100, 2, 2)],
    }
    configs = explore(groups, env_for(groups), WINDOW, tmp_path).configs
    assert [c.feasible for c in configs] == [True, False]
    assert configs[1].f_common == pytest.approx(500 * MHZ)
    rows = (tmp_path / "configs.csv").read_text().splitlines()
    assert [r.rsplit(",", 1)[1] for r in rows[1:]] == ["yes", "no"]


def test_group_membership_validated(tmp_path):
    for groups in ({"a": [alt("b", 1000, 100, 1, 1)]}, {"a": []}, {}):
        with pytest.raises(dse.DseError):
            explore(groups, env_for(groups), WINDOW, tmp_path)


# --- Front extraction ---------------------------------------------------------

def test_streaming_front_keeps_ties_and_removes_dominated():
    # One group whose rows run at their rated clock, so a config's energy
    # over a 1 s window is its row's power.
    def front_of(points):
        n = len(points)
        space = FlatSpace(
            offsets=np.array([0]), sizes=np.array([n]), f_req=np.full(n, 1e6),
            f_max=np.full(n, 1e6), power=np.array([e for _, e in points]),
            area=np.array([a for a, _ in points]),
        )
        fa, fe, _, _ = explore_streaming(space, window=1.0, chunk=1)
        return list(zip(fa.tolist(), fe.tolist()))

    # Exact ties are kept; (6, 6) is dominated by them.
    points = [(5.0, 5.0), (5.0, 5.0), (6.0, 6.0), (4.0, 6.0), (3.0, 7.0)]
    assert front_of(points) == [(3.0, 7.0), (4.0, 6.0), (5.0, 5.0), (5.0, 5.0)]
    # A strictly better arrival evicts the dominated survivors.
    assert front_of(points + [(3.0, 5.0)]) == [(3.0, 5.0)]


def test_pareto_ignores_infeasible_configs():
    groups = {
        "a": [alt("a", 1000, 100, 1, 1), alt("a", 50_000_000, 100, 0.5, 0.5)],
    }
    front = explore_in_temp(groups, env_for(groups)).front
    assert [c.config_id for c in front] == [0]


def test_streaming_matches_offline_on_fixture_tables(fixtures):
    groups = load_groups(fixtures / "wpm_lcfds.csv")
    env = env_for(groups)
    report = explore_in_temp(groups, env)
    offline = {(c.area, round(c.energy, 9)) for c in report.front}
    space = flatten_groups(groups, env)
    fa, fe, _, nfeas = explore_streaming(space, window=float(WINDOW), chunk=5)
    assert {(a, round(e, 9)) for a, e in zip(fa, fe)} == offline
    assert nfeas == sum(c.feasible for c in report.configs)


def assert_same_front(merged, enumerated):
    """Ids, areas and energies bit-equal, and the same feasible count."""
    (ma, me, mi, mn), (ea, ee, ei, en) = merged, enumerated
    assert mi.tolist() == ei.tolist()
    assert ma.tobytes() == ea.tobytes() and me.tobytes() == ee.tobytes()
    assert mn == en


def test_streaming_front_equals_the_enumerating_oracle():
    space = synthetic_space(n_groups=3, group_size=8, seed=5)
    assert_same_front(explore_streaming(space, chunk=64), enumerate_front(space, 0.1))


def _flat_space_strategy():
    """Small flat spaces in two kinds: integer-valued areas, powers and
    clocks, where configurations tie often; and magnitudes of ~1 mixed with
    ~1e8.  Each group also gets near copies of its rows, an area or a power
    nudged up by a relative 2**-30, which adding ~1e8 absorbs into a tie."""
    clock = st.sampled_from([1.0, 2.0, 3.0, 4.0])
    kinds = [st.integers(0, 6).map(float), st.sampled_from([0.0, 1.0, 1e8])]

    @st.composite
    def space(draw):
        value = draw(st.sampled_from(kinds))
        groups = []
        for _ in range(draw(st.integers(1, 4))):
            rows = draw(st.lists(st.tuples(clock, clock, value, value), min_size=1, max_size=3))
            for f_req, f_max, power, area in draw(st.lists(st.sampled_from(rows), max_size=2)):
                if draw(st.booleans()):
                    rows.append((f_req, f_max, power, area * (1 + 2**-30)))
                else:
                    rows.append((f_req, f_max, power * (1 + 2**-30), area))
            groups.append(rows)
        sizes = [len(rows) for rows in groups]
        f_req, f_max, power, area = np.array([r for rows in groups for r in rows]).T
        return FlatSpace(
            offsets=np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64),
            sizes=np.array(sizes, dtype=np.int64),
            f_req=f_req, f_max=f_max, power=power, area=area,
        )

    return space()


# Two partial sums one 2**-30 apart in area: adding 1e8 ties them exactly.
ABSORBED_TIE = FlatSpace(
    offsets=np.array([0, 2]), sizes=np.array([2, 1]), f_req=np.ones(3), f_max=np.ones(3),
    power=np.array([5.0, 5.0, 1.0]), area=np.array([1.0, 1.0 + 2**-30, 1e8]),
)


@settings(max_examples=150, deadline=None)
@example(ABSORBED_TIE, (0.0, False), 0.1, 1)
@given(
    _flat_space_strategy(),
    st.sampled_from([(0.0, False), (0.2, False), (0.2, True)]),
    st.sampled_from([0.1, 1.0]),
    st.sampled_from([1, 3, dse.CHUNK]),
)
def test_merged_front_equals_the_enumerating_oracle(space, mode, window, chunk):
    static_fraction, independent = mode
    assert_same_front(
        dse._merge_front(space, window, static_fraction, independent, chunk),
        enumerate_front(space, window, static_fraction, independent),
    )


# --- Reports ------------------------------------------------------------------

def test_explore_writes_deterministic_reports(fixtures, tmp_path):
    groups = load_groups(fixtures / "wpm_lcfds.csv")
    env = env_for(groups)
    names = [
        "configs.csv", "pareto.csv", "pareto.json", "scatter.svg", "summary.txt",
    ]
    outputs = []
    for run in ("a", "b"):
        report = explore(groups, env, WINDOW, tmp_path / run)
        assert set(report.files) == set(names)
        outputs.append({n: (tmp_path / run / n).read_bytes() for n in names})
    assert outputs[0] == outputs[1]
    header = outputs[0]["configs.csv"].decode().splitlines()[0]
    assert header == "config_id,mhr,spo2,emg,f_common_mhz,area,energy_mj,feasible"
    assert len(outputs[0]["configs.csv"].decode().splitlines()) == 1 + 32


def test_explore_requires_a_feasible_config(tmp_path):
    groups = {"a": [alt("a", 50_000_000, 100, 1, 1)]}
    with pytest.raises(InfeasibleConfigError):
        explore(groups, env_for(groups), WINDOW, tmp_path)
    assert not (tmp_path / "configs.csv").exists()


def test_explore_requires_a_positive_window(tmp_path):
    groups = {"a": [alt("a", 1000, 100, 1, 1)]}
    for window in (Fraction(0), Fraction(-1)):
        with pytest.raises(dse.DseError, match="window"):
            explore(groups, env_for(groups), window, tmp_path)
    for window in (0.0, -1.0, float("nan")):
        with pytest.raises(dse.DseError, match="window must be positive"):
            explore_streaming(synthetic_space(n_groups=2, group_size=2), window=window)


def test_explore_requires_a_static_fraction_in_0_1(tmp_path):
    groups = {"a": [alt("a", 1000, 100, 1, 1)]}
    for d in (1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(dse.DseError, match=r"static fraction must be in \[0, 1\)"):
            explore(groups, env_for(groups), WINDOW, tmp_path / "out", d)
    assert not (tmp_path / "out").exists()


def test_explore_requires_an_envelope_entry_per_computation(tmp_path):
    groups = {"a": [alt("a", 1000, 100, 1, 1)], "b": [alt("b", 1000, 100, 1, 1)]}
    with pytest.raises(dse.DseError, match="no timing envelope entry for computation 'b'"):
        explore(groups, env_for({"a": None}), WINDOW, tmp_path)


def test_explore_rejects_a_computation_name_with_a_nul(tmp_path):
    # Report cells are NUL-padded bytes, so a NUL in a label would be dropped.
    groups = {"a\0b": [alt("a\0b", 1000, 100, 1, 1)]}
    with pytest.raises(dse.DseError, match="contains a NUL character"):
        explore(groups, env_for(groups), WINDOW, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_scatter_svg_is_well_formed(fixtures, tmp_path):
    # One steelblue circle per feasible configuration and one crimson circle
    # per front point; tie_heavy has infeasible configurations to leave out.
    for name, groups in (("wpm", load_groups(fixtures / "wpm_lcfds.csv")),
                         ("tie_heavy", tie_heavy_groups())):
        report = explore(groups, env_for(groups), WINDOW, tmp_path / name)
        svg = (tmp_path / name / "scatter.svg").read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert "Area (LUT+FF)" in svg and "Energy (mJ)" in svg
        summary = (tmp_path / name / "summary.txt").read_text()
        feasible = int(summary.split("feasible: ")[1].split("\n")[0])
        assert svg.count('fill="steelblue"') == svg.count("<circle") - len(report.front) == feasible
        assert svg.count('fill="crimson"/>') == len(report.front) > 0
    assert feasible < len(report.configs)


# Each value of `_cell` is a report cell at six places (rows) and at two
# (circles): exact half-way values at both, values either side of where six
# and two places stop fitting in 52 and 51 bits, and subnormals.
_EDGES = [
    y
    for x in (2**52 / 10**6, 2**52 / 100, 2**51 / 10**6, 2**51 / 100)
    for y in (x, math.nextafter(x, 0), math.nextafter(x, math.inf), x * (1 - 1e-9), x * (1 + 1e-9))
]

_cell = st.one_of(
    st.integers(-10**6, 10**6).map(float),
    st.floats(),
    st.floats(-1e4, 1e4).map(lambda x: round(x, 1)),
    st.sampled_from([0.0, -0.0, 0.1 + 0.2, 1234.5, 2.0**53 + 2, 1e300, 5e-7, 0.0000015]),
    st.integers(0, 10**13).map(lambda k: (2 * k + 1) / 2e6),
    st.integers(0, 10**13).map(lambda k: (2 * k + 1) / 200),
    st.sampled_from([2.675, 1.005, 0.125, -2.675, -0.125, 0.5, 2.5, 5e-7, 2.5e-6]),
    st.sampled_from(_EDGES),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.sampled_from([5e-324, -5e-324, 2.225073858507201e-308]),
)

_id = st.one_of(
    st.integers(0, 2**62),
    st.sampled_from([0, 9, 10, 99, 100, 2**32 - 1, 2**32, 2**32 + 1]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(_id, _cell, _cell, _cell, st.booleans(), _cell, _cell),
        max_size=40,
    ),
    st.integers(1, 4),
)
def test_chunk_formatting_equals_the_per_cell_reference(rows, n_groups):
    ids, f_mhz, areas, energies, ok, cx, cy = map(list, zip(*rows)) if rows else [[]] * 7
    choices = np.array(
        [[f"g{g}={(i >> g) % 13}" for i in ids] for g in range(n_groups)], dtype=object
    ).reshape(n_groups, len(ids))
    got = dse._csv_rows(
        np.array(ids, dtype=np.int64), choices, np.array(f_mhz, dtype=float),
        np.array(areas, dtype=float), np.array(energies, dtype=float), np.array(ok, dtype=bool),
    )
    assert got == "".join(
        ",".join([str(i), *labels, dse._fmt(f), dse._fmt_area(a), dse._fmt(e), "yes" if y else "no"])
        + "\n"
        for i, *labels, f, a, e, y in zip(ids, *choices.tolist(), f_mhz, areas, energies, ok)
    )
    assert dse._circles(np.array(cx, dtype=float), np.array(cy, dtype=float)) == "".join(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="steelblue" fill-opacity="0.6"/>\n'
        for x, y in zip(cx, cy)
    )


def test_explore_makes_few_python_calls_per_configuration(tmp_path):
    # Work-count guard: report rows and scatter circles are formatted a chunk
    # at a time, so Python calls grow with the chunks and the front, not with
    # the configurations.  Deterministic: counts call events, not time, after
    # a small explore has done the one-time work of a first call (numpy's
    # lazy imports), so the count does not depend on which tests ran before.
    warm = tie_heavy_groups(n_groups=2, rows=3)
    explore(warm, env_for(warm), WINDOW, tmp_path / "warm")
    groups = tie_heavy_groups(n_groups=5, rows=10)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        report = explore(groups, env_for(groups), WINDOW, tmp_path / "run")
    finally:
        sys.setprofile(None)
    assert len(report.configs) == 100_000
    # 6,261 calls when this bound was set: most of them merge the front and
    # write pareto.json, and only a few hundred format the reports.
    assert calls < 8_000, f"{calls} Python calls for {len(report.configs)} configs"


# --- Golden reports -------------------------------------------------------------

REPORT_FILES = ("configs.csv", "pareto.csv", "pareto.json", "scatter.svg", "summary.txt")

# (table, mode) -> sha256 over the five report files, names included.
GOLDEN_REPORTS = {
    ('wpm_lcfds', 'common'):
        "ca464ab6bdcb6ca6963190efb0fabb540691d92fda1ad95b0b34588c8b7b1d00",
    ('wpm_lcfds', 'indep'):
        "e1e72e7095ee0cf23f656bb4ffe03929514f2cad3855947a2625903e535d4e49",
    ('wpm_lcfds', 'common_sf0.2'):
        "d54a5a45958618e2b683880bcd40512bf6d23cc911bed9528622ff5d2a7a2673",
    ('wpm_lcfds', 'indep_sf0.2'):
        "be9123c45b7ead4351b19a3e465f4ed6f37267010a76776947028cea82ea249f",
    ('wpm_legup', 'common'):
        "b9606ff7c3dde58307aba0ef9e58538f4095ccbd7c479fe4c097363c3d66fc02",
    ('wpm_legup', 'indep'):
        "f3d2eed53f48e8d0517dcd28d21ebb9c5ad878c80fae1a0089450a04fd11562e",
    ('wpm_legup', 'common_sf0.2'):
        "ace6529354fc7bea8bcb9a27062a908b6a4136dab437b4e22603d609962f7d8f",
    ('wpm_legup', 'indep_sf0.2'):
        "4fb1c1a379f374514f71fd8f5e6b551e3e6da03f29d598b784254a34ff98c740",
    ('eba_lcfds', 'common'):
        "c87de56ee8f31719b94fa8338083ecc6e690f2ff9e07c11b6574e76f9ee4f793",
    ('eba_lcfds', 'indep'):
        "dc4b344b1c1f915f0a587695e3587fc3fcd62e2e91b961cfc3128f8df3b032f2",
    ('eba_lcfds', 'common_sf0.2'):
        "9df97bfe31ba5a0efe2d3aab437aa9c78b9c841c3fa865035a3b6853ae49a992",
    ('eba_lcfds', 'indep_sf0.2'):
        "aff1acf7555ae0f4e6732d074fb3acfad49b9e62b18dff5824e6c0b5edf67a9a",
    ('tie_heavy', 'common'):
        "295bd79a11cf45f63ecf7df6b59e3167c0d53ce243f94ac5de1fb546d50cb178",
    ('tie_heavy', 'indep_sf0.2'):
        "46bea7b165f1033be8a11b9cf8493fe128a0ce0eb28cdd95963793e9382e4c30",
}

MODES = {
    "common": (False, 0.0),
    "indep": (True, 0.0),
    "common_sf0.2": (False, 0.2),
    "indep_sf0.2": (True, 0.2),
}


def tie_heavy_groups(seed=1, n_groups=4, rows=12):
    """Seeded alternatives table: quantized area, scattered power and rated
    clocks of 90-120 MHz, so some rows miss their period; the last four rows
    of each group repeat earlier rows, so configurations tie on (area, energy)."""
    rng = random.Random(seed)
    groups = {}
    for g in range(n_groups):
        name = f"c{g}"
        rows_g = []
        for k in range(rows):
            if k >= 8:
                rows_g.append(replace(rows_g[rng.randrange(8)], unroll=k))
                continue
            cycles = rng.randrange(500_000, 13_000_000)
            f_max = float(rng.choice((90, 100, 110, 120)) * MHZ)
            area = float(rng.randrange(10, 60) * 100)
            power = round(area * 0.03 * rng.uniform(0.8, 1.2), 2)
            rows_g.append(MccAlternative(name, "measured", k, None, cycles, f_max, area, power))
        groups[name] = rows_g
    return groups


def report_digest(out_dir):
    h = hashlib.sha256()
    for name in REPORT_FILES:
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    return h.hexdigest()


def golden_runs(fixtures):
    for table in ("wpm_lcfds", "wpm_legup", "eba_lcfds"):
        for mode in MODES:
            yield table, mode, load_groups(fixtures / f"{table}.csv")
    for mode in ("common", "indep_sf0.2"):
        yield "tie_heavy", mode, tie_heavy_groups()


def test_golden_report_digests(fixtures, tmp_path):
    digests = {}
    for table, mode, groups in golden_runs(fixtures):
        independent, static_fraction = MODES[mode]
        out = tmp_path / f"{table}-{mode}"
        report = explore(groups, env_for(groups), WINDOW, out, static_fraction, independent)
        assert sorted(report.files) == sorted(REPORT_FILES)
        digests[(table, mode)] = report_digest(out)
        if table == "tie_heavy":
            front = [(c.area, c.energy) for c in report.front]
            assert len(set(front)) < len(front), "front has no exact ties"
            assert not all(c.feasible for c in report.configs)
    assert digests == GOLDEN_REPORTS


def fractional_groups(seed=3, sizes=(11, 13, 9, 7, 8)):
    """Seeded alternatives table whose areas are integers, halves and tenths
    (1234.5, 0.1, 0.2, ...), so totals such as 0.1 + 0.2 are not integers and
    are written with six decimals, and whose powers carry nine decimals, so
    energies round at the sixth.  The space holds 72,072 configurations: more
    than one `dse.CHUNK`, and not a multiple of it."""
    rng = random.Random(seed)
    fractions = (0.1, 0.2, 0.3, 0.5, 0.7)
    groups = {}
    for g, size in enumerate(sizes):
        name = f"f{g}"
        rows_g = []
        for k in range(size):
            kind = rng.randrange(3)
            if kind == 0:
                area = float(rng.randrange(10, 60) * 100)
            elif kind == 1:
                area = rng.randrange(1000, 6000) + 0.5
            else:
                area = rng.choice(fractions)
            cycles = rng.randrange(500_000, 13_000_000)
            f_max = float(rng.choice((90, 100, 110, 120)) * MHZ)
            power = round(rng.uniform(1.0, 200.0), 9)
            rows_g.append(MccAlternative(name, "measured", k, None, cycles, f_max, area, power))
        groups[name] = rows_g
    return groups


# sha256 over the five report files of `fractional_groups`, pinned before
# report rows were formatted a chunk at a time.
FRACTIONAL_REPORTS = {
    "common": "a44adfd9e57c0ea656c177aa9d7534dc7756f38144ad11eb337a8bf3c58fee04",
    "indep_sf0.2": "df0c94e653ba09c4d9250758c9724e2642b4097e474521e5f1956340fa040a91",
}


def test_golden_reports_with_fractional_areas(tmp_path):
    groups = fractional_groups()
    digests = {}
    for mode in FRACTIONAL_REPORTS:
        independent, static_fraction = MODES[mode]
        out = tmp_path / mode
        report = explore(groups, env_for(groups), WINDOW, out, static_fraction, independent)
        assert len(report.configs) > dse.CHUNK and len(report.configs) % dse.CHUNK
        areas = (out / "configs.csv").read_text().splitlines()[1:]
        assert any("." in row.split(",")[-3] for row in areas)
        assert any("." not in row.split(",")[-3] for row in areas)
        assert not all(c.feasible for c in report.configs)
        digests[mode] = report_digest(out)
    assert digests == FRACTIONAL_REPORTS


def test_report_prints_each_front_point_as_pareto_csv_does(fixtures, tmp_path, capsys):
    # fractional_groups' front has areas such as 6125.6 and 1501.3-1501.6,
    # which a whole-number area would round together.
    for name, groups in (("fractional", fractional_groups()),
                         ("wpm", load_groups(fixtures / "wpm_lcfds.csv"))):
        out = tmp_path / name
        explore(groups, env_for(groups), WINDOW, out)
        assert cli.main(["report", str(out)]) == 0
        printed = capsys.readouterr().out.split("pareto front:\n")[1].splitlines()
        rows = (out / "pareto.csv").read_text().splitlines()[1:]
        assert len(printed) == len(rows) > 1
        for line, row in zip(printed, rows):
            fields = dict(field.split("=") for field in line.split())
            cells = row.split(",")
            assert (fields["id"], fields["area"], fields["energy_mj"]) == (cells[0], cells[-3], cells[-2])
        if name == "fractional":
            assert any("." in row.split(",")[-3] for row in rows)
