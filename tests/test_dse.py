"""Timing-constrained design-space exploration."""

import hashlib
import itertools
import math
import random
import re
import sys
import tempfile
import warnings
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


@settings(max_examples=60, deadline=None)
@given(
    cycles=st.integers(1, 10**9),
    period=st.integers(1, 10**9),
    per_second=st.sampled_from([10**6, 10**9]),  # periods in us or ns
)
@example(cycles=100, period=42_857, per_second=10**6)
# 23,333,334 cycles in 100,000,003 ns need 233,333,333 + 1/100,000,003 Hz,
# whose nearest float is the whole 233,333,333.
@example(cycles=23_333_334, period=100_000_003, per_second=10**9)
def test_printed_clock_is_never_below_the_required_clock(cycles, period, per_second):
    needed = math.ceil(Fraction(cycles * per_second, period))
    row = MccAlternative("m", "measured", 0, None, cycles, 2.0 * needed, 1.0, 1.0)
    with tempfile.TemporaryDirectory() as out:
        explore({"m": [row]}, {"m": EnvelopeEntry(Fraction(period, per_second))}, WINDOW, out)
        with open(f"{out}/pareto.csv") as handle:
            printed = [handle.read().splitlines()[1].split(",")[2]]
        with open(f"{out}/summary.txt") as handle:
            printed += re.findall(r"f_common_mhz=(\S+)", handle.read())
    assert len(printed) == 3
    for mhz in printed:
        assert Fraction(mhz) * MHZ >= needed, mhz


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
    area, energy, feasible, f_common, _ = kernels.evaluate_combos(
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

# With no power a configuration costs the same at every clock it fits: config
# 0, clocked at 1, ties itself at 2, where row 1 of the first group needs to
# run, and must still be listed once.
SELF_TIE = FlatSpace(
    offsets=np.array([0, 2]), sizes=np.array([2, 1]), f_req=np.array([1.0, 2.0, 1.0]),
    f_max=np.full(3, 2.0), power=np.zeros(3), area=np.array([1.0, 5.0, 1.0]),
)


@settings(max_examples=150, deadline=None)
@example(ABSORBED_TIE, (0.0, False), 0.1, 1)
@example(SELF_TIE, (0.0, False), 0.1, 1)
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


def test_merge_refuses_more_configurations_than_an_id_can_number():
    # 2**64 configurations: an int64 config id would wrap around.
    with pytest.raises(dse.DseError, match="^the design space has 18446744073709551616 configurations"):
        explore_streaming(synthetic_space(n_groups=64, group_size=2))


def test_merge_refuses_a_negative_power_or_clock():
    # Only a hand-built space can hold either: `MccAlternative` refuses a
    # negative power, and cycles and periods are positive.
    space = synthetic_space(n_groups=2, group_size=2)
    for field, what, unit in (("power", "power", "mW"), ("f_req", "required clock", "Hz")):
        values = getattr(space, field).copy()
        values[1] = -1.0
        for window in (0.1, 0.0):
            with pytest.raises(dse.DseError, match=rf"^a row has a negative {what}, -1\.0 {unit}$"):
                dse._merge_front(replace(space, **{field: values}), window)


# --- Reports ------------------------------------------------------------------

def test_explore_writes_deterministic_reports(fixtures, tmp_path):
    groups = load_groups(fixtures / "wpm_lcfds.csv")
    env = env_for(groups)
    names = ["configs.csv", "pareto.csv", "scatter.svg", "summary.txt"]
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
    # Report cells are NUL-padded bytes, so a NUL in a label would be
    # dropped, and configs.csv and pareto.csv cells are bare, so a comma, a
    # double quote, CR or LF would split or shift a row.
    for char in '\0,"\r\n':
        name = f"a{char}b"
        groups = {name: [alt(name, 1000, 100, 1, 1)]}
        message = f"computation name {name!r} contains {char!r}, which a report cell cannot hold"
        with pytest.raises(dse.DseError, match=f"^{re.escape(message)}$"):
            explore(groups, env_for(groups), WINDOW, tmp_path / "out")
        assert not (tmp_path / "out").exists()


def plot_mapping(points):
    """scatter.svg's documented mapping of (area, energy) to plot
    coordinates for a cloud of points: the 550 x 410 px plot at (70, 20)
    spans the points' ranges, a range of one value widened by 1.0, or by
    one ulp where adding 1.0 rounds back to the same value (from 2**53)."""
    x0, x1 = min(a for a, _ in points), max(a for a, _ in points)
    y0, y1 = min(e for _, e in points), max(e for _, e in points)
    if x1 == x0:
        x1 = x0 + 1.0 if x0 + 1.0 > x0 else math.nextafter(x0, math.inf)
    if y1 == y0:
        y1 = y0 + 1.0 if y0 + 1.0 > y0 else math.nextafter(y0, math.inf)
    return lambda a, e: (70 + (a - x0) / (x1 - x0) * 550, 430 - (e - y0) / (y1 - y0) * 410)


def scatter_marks(points):
    """The (cx, cy) text of scatter.svg's steelblue marks for the points:
    one at the centre of each occupied `dse.CELL`-sized cell of the plot,
    the far edges joining the last column or row, row by row."""
    to_plot, cell = plot_mapping(points), dse.CELL
    cells = set()
    for a, e in points:
        x, y = to_plot(a, e)
        cells.add((min(int((y - 20) // cell), 410 // cell - 1), min(int((x - 70) // cell), 550 // cell - 1)))
    return [(f"{70 + (c + 0.5) * cell:.2f}", f"{20 + (r + 0.5) * cell:.2f}") for r, c in sorted(cells)]


def svg_circles(svg, fill):
    return re.findall(rf'<circle cx="([^"]*)" cy="([^"]*)" r="\d" fill="{fill}"', svg)


def test_scatter_svg_is_well_formed(fixtures, tmp_path):
    # One steelblue mark per grid cell that holds a feasible configuration
    # and one crimson circle per front point; huge's one area of 1e16 is a
    # range that adding 1.0 cannot widen, and tie_heavy has infeasible
    # configurations to leave out.
    huge = {"h": [alt("h", 1000, 100, 1e16, 1), alt("h", 1000, 100, 1e16, 2)]}
    for name, groups in (("wpm", load_groups(fixtures / "wpm_lcfds.csv")), ("huge", huge),
                         ("tie_heavy", tie_heavy_groups())):
        report = explore(groups, env_for(groups), WINDOW, tmp_path / name)
        svg = (tmp_path / name / "scatter.svg").read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert "Area (LUT+FF)" in svg and "Energy (mJ)" in svg and "nan" not in svg
        rows = [row.split(",") for row in (tmp_path / name / "configs.csv").read_text().splitlines()[1:]]
        feasible = [report.configs[int(row[0])] for row in rows if row[-1] == "yes"]
        points = [(c.area, c.energy) for c in feasible]
        marks = svg_circles(svg, "steelblue")
        assert marks == scatter_marks(points)
        to_plot = plot_mapping(points)
        assert svg_circles(svg, "crimson") == [
            (f"{x:.2f}", f"{y:.2f}") for x, y in (to_plot(c.area, c.energy) for c in report.front)
        ]
        assert svg.count("<circle") == len(marks) + len(report.front) and report.front
    assert len(feasible) < len(report.configs)


@settings(max_examples=100, deadline=None)
@example([(5.0, 7.0)])
@example([(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)])
@example([(1.0, 4.0), (2.0, 4.0), (3.0, 4.0)])
@example([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
@example([(1e16, 7.0), (1e16, 8.0)])
@example([(1.0, 2.0**53), (2.0, 2.0**53)])
@given(st.lists(
    st.tuples(*[st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 1e6))] * 2),
    min_size=1, max_size=30,
))
def test_scatter_marks_equal_the_occupied_cells(points):
    # Single points and ranges of one value take the widened-range branch,
    # also where adding 1.0 cannot widen it, and each cloud's extremes lie on
    # the plot's far edges.
    areas, energies = (np.array(column) for column in zip(*points))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = b"".join(dse.render_scatter(areas, energies, [])).decode()
    assert svg_circles(svg, "steelblue") == scatter_marks(points)
    assert svg.count("<circle") == len(svg_circles(svg, "steelblue"))


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
        np.array(ids, dtype=np.int64), choices, dse._fixed(np.array(f_mhz, dtype=float), 6),
        np.array(areas, dtype=float), np.array(energies, dtype=float), np.array(ok, dtype=bool),
    )
    assert got == "".join(
        ",".join([str(i), *labels, dse._fmt(f), dse._fmt_area(a), dse._fmt(e), "yes" if y else "no"])
        + "\n"
        for i, *labels, f, a, e, y in zip(ids, *choices.tolist(), f_mhz, areas, energies, ok)
    ).encode()
    assert dse._circles(np.array(cx, dtype=float), np.array(cy, dtype=float)) == "".join(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="steelblue" fill-opacity="0.6"/>\n'
        for x, y in zip(cx, cy)
    ).encode()


_clock = st.one_of(
    st.floats(0.0, 1e12),
    st.integers(0, 10**12).map(float),
    st.integers(0, 10**9).map(lambda k: k + 0.5),
    st.floats(1e12, 1e300),
    st.sampled_from([0.0, 5e-324, 999_999.5, 2.0**53 + 2, 1e300]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_clock, min_size=1, max_size=5), min_size=1, max_size=4), st.booleans())
def test_clock_table_cells_equal_the_per_cell_reference(groups, independent):
    # A configuration's clock, in either mode, is the largest f_req of its
    # rows, so every clock the kernel returns has its cell in the table.
    f_req = np.array([f for group in groups for f in group])
    sizes = np.array([len(group) for group in groups], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    ones = np.ones(len(f_req))
    total = int(np.prod(sizes))
    f_common = kernels.evaluate_combos(
        0, total, offsets, sizes, f_req, ones, ones, ones, 0.0, independent
    )[3]
    cells = dse._clock_cells(f_req)(f_common)
    assert dse._lines(total, [cells, "\n"]).decode().splitlines() == [
        dse._fmt(math.ceil(f) / MHZ) for f in f_common.tolist()
    ]


def test_scatter_cell_is_a_power_of_two():
    # `render_scatter` maps an offset to its cell by a product with
    # 1 / CELL, which is exact, and so equals the float `//`, only then.
    assert dse.CELL >= 1 and dse.CELL & (dse.CELL - 1) == 0


@settings(max_examples=300, deadline=None)
@example(70.0, 20.0)
@example(620.0, 430.0)
@example(math.nextafter(72.0, 0), math.nextafter(22.0, 0))
@given(st.floats(70.0, 620.0), st.floats(20.0, 430.0))
def test_scatter_cell_product_equals_the_floor_division(x, y):
    # Plot coordinates: x in [70, 620] and y in [20, 430].
    xs, ys = np.array([x]), np.array([y])
    assert np.floor((xs - 70) * (1 / dse.CELL)) == (xs - 70) // dse.CELL
    assert np.floor((ys - 20) * (1 / dse.CELL)) == (ys - 20) // dse.CELL


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
    # 6,261 calls when this bound was set and 6,263 once the scatter became
    # grid marks; 4,249 once pareto.json was no longer written, of which
    # ~2,900 merge the front and only a few hundred format the reports.
    assert calls < 8_000, f"{calls} Python calls for {len(report.configs)} configs"


# --- Golden reports -------------------------------------------------------------

REPORT_FILES = ("configs.csv", "pareto.csv", "scatter.svg", "summary.txt")

# (table, mode) -> sha256 over the four report files, names included.
GOLDEN_REPORTS = {
    ('wpm_lcfds', 'common'):
        "2ed781927f235ace71c9835c7851ecbbcf4096ea53d0e368fcf46d5ea8bac4dd",
    ('wpm_lcfds', 'indep'):
        "e52bcf8ceb1536c62a30366573e08c81dcc8c6a6aad8a0f83d45f2c478e769df",
    ('wpm_lcfds', 'common_sf0.2'):
        "fdc25c51b1a25716c45085f8d4f1e18be3a21eb9901111a03f58ed4b0de9614f",
    ('wpm_lcfds', 'indep_sf0.2'):
        "745df131cfc88b964cda0a01487141f49275a15ca580e75c784acdd8e4b811b0",
    ('wpm_legup', 'common'):
        "f62b2a00d9fef4d4ba658049616c21fe4616a156bc9a3cc898cbcdca385cfa74",
    ('wpm_legup', 'indep'):
        "da0441275469aab04038ecdc4f7abe3b1af4b8dd413e2ec745e21cc9d29aa9b0",
    ('wpm_legup', 'common_sf0.2'):
        "77e142f3b8119620f6cbc45520e74debb160cf41c7bf666966582ab4d0703d68",
    ('wpm_legup', 'indep_sf0.2'):
        "9b06cc4b355a556ba59a35dbee5e0a97740241314a256f9a979b6ee5ad557e17",
    ('eba_lcfds', 'common'):
        "0fbecc6d702b9692aba4aa165265f1b621d754f09425aa90e3cbfe2b553aabad",
    ('eba_lcfds', 'indep'):
        "e0804b0f0f491d74edc083aafbe693d569b08bd6d9e9f13cab50570cac211252",
    ('eba_lcfds', 'common_sf0.2'):
        "bcdce36d742667548ad142503121d114aacd55ccd7a7a7baa227d90be670d2fd",
    ('eba_lcfds', 'indep_sf0.2'):
        "814632564c717d60e995a84957bc76c24aa4cd6fb1a184f68b04eec2035bc950",
    ('tie_heavy', 'common'):
        "45548882a4519347dd847a1f9a27bcd9ffdcac62458e29d1814ddc73202f4bda",
    ('tie_heavy', 'indep_sf0.2'):
        "16c65bc1a262ac78a5893a4ca8840a89b88e2e92e997995a6f59999bb6cd7c5e",
}

# The report files other than scatter.svg, which GOLDEN_FILES and
# FRACTIONAL_FILES pin one by one, so that a change to the picture alone
# shows as such.
PINNED_FILES = ("configs.csv", "pareto.csv", "summary.txt")

# (table, mode) -> sha256 of each of PINNED_FILES.
GOLDEN_FILES = {
    ('wpm_lcfds', 'common'): (
        "380a003379b0bb49a099d89e31c48a3fefcd86ad0e1d6967453f24ba2cd21341",
        "14b7e5caa82846ff5933c6543ca8f1522c7fd085fe5c41248231daba0c10864c",
        "4fa76bf1e6c4981bd6c47bac5a1977478f39fda9373a726728047fa4527f164e",
    ),
    ('wpm_lcfds', 'indep'): (
        "73b90f1f6608d59704bbd9e5335e0b3b253fbed620f31d3a96589f0467e340b4",
        "236009ac07bdd313b7944fca04f0a2d0488ad8d31b1c8d8851085008036d7a66",
        "cd221dcc369030e03ae3974d60b46ea59a6e0d9f425a2855335395ae15af5189",
    ),
    ('wpm_lcfds', 'common_sf0.2'): (
        "35972fcf6b8efa9381c9a9223eba5da7e58a7398dc65933dc04ee1c6177ac2c1",
        "1051394bc62eeebdba18f2fa19f425bc795f0f3c5c1bb1108b0026b702a9cfb4",
        "68387ace7d5477a93a54155de17e5a9bd9e882bf3748f503755d9a776e86911f",
    ),
    ('wpm_lcfds', 'indep_sf0.2'): (
        "a97e13fb08dd2c40301bfeac26c317f715a6235193d4c2e360b6f1bd15f2a73b",
        "cc3332528d70077f2c7da9e025e7a4a7cbcf790d977ffb8ab567ce36f263a67e",
        "2cb7665ca87bfd805dff9367ab696bbdb8469bc1a24ac451e14241967782720d",
    ),
    ('wpm_legup', 'common'): (
        "e2e24bd2a10d38f1c20be407d121decd7ee4821b60721e59f7dbb35e2a9389bc",
        "73de3c2c778d43f8dfdddc53b6c4242f8ae59e2e3ae73e50cd4a242d5ba5c352",
        "aa86394eeb7d7e7359dd36fdb2b403249ae7ca7d1913408a581a9885a52d602e",
    ),
    ('wpm_legup', 'indep'): (
        "0536c017280b517a7b37597ab35077a6292c1d0b4736383831865f5f8fb0e6e8",
        "0c6819072815ca5083b4f42e154bbd9a7f7084886991f1ca786d17225037bf9c",
        "01c4015aac7e1d798c1fea4729e4e0bac50a29f7dd0fc1c3485e421f3e8f4dd4",
    ),
    ('wpm_legup', 'common_sf0.2'): (
        "b455dc161adfc5f63400e08ec00d3a667238851880741db401b4a0dd0cb17a7e",
        "2c569ad570461a88de78b13668908b2fd6acc65016c546bfb339cfaf83389604",
        "e2e552e5887b9d8313c7a5609faad662525999949748ec95db809f36ec01bed8",
    ),
    ('wpm_legup', 'indep_sf0.2'): (
        "5e5b5cb6c0c8b1f224dc13de8243215f20e97379b58cf305b526fb74aec77da9",
        "6585f3e03beda721fe47490597f8132522d72bffb8b4db3b4ce9e822c7001f76",
        "0271f5a4014796ac698cee93ff11363e2d84fffc8ad8fbfa0d65d5a398455516",
    ),
    ('eba_lcfds', 'common'): (
        "af2416fe2051485299ad10bcdc5f2e276e78783fb82858676a3f631004cbc666",
        "8d8162f00b0a784e32c9be80ebbdadf2fd5d2401fb65db0d0d3219903fae35b8",
        "50fd6bb86d25c06dfa75760338c55cd7057dfe0ac5e1b377154241b04fa7a7d6",
    ),
    ('eba_lcfds', 'indep'): (
        "8b8efa7cd51cfb1d055b30221282196b7ae7eb723911fcca503c7dffac44d30e",
        "0339ab12555871c2e5c8f33955ac958bd8c86142865f7b5623d296c325e433bb",
        "84dde05c2e1f3a799ff9179a6aedf67ace9830b6649da2b14fb0cfd7666c4b7c",
    ),
    ('eba_lcfds', 'common_sf0.2'): (
        "1be353a2d06512950f16a966787e3fc9b9db7c5a259e0fbbb5a3575dfdc6637b",
        "b704315c08a2273dba37a01efb9f73f335f591585f6d3b58b393a7b8233bc2ab",
        "ae3b6822f5a5d4930d720fa19f153c4ff097073ba71dda733475218523859182",
    ),
    ('eba_lcfds', 'indep_sf0.2'): (
        "b6ebde9a221a9b7d66d144198f66da53804bf6e9cc490b967c42ade64e76ff06",
        "e087b663ee34b8bd7151acb0fa32ac34a4a49ba3b2e414e2ca90f4bcb85c002f",
        "cdd9672fd14b8cb4feda41479de097c2b4d0be059f1076e61ab81de7010c4087",
    ),
    ('tie_heavy', 'common'): (
        "23c354604244b2de65b96cf4fac84f8458dc8c96d1e319011de23e5e875663f2",
        "cf0bc785bad7d41647e90157b17557fe884cad1aacdeab74677beb9277cc1803",
        "6fa62fc76b3fa4f18d4862ebc5d588ca2fdb16fa6545c009cf7ac5859edf322b",
    ),
    ('tie_heavy', 'indep_sf0.2'): (
        "8292ee979853b82cbd343b39659902d53624df99f9a43f891b38dfcfb174bf35",
        "857a7ca5fa1327247f1830219d1670a9b525dea7e87d0af1f711d1e14de45fa5",
        "abda08f4cee2e1bd7948d28e7e29c9172c740039d6725cfafb419086bfcecbb3",
    ),
}

# (table, mode) -> sha256 of `psmsynth report`'s stdout for that run.
GOLDEN_STDOUT = {
    ('wpm_lcfds', 'common'):
        "a56c8cbd1cb24e6b830b7a84022f58c54f04a84eba68f6b21d03da76027e7970",
    ('wpm_lcfds', 'indep'):
        "c8f15e205f6e9c31b82781f28df8108d42173f757ab2825e3aa332d3d51cbedf",
    ('wpm_lcfds', 'common_sf0.2'):
        "e1417f087e6e79a9dea911e1b893015d535cc1ce4c09c884052eddcd946adde5",
    ('wpm_lcfds', 'indep_sf0.2'):
        "7adf24075300c761f2baec2054d6292950b9fe59a85e51e7aed3c2f012ca752c",
    ('wpm_legup', 'common'):
        "07f07f30719b871ca3ce2e9dc1b788ed1f08fe6582ddd754a7f4a0b5a53e1b3d",
    ('wpm_legup', 'indep'):
        "60bf15a26fcc935adcb18668d2d3631eeed3a1d12762b080ec3eba918220c766",
    ('wpm_legup', 'common_sf0.2'):
        "2767907b6fc1a8d286b47ee4a3b93f0237f87e1cdeb25bde2cbdfc82ddefd1eb",
    ('wpm_legup', 'indep_sf0.2'):
        "f384c9675737cd93fc8c9929083dacf0495b10688bf57b2335e4aa27e8b458b8",
    ('eba_lcfds', 'common'):
        "856ebda561fd16b8a610032d38e625390d4d7055e0a1dccc803a9f612d276a1e",
    ('eba_lcfds', 'indep'):
        "8398c4d8794bc1b2ae6a81ac131e7e28787da0d7180a63a687e6f96cc7051e22",
    ('eba_lcfds', 'common_sf0.2'):
        "87e4dfea68503e892d5dd0e47eec9f5967ed62df2f2ef028b28ac355fae2e4e0",
    ('eba_lcfds', 'indep_sf0.2'):
        "d313e1e3cf23febcad9ad78a31203a74692084ac579810af6035fe90298b37fb",
    ('tie_heavy', 'common'):
        "ce4e2241463816c81081af5646b394dd44a59816cee5381f0fdf2467aa26ef5a",
    ('tie_heavy', 'indep_sf0.2'):
        "2ad373ae592a11a9c40dfede122c428c18e26b54dcb52decc1b6bfdb038b291e",
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


def file_digests(out_dir):
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in PINNED_FILES)


def report_stdout_digest(out_dir, capsys):
    """sha256 of what `psmsynth report` prints for the reports in out_dir."""
    capsys.readouterr()
    assert cli.main(["report", str(out_dir)]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def golden_runs(fixtures):
    for table in ("wpm_lcfds", "wpm_legup", "eba_lcfds"):
        for mode in MODES:
            yield table, mode, load_groups(fixtures / f"{table}.csv")
    for mode in ("common", "indep_sf0.2"):
        yield "tie_heavy", mode, tie_heavy_groups()


def test_golden_report_digests(fixtures, tmp_path, capsys):
    digests, files, printed = {}, {}, {}
    for table, mode, groups in golden_runs(fixtures):
        independent, static_fraction = MODES[mode]
        out = tmp_path / f"{table}-{mode}"
        report = explore(groups, env_for(groups), WINDOW, out, static_fraction, independent)
        assert sorted(report.files) == sorted(REPORT_FILES)
        digests[(table, mode)] = report_digest(out)
        files[(table, mode)] = file_digests(out)
        printed[(table, mode)] = report_stdout_digest(out, capsys)
        if table == "tie_heavy":
            front = [(c.area, c.energy) for c in report.front]
            assert len(set(front)) < len(front), "front has no exact ties"
            assert not all(c.feasible for c in report.configs)
    assert files == GOLDEN_FILES
    assert digests == GOLDEN_REPORTS
    assert printed == GOLDEN_STDOUT


def fractional_groups(seed=3, sizes=(11, 13, 9, 7, 8)):
    """Seeded alternatives table whose areas are integers, halves and tenths
    (1234.5, 0.1, 0.2, ...), so totals such as 0.1 + 0.2 are not integers and
    are written with six decimals, and whose powers carry nine decimals, so
    energies round at the sixth.  The space holds 72,072 configurations: more
    than four `dse.CHUNK` blocks, and not a multiple of one."""
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


# sha256 over the four report files of `fractional_groups`; the files but
# scatter.svg are those pinned before report rows were formatted a chunk at a
# time.
FRACTIONAL_REPORTS = {
    "common": "92909390193106bb399fcfc1966e4501062b0fcba06114c8bb880326187035fe",
    "indep_sf0.2": "d0e24a85a40f44c78db78ba19dffc4a30de3e83b8b2633b66b4328430ae0b805",
}

# mode -> sha256 of each of PINNED_FILES of `fractional_groups`.
FRACTIONAL_FILES = {
    'common': (
        "91f8858048d6ade8e46894d10439fcc085f2f54869d8fc34a3b12e49a682680f",
        "fe5061388ddc181bcb7914907649c53d9d18548b740bf9b96ce869e7a42e13fe",
        "7f48c660fefa758772c2e7ab1f2b210163e36b47c5034434fef6c72449b02821",
    ),
    'indep_sf0.2': (
        "48ce89291eab9cabe28f31aaff04782c9076e8356ca89088120e77dfc3e51ae8",
        "eecf1ab3ff8cc8e4bbd79b0fbd8f1b919e88b4000a139fd622327b6fa1320c0f",
        "0073167cb45b44a2c8c46c331a33e5f523b60f012919ffe97340f47fc15aa5ff",
    ),
}


# mode -> sha256 of `psmsynth report`'s stdout for `fractional_groups`.
FRACTIONAL_STDOUT = {
    'common': "5e808e63e0ffee2036c302fb1ab0ecd130c41e0e9536c7749c7d03bf6ef1f369",
    'indep_sf0.2': "6d0d82a1a38187d092ca4627592f3e5a5510de94caa9bac1a52ed281fcdb263b",
}


def test_golden_reports_with_fractional_areas(tmp_path, capsys):
    groups = fractional_groups()
    digests, files, printed = {}, {}, {}
    for mode in FRACTIONAL_REPORTS:
        independent, static_fraction = MODES[mode]
        out = tmp_path / mode
        report = explore(groups, env_for(groups), WINDOW, out, static_fraction, independent)
        assert len(report.configs) > 4 * dse.CHUNK and len(report.configs) % dse.CHUNK
        areas = (out / "configs.csv").read_text().splitlines()[1:]
        assert any("." in row.split(",")[-3] for row in areas)
        assert any("." not in row.split(",")[-3] for row in areas)
        assert not all(c.feasible for c in report.configs)
        # Size guard: the cloud is drawn one mark per occupied grid cell.
        marks = len(svg_circles((out / "scatter.svg").read_text(), "steelblue"))
        feasible = sum(row.endswith(",yes") for row in areas)
        assert marks <= (550 // dse.CELL) * (410 // dse.CELL) and marks < feasible
        digests[mode] = report_digest(out)
        files[mode] = file_digests(out)
        printed[mode] = report_stdout_digest(out, capsys)
    assert files == FRACTIONAL_FILES
    assert digests == FRACTIONAL_REPORTS
    assert printed == FRACTIONAL_STDOUT


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_blocking_changes_no_report_byte(fixtures, tmp_path, monkeypatch, chunk):
    # Neither blocks of 7 configurations, which split every golden table
    # into several, nor the 64k blocks of earlier versions move a byte.
    monkeypatch.setattr(dse, "CHUNK", chunk)
    digests = {}
    for table, mode, groups in golden_runs(fixtures):
        independent, static_fraction = MODES[mode]
        out = tmp_path / f"{table}-{mode}"
        explore(groups, env_for(groups), WINDOW, out, static_fraction, independent)
        digests[(table, mode)] = report_digest(out)
    assert digests == GOLDEN_REPORTS
    digests, files = {}, {}
    groups = fractional_groups()
    for mode in FRACTIONAL_REPORTS:
        independent, static_fraction = MODES[mode]
        out = tmp_path / f"fractional-{mode}"
        explore(groups, env_for(groups), WINDOW, out, static_fraction, independent)
        digests[mode] = report_digest(out)
        files[mode] = file_digests(out)
    assert files == FRACTIONAL_FILES
    assert digests == FRACTIONAL_REPORTS


def test_report_prints_each_front_point_as_pareto_csv_does(fixtures, tmp_path, capsys):
    # fractional_groups' front has areas such as 6125.6 and 1501.3-1501.6,
    # which a whole-number area would round together.  half_way's energy of
    # 2.4999999996e-6 mJ reads 0.000002 at six places, but 0.000003 if it is
    # first rounded to nine (2.5e-6).
    half_way = {"h": [alt("h", 10_000_000, 100, 1.0, 2.4999999996e-5),
                      alt("h", 10_000_000, 100, 0.5, 3.3e-5)]}
    for name, groups in (("fractional", fractional_groups()),
                         ("wpm", load_groups(fixtures / "wpm_lcfds.csv")),
                         ("half_way", half_way)):
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
        if name == "half_way":
            assert rows[1].split(",")[-2] == "0.000002"
