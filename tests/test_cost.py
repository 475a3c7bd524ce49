"""Cost model arithmetic and the measured-alternatives table format."""

import io

import pytest

from psmsynth.cost import (
    MHZ,
    CostError,
    CostTable,
    MccAlternative,
    TableFormatError,
    alternative_from_schedule,
    dominates,
    estimate_area,
    estimate_power,
    exec_latency,
    load_alternatives,
    loads_alternatives,
    pareto_filter_alternatives,
    power_scale,
    save_alternatives,
)
from psmsynth.dfg import Dfg, Loop, LoopNest, Op


def alt(mcc="m", power=1.0, area=1.0, cycles=1, unroll=0, lam=None, fmax=100 * MHZ):
    return MccAlternative(mcc, "measured", unroll, lam, cycles, fmax, area, power)


# --- Parametric model ---------------------------------------------------------

def test_area_is_weighted_sum_with_overhead():
    table = CostTable()
    assert estimate_area({"add": 2, "mul": 1}, table) == pytest.approx(
        1.2 * (2 * 50.0 + 200.0)
    )
    with pytest.raises(CostError):
        estimate_area({"quantum": 1}, table)


def test_power_scales_linearly_with_frequency():
    table = CostTable()
    p_ref = estimate_power(1000.0, table.f_ref, table)
    assert estimate_power(1000.0, table.f_ref / 2, table) == pytest.approx(p_ref / 2)
    assert p_ref == pytest.approx(1000.0 * table.power_per_area)


def test_static_fraction_sets_power_floor():
    table = CostTable(static_fraction=0.25)
    assert power_scale(0.0, table) == pytest.approx(0.25)
    assert power_scale(table.f_ref, table) == pytest.approx(1.0)
    assert power_scale(table.f_ref / 2, table) == pytest.approx(0.625)


def test_static_fraction_bounds_enforced():
    with pytest.raises(CostError):
        CostTable(static_fraction=1.0)
    with pytest.raises(CostError):
        CostTable(static_fraction=-0.1)


def test_exec_latency_folds_nested_loops():
    body = Dfg((Op(0, "add", ()),), (), (0,))
    inner = Loop(body=body, trip=10)
    outer = Loop(body=body, trip=5, children=(inner,))
    nest = LoopNest(loops=(outer,))
    spans = {(0,): 3, (0, 0): 2}
    # 5 * (3 + 10 * 2) = 115, plus pre/post.
    assert exec_latency(nest, spans, pre_makespan=4, post_makespan=1) == 120


def test_exec_latency_missing_schedule_diagnosed():
    nest = LoopNest(loops=(Loop(body=Dfg((Op(0, "add", ()),), (), (0,)), trip=2),))
    with pytest.raises(CostError):
        exec_latency(nest, {})


# --- CSV ingestion ------------------------------------------------------------

HEADER = "mcc,source,unroll,lambda,freq_mhz,exec_cycles,area,power_mw"


def test_save_load_identity():
    rows = [
        alt("f", power=17.25, area=1048.0, cycles=72613, unroll=0, lam=65, fmax=107 * MHZ),
        alt("f", power=19.5, area=1393.0, cycles=41068, unroll=4, lam=260, fmax=106 * MHZ),
        MccAlternative("g", "modeled", 2, 10, 100, 99.5 * MHZ, 123.25, 4.75),
    ]
    buf = io.StringIO()
    save_alternatives(rows, buf)
    again = loads_alternatives(buf.getvalue())
    assert again == rows
    buf2 = io.StringIO()
    save_alternatives(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_fixture_tables_round_trip_byte_identical(fixtures):
    for name in [
        "wpm_lcfds.csv",
        "wpm_legup.csv",
        "eba_lcfds.csv",
        "eba_lcfds_pareto.csv",
        "eba_legup.csv",
    ]:
        original = (fixtures / name).read_text()
        rows = load_alternatives(fixtures / name)
        buf = io.StringIO()
        save_alternatives(rows, buf)
        assert buf.getvalue() == original, name


def test_bad_header_rejected():
    with pytest.raises(TableFormatError):
        loads_alternatives("a,b,c\n")
    with pytest.raises(TableFormatError):
        loads_alternatives("")


def test_wrong_field_count_rejected():
    with pytest.raises(TableFormatError) as err:
        loads_alternatives(HEADER + "\nm,measured,0,,100\n")
    assert ":2:" in str(err.value)


def test_duplicate_row_key_rejected():
    text = HEADER + "\nm,measured,0,5,100,10,1,1\nm,measured,0,5,90,20,2,2\n"
    with pytest.raises(TableFormatError) as err:
        loads_alternatives(text)
    assert "duplicate" in str(err.value)


def test_invalid_values_rejected_with_location():
    for bad_row in [
        "m,guessed,0,,100,10,1,1",  # unknown source
        "m,measured,0,,100,0,1,1",  # zero cycles
        "m,measured,0,,0,10,1,1",  # zero frequency
        "m,measured,-1,,100,10,1,1",  # negative unroll
        "m,measured,0,,100,10,-1,1",  # negative area
    ]:
        with pytest.raises(TableFormatError) as err:
            loads_alternatives(HEADER + "\n" + bad_row + "\n")
        assert ":2:" in str(err.value)


def test_blank_lines_skipped():
    rows = loads_alternatives(HEADER + "\n\nm,measured,0,,100,10,1,1\n\n")
    assert len(rows) == 1


def test_empty_lambda_means_unconstrained():
    rows = loads_alternatives(HEADER + "\nm,measured,0,,100,10,1,1\n")
    assert rows[0].latency_constraint is None


# --- Dominance ----------------------------------------------------------------

def test_dominance_is_strict():
    a = alt(power=1.0, area=1.0, cycles=10)
    b = alt(power=2.0, area=1.0, cycles=10)
    c = alt(power=1.0, area=1.0, cycles=10)
    assert dominates(a, b)
    assert not dominates(b, a)
    assert not dominates(a, c) and not dominates(c, a)  # exact tie


def test_filter_keeps_non_dominated_and_ties():
    rows = [
        alt(power=1.0, area=3.0, cycles=10),
        alt(power=3.0, area=1.0, cycles=10),
        alt(power=2.0, area=2.0, cycles=20),  # dominated in no single objective pair
        alt(power=3.0, area=3.0, cycles=30),  # dominated by the first row
    ]
    kept = pareto_filter_alternatives(rows)
    assert kept == rows[:3]


def test_filter_is_scoped_per_mcc():
    rows = [alt("a", power=1.0), alt("b", power=9.0, area=9.0, cycles=99)]
    assert pareto_filter_alternatives(rows) == rows


def test_filter_idempotent_on_measured_rows(fixtures):
    rows = [r for r in load_alternatives(fixtures / "wpm_lcfds.csv") if r.mcc == "spo2"]
    once = pareto_filter_alternatives(rows)
    assert once == rows
    assert pareto_filter_alternatives(once) == once


def test_padded_table_reduces_to_survivor_table(fixtures):
    # The survivor table is measured data kept verbatim, so it may retain a
    # few rows that strict dominance would drop; but every padding row added
    # on top of it must be filtered out, and nothing new may survive.
    full = load_alternatives(fixtures / "eba_lcfds.csv")
    survivors = load_alternatives(fixtures / "eba_lcfds_pareto.csv")
    key = lambda r: (r.mcc, r.unroll, r.latency_constraint)
    filtered = {key(r) for r in pareto_filter_alternatives(full)}
    survivor_keys = {key(r) for r in survivors}
    padding = {key(r) for r in full} - survivor_keys
    assert filtered <= survivor_keys
    assert not filtered & padding
    assert len(filtered) >= len(survivor_keys) - 3


# --- Modeled rows -------------------------------------------------------------

def test_alternative_from_schedule_uses_model():
    table = CostTable()
    row = alternative_from_schedule("m", 2, 6, 100, {"add": 2}, 50 * MHZ, table)
    assert row.source == "modeled"
    assert row.area == pytest.approx(estimate_area({"add": 2}, table))
    assert row.power == pytest.approx(estimate_power(row.area, 50 * MHZ, table))
    assert (row.unroll, row.latency_constraint, row.exec_cycles) == (2, 6, 100)
