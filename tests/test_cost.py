"""Cost model arithmetic and the measured-alternatives table format."""

import pytest

from psmsynth.cost import (
    F_REF,
    MHZ,
    POWER_PER_AREA,
    CostError,
    CostTable,
    MccAlternative,
    TableFormatError,
    alternative_from_schedule,
    estimate_area,
    estimate_power,
    load_alternatives,
    save_alternatives,
)


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


def test_negative_area_coefficient_rejected():
    with pytest.raises(CostError, match=r"^area coefficient for 'add' must be >= 0$"):
        CostTable(area={"add": -1.0})


def test_power_scales_linearly_with_frequency():
    p_ref = estimate_power(1000.0, F_REF)
    assert estimate_power(1000.0, F_REF / 2) == pytest.approx(p_ref / 2)
    assert p_ref == pytest.approx(1000.0 * POWER_PER_AREA)
    with pytest.raises(CostError):
        estimate_power(1000.0, 0.0)


# --- CSV ingestion ------------------------------------------------------------

HEADER = "mcc,source,unroll,lambda,freq_mhz,exec_cycles,area,power_mw"


@pytest.fixture
def loads(tmp_path):
    """`load_alternatives` of a table given as text."""

    def load(text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        return load_alternatives(path)

    return load


def test_save_load_identity(tmp_path):
    rows = [
        alt("f", power=17.25, area=1048.0, cycles=72613, unroll=0, lam=65, fmax=107 * MHZ),
        alt("f", power=19.5, area=1393.0, cycles=41068, unroll=4, lam=260, fmax=106 * MHZ),
        MccAlternative("g", "modeled", 2, 10, 100, 99.5 * MHZ, 123.25, 4.75),
    ]
    save_alternatives(rows, tmp_path / "a.csv")
    again = load_alternatives(tmp_path / "a.csv")
    assert again == rows
    save_alternatives(again, tmp_path / "b.csv")
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_fixture_tables_round_trip_byte_identical(fixtures, tmp_path):
    for name in [
        "wpm_lcfds.csv",
        "wpm_legup.csv",
        "eba_lcfds.csv",
        "eba_lcfds_pareto.csv",
        "eba_legup.csv",
    ]:
        save_alternatives(load_alternatives(fixtures / name), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (fixtures / name).read_bytes(), name


def test_bad_header_rejected(loads):
    with pytest.raises(TableFormatError):
        loads("a,b,c\n")
    with pytest.raises(TableFormatError):
        loads("")


def test_wrong_field_count_rejected(loads):
    with pytest.raises(TableFormatError) as err:
        loads(HEADER + "\nm,measured,0,,100\n")
    assert ":2:" in str(err.value)


def test_duplicate_row_key_rejected(loads):
    text = HEADER + "\nm,measured,0,5,100,10,1,1\nm,measured,0,5,90,20,2,2\n"
    with pytest.raises(TableFormatError) as err:
        loads(text)
    assert "duplicate" in str(err.value)


def test_invalid_values_rejected_with_location(loads):
    for bad_row in [
        "m,guessed,0,,100,10,1,1",  # unknown source
        "m,measured,0,,100,0,1,1",  # zero cycles
        "m,measured,0,,0,10,1,1",  # zero frequency
        "m,measured,-1,,100,10,1,1",  # negative unroll
        "m,measured,0,,100,10,-1,1",  # negative area
        "m,measured,0,,nan,10,nan,1",  # not-a-number frequency and area
        "m,measured,0,,inf,10,1,1",  # infinite frequency
        "m,measured,0,,100,10,inf,1",  # infinite area
        "m,measured,0,,100,10,1,nan",  # not-a-number power
        "m,measured,0,0,100,10,1,1",  # zero latency constraint
        "m,measured,0,-5,100,10,1,1",  # negative latency constraint
    ]:
        with pytest.raises(TableFormatError) as err:
            loads(HEADER + "\n" + bad_row + "\n")
        assert ":2:" in str(err.value)


def test_blank_lines_skipped(loads):
    rows = loads(HEADER + "\n\nm,measured,0,,100,10,1,1\n\n")
    assert len(rows) == 1


def test_empty_lambda_means_unconstrained(loads):
    rows = loads(HEADER + "\nm,measured,0,,100,10,1,1\n")
    assert rows[0].latency_constraint is None


# --- Modeled rows -------------------------------------------------------------

def test_alternative_from_schedule_uses_model():
    table = CostTable()
    row = alternative_from_schedule("m", 2, 6, 100, {"add": 2}, 50 * MHZ, table)
    assert row.source == "modeled"
    assert row.area == pytest.approx(estimate_area({"add": 2}, table))
    assert row.power == pytest.approx(estimate_power(row.area, 50 * MHZ))
    assert (row.unroll, row.latency_constraint, row.exec_cycles) == (2, 6, 100)
