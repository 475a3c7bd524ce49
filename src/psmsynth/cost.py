"""Area/power/latency cost modeling and ingestion of measured alternative tables.

The parametric model is a stand-in for vendor-tool measurements: area is a
weighted resource sum with a register/mux overhead factor, and power scales
with frequency around a reference point with an optional static fraction.
Externally measured rows load from CSV and flow through exploration unchanged.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .dfg import LoopNest, Loop

MHZ = 10**6


class CostError(Exception):
    pass


class TableFormatError(CostError):
    pass


@dataclass(frozen=True)
class CostTable:
    """Per-operation-type coefficients plus global model parameters.

    Area units are a dimensionless LUT+FF proxy; power coefficients are mW per
    area unit at the reference frequency.
    """

    area: Mapping[str, float] = field(
        default_factory=lambda: {
            "add": 50.0, "sub": 50.0, "mul": 200.0, "div": 320.0,
            "cmp": 30.0, "shift": 25.0, "logic": 20.0,
            "load": 60.0, "store": 60.0, "select": 40.0,
        }
    )
    power_per_area: float = 0.03  # mW per area unit at f_ref
    overhead: float = 0.2  # register/mux overhead fraction
    static_fraction: float = 0.0  # delta_s in [0, 1)
    f_ref: float = 100.0 * MHZ

    def __post_init__(self):
        if not 0.0 <= self.static_fraction < 1.0:
            raise CostError(f"static fraction must be in [0, 1), got {self.static_fraction}")
        if self.overhead < 0:
            raise CostError("overhead fraction must be >= 0")
        for k, v in self.area.items():
            if v < 0:
                raise CostError(f"area coefficient for '{k}' must be >= 0")


def estimate_area(usage: Mapping[str, int], table: CostTable | None = None) -> float:
    table = table or CostTable()
    total = 0.0
    for op_type, count in usage.items():
        if op_type not in table.area:
            raise CostError(f"no area coefficient for op type '{op_type}'")
        total += count * table.area[op_type]
    return (1.0 + table.overhead) * total


def power_scale(freq: float, table: CostTable) -> float:
    """Relative dynamic+static power at `freq` vs the reference frequency."""
    d = table.static_fraction
    return d + (1.0 - d) * freq / table.f_ref


def estimate_power(area: float, freq: float, table: CostTable | None = None) -> float:
    table = table or CostTable()
    if freq <= 0:
        raise CostError(f"frequency must be positive, got {freq}")
    p_ref = area * table.power_per_area
    return p_ref * power_scale(freq, table)


def exec_latency(nest: LoopNest, body_makespans: Mapping[tuple[int, ...], int],
                 pre_makespan: int = 0, post_makespan: int = 0) -> int:
    """Total cycles for one activation: pre + sum(trip * body) + post, with
    nested loop totals folded into their parent body.

    `body_makespans` is keyed by loop position, as in `dfg.nest_parts`.
    """

    def total(loop: Loop, key: tuple[int, ...]) -> int:
        try:
            makespan = body_makespans[key]
        except KeyError:
            raise CostError(f"loop at position {key} has no schedule") from None
        inner = sum(total(c, key + (i,)) for i, c in enumerate(loop.children))
        return loop.trip * (makespan + inner)

    return (
        pre_makespan
        + sum(total(l, (i,)) for i, l in enumerate(nest.loops))
        + post_makespan
    )


# --- Alternative tables ------------------------------------------------------

CSV_HEADER = ["mcc", "source", "unroll", "lambda", "freq_mhz", "exec_cycles", "area", "power_mw"]

SOURCES = ("modeled", "measured")


@dataclass(frozen=True)
class MccAlternative:
    mcc: str
    source: str  # 'modeled' or 'measured'
    unroll: int
    latency_constraint: int | None  # cycles/iteration; optional for measured rows
    exec_cycles: int
    f_max: float  # Hz
    area: float  # LUT+FF units
    power: float  # mW at f_max

    def __post_init__(self):
        if self.source not in SOURCES:
            raise CostError(f"source must be one of {SOURCES}, got '{self.source}'")
        if self.exec_cycles < 1:
            raise CostError(f"exec cycles must be >= 1, got {self.exec_cycles}")
        if self.f_max <= 0:
            raise CostError(f"max frequency must be positive, got {self.f_max}")
        if self.area < 0 or self.power < 0:
            raise CostError("area and power must be >= 0")
        if self.unroll < 0:
            raise CostError(f"unroll factor must be >= 0, got {self.unroll}")


def load_alternatives(path_or_file) -> list[MccAlternative]:
    if hasattr(path_or_file, "read"):
        return _load(path_or_file, "<stream>")
    with open(path_or_file, "r", encoding="utf-8", newline="") as handle:
        return _load(handle, str(path_or_file))


def loads_alternatives(text: str) -> list[MccAlternative]:
    return _load(io.StringIO(text), "<string>")


def _load(handle, name: str) -> list[MccAlternative]:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise TableFormatError(f"{name}: empty file, expected header {','.join(CSV_HEADER)}")
    if [h.strip() for h in header] != CSV_HEADER:
        raise TableFormatError(
            f"{name}: bad header {','.join(header)!r}, expected {','.join(CSV_HEADER)}"
        )
    rows: list[MccAlternative] = []
    seen: set[tuple] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(CSV_HEADER):
            raise TableFormatError(f"{name}:{lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        mcc, source, unroll, lam, freq_mhz, cycles, area, power = [c.strip() for c in row]
        try:
            alt = MccAlternative(
                mcc=mcc,
                source=source,
                unroll=int(unroll),
                latency_constraint=int(lam) if lam else None,
                exec_cycles=int(cycles),
                f_max=float(freq_mhz) * MHZ,
                area=float(area),
                power=float(power),
            )
        except (ValueError, CostError) as err:
            raise TableFormatError(f"{name}:{lineno}: {err}") from None
        key = (alt.mcc, alt.unroll, alt.latency_constraint)
        if key in seen:
            raise TableFormatError(f"{name}:{lineno}: duplicate row for {key}")
        seen.add(key)
        rows.append(alt)
    return rows


def save_alternatives(rows: Iterable[MccAlternative], path_or_file) -> None:
    if hasattr(path_or_file, "write"):
        _save(rows, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as handle:
            _save(rows, handle)


def _format_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _save(rows, handle) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(
            [
                r.mcc,
                r.source,
                r.unroll,
                "" if r.latency_constraint is None else r.latency_constraint,
                _format_num(r.f_max / MHZ),
                r.exec_cycles,
                _format_num(r.area),
                _format_num(r.power),
            ]
        )


def dominates(a: MccAlternative, b: MccAlternative) -> bool:
    """Strict dominance on (power, area, exec latency), all minimized."""
    le = a.power <= b.power and a.area <= b.area and a.exec_cycles <= b.exec_cycles
    lt = a.power < b.power or a.area < b.area or a.exec_cycles < b.exec_cycles
    return le and lt


def pareto_filter_alternatives(rows: Iterable[MccAlternative]) -> list[MccAlternative]:
    """Per-MCC non-dominated rows; ties (including duplicates) are kept."""
    rows = list(rows)
    kept: list[MccAlternative] = []
    for r in rows:
        if not any(other.mcc == r.mcc and dominates(other, r) for other in rows):
            kept.append(r)
    return kept


def alternative_from_schedule(
    mcc: str,
    unroll_factor: int,
    lam: int,
    exec_cycles: int,
    usage: Mapping[str, int],
    f_max: float,
    table: CostTable | None = None,
) -> MccAlternative:
    """Build a modeled alternative row from a scheduled computation."""
    table = table or CostTable()
    area = estimate_area(usage, table)
    power = estimate_power(area, f_max, table)
    return MccAlternative(
        mcc=mcc,
        source="modeled",
        unroll=unroll_factor,
        latency_constraint=lam,
        exec_cycles=exec_cycles,
        f_max=f_max,
        area=area,
        power=power,
    )
