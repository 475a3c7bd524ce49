"""Area/power cost modeling and ingestion of measured alternative tables.

The parametric model is a stand-in for vendor-tool measurements: area is a
weighted resource sum with a fixed register/mux overhead factor, and power is
proportional to area and to frequency around a reference point.  Static
power belongs to exploration, which scales each row's power to its clock
(`dse.explore`).  A modeled row's execution cycles come from the scheduler
(`fds.schedule_nest`).  Externally measured rows load from CSV and flow
through exploration unchanged.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

MHZ = 10**6


class CostError(Exception):
    pass


class TableFormatError(CostError):
    pass


POWER_PER_AREA = 0.03  # mW per area unit at F_REF
OVERHEAD = 0.2  # register/mux overhead fraction of the weighted area
F_REF = 100.0 * MHZ


@dataclass(frozen=True)
class CostTable:
    """Per-operation-type area weights, in a dimensionless LUT+FF proxy."""

    area: Mapping[str, float] = field(
        default_factory=lambda: {
            "add": 50.0, "sub": 50.0, "mul": 200.0, "div": 320.0,
            "cmp": 30.0, "shift": 25.0, "logic": 20.0,
            "load": 60.0, "store": 60.0, "select": 40.0,
        }
    )

    def __post_init__(self):
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
    return (1.0 + OVERHEAD) * total


def estimate_power(area: float, freq: float) -> float:
    """Power (mW) at `freq`: proportional to area and to frequency."""
    if freq <= 0:
        raise CostError(f"frequency must be positive, got {freq}")
    return area * POWER_PER_AREA * (freq / F_REF)


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
        finite = {"max frequency": self.f_max, "area": self.area, "power": self.power}
        for label, value in finite.items():
            if not math.isfinite(value):
                raise CostError(f"{label} must be finite, got {value}")
        if self.exec_cycles < 1:
            raise CostError(f"exec cycles must be >= 1, got {self.exec_cycles}")
        if self.f_max <= 0:
            raise CostError(f"max frequency must be positive, got {self.f_max}")
        if self.area < 0 or self.power < 0:
            raise CostError("area and power must be >= 0")
        if self.unroll < 0:
            raise CostError(f"unroll factor must be >= 0, got {self.unroll}")
        if self.latency_constraint is not None and self.latency_constraint < 1:
            raise CostError(f"latency constraint must be >= 1, got {self.latency_constraint}")


def load_alternatives(path) -> list[MccAlternative]:
    name = str(path)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise TableFormatError(
                f"{name}: not UTF-8 text (byte {err.start}: {err.reason})"
            ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
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


def save_alternatives(rows: Iterable[MccAlternative], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
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


def _format_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


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
    area = estimate_area(usage, table)
    power = estimate_power(area, f_max)
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
