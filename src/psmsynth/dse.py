"""Timing-constrained design-space exploration.

Given per-computation (MCC) hardware alternatives and each state machine's
period, derive the minimum frequency at which every computation still meets
its deadline, scale all alternatives' power to the common frequency above a
static fraction that does not scale, evaluate area and energy for every
combination, and extract the non-dominated (area, energy) front.  The front
is merged from per-group fronts, one list of partial sums per candidate
clock, without enumerating the space; only the reports enumerate it, block
by block on flat arrays with the `kernels` module.  One block size, `CHUNK`
(16k configurations), serves the kernel calls, the report lines and the
merge's product blocks, so that a block's byte matrix stays in cache; each
block's configs.csv lines take their cells from that block's kernel
outputs.  Reports are written with fixed decimal formatting so repeated
runs are byte-identical.  A configuration's clock is always one of the
required clocks, so those are formatted once, as a table, and every
f_common_mhz cell is gathered from it.  The configs.csv rows and
scatter.svg circles are laid out as one NUL-padded byte matrix a block at
a time, a line per row: numbers become ASCII digits by integer arithmetic on
whole columns, labels come from a bytes table, and the NUL bytes are dropped
at the end.  A number whose rounding that arithmetic cannot settle exactly
(within an ulp of a half-way point, negative, not finite, or too large) is
formatted on its own by `%`, so every cell reads as `_fmt` or `_fmt_area`
would write it.  The report files are written as bytes; only their few `str`
pieces (headers, summary.txt, the SVG frame) are encoded.  scatter.svg draws
the feasible cloud as one circle per occupied cell of a grid of `CELL`-pixel
cells over the plot, so its size is bounded by the grid (275 x 205 cells at
2 px) plus the front, which is drawn exactly.  A point's cell is the floor
of its plot offset times 1 / `CELL`, which is exact, and so equal to the
float `//`, while `CELL` is a power of two."""

from __future__ import annotations

import itertools
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import Context
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import kernels
from .cost import MHZ, MccAlternative


class DseError(Exception):
    pass


class InfeasibleConfigError(DseError):
    pass


@dataclass(frozen=True)
class EnvelopeEntry:
    period: Fraction  # seconds
    invocations: int = 1
    reserved_cycles: int = 0

    def __post_init__(self):
        if self.period <= 0:
            raise DseError(f"period must be positive, got {self.period}")
        if self.invocations < 1:
            raise DseError(f"invocations must be >= 1, got {self.invocations}")
        if self.reserved_cycles < 0:
            raise DseError("reserved cycles must be >= 0")


def as_float(value: Fraction, what: str, unit: str) -> float:
    """`float(value)`, or a DseError naming a value beyond a float's range:
    one too large, or one not zero that rounds to zero."""
    try:
        number = float(value)
        if number or not value:
            return number
        size = "small"
    except OverflowError:
        size = "large"
    near = Context(prec=6).divide(value.numerator, value.denominator).normalize()
    raise DseError(f"{what}: {near:g} {unit} is too {size} for a float")


def required_frequency(alt: MccAlternative, entry: EnvelopeEntry) -> float:
    """Minimum clock frequency (Hz) at which the alternative finishes all its
    invocations within the period, as the least float not below it, so that
    neither the reports nor the f_max check take a clock a hair too slow.
    May exceed f_max — that marks the alternative infeasible, it is never
    silently excluded."""
    needed = entry.invocations * (alt.exec_cycles + entry.reserved_cycles) / entry.period
    clock = as_float(needed, f"clock for computation '{alt.mcc}'", "Hz")
    return clock if clock >= needed else math.nextafter(clock, math.inf)


@dataclass(frozen=True)
class SystemConfig:
    config_id: int
    choices: tuple[MccAlternative, ...]
    indices: tuple[int, ...]  # row index of each choice within its group
    f_common: float  # Hz (the max requirement, even when infeasible)
    area: float
    energy: float  # mJ over the window; meaningless when infeasible
    feasible: bool


# --- Reports ------------------------------------------------------------------

def _fmt(x: float, places: int = 6) -> str:
    return f"{x:.{places}f}"


def _fmt_area(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else _fmt(x)


# The cells of a report column are a (width, n) uint8 array: row k holds byte
# k of each of the n cells, and a cell narrower than the column is padded
# with NUL bytes, which `_lines` drops.


def _digits(x: np.ndarray, lead: bool = True, width: int = 0) -> np.ndarray:
    """ASCII decimal digits of the non-negative integers `x` as cells, the
    units last, `width` bytes wide or as wide as the largest needs.  With
    `lead`, the zeros before a cell's first significant digit are NUL;
    every cell keeps its units digit."""
    top = int(x.max(initial=0))
    x = x.astype(np.uint32 if top < 2**32 else np.uint64)
    width = width or len(str(top))
    cells = np.empty((width, len(x)), np.uint8)
    for k in range(width - 1, -1, -1):
        q = x // 10
        digit = x - q * 10 + ord("0")
        if lead and k < width - 1:
            digit *= x != 0
        cells[k] = digit
        x = q
    return cells


def _text_cells(texts: list[str]) -> np.ndarray:
    """Cells of Python strings, NUL-padded to the longest."""
    table = np.array([t.encode() for t in texts], dtype="S")
    return table.view(np.uint8).reshape(len(texts), table.itemsize).T


def _patch(cells: np.ndarray, rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """`cells` with the cells of the masked `rows` replaced by `other`, one
    per masked row, widened to the wider of the two."""
    if not rows.any():
        return cells
    width = max(len(cells), len(other))
    cells = np.pad(cells, ((width - len(cells), 0), (0, 0)))
    cells[:, rows] = 0
    cells[width - len(other):, rows] = other
    return cells


def _fixed(values: np.ndarray, places: int) -> np.ndarray:
    """`'%.*f' % (places, v)` of each value as cells.  CPython rounds the
    exact binary value, and the exact v*10**places lies within half an ulp
    of the product p, so outside a one-ulp band around each half-way point
    the nearest integer to p is the correctly rounded result.  Cells in that
    band, which holds every p from 2**51 up (their ulp is at least 1/2) and
    every non-finite p, and cells with the sign bit set are formatted one at
    a time by `%`."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = values * 10.0**places
        fast = ~np.signbit(p) & (np.abs(p - np.floor(p) - 0.5) > np.spacing(p))
    whole, frac = np.divmod(np.rint(p, where=fast, out=np.zeros_like(p)).astype(np.uint64), 10**places)
    cells = np.concatenate(
        (_digits(whole), np.full((1, len(p)), ord("."), np.uint8), _digits(frac, False, places))
    )
    slow = ~fast
    return _patch(cells, slow, _text_cells(["%.*f" % (places, v) for v in values[slow].tolist()]))


def _area_cells(areas: np.ndarray) -> np.ndarray:
    """`_fmt_area` of each area as cells: whole numbers in [0, 2**53) as
    digits, fractions through `_fixed`, and other whole numbers one at a
    time."""
    with np.errstate(invalid="ignore"):
        integral = np.isfinite(areas) & (np.trunc(areas) == areas)
        plain = integral & (areas >= 0) & (areas < 2.0**53)
    cells = _digits(np.where(plain, areas, 0).astype(np.uint64))
    cells = _patch(cells, ~integral, _fixed(areas[~integral], 6))
    wide = integral & ~plain
    return _patch(cells, wide, _text_cells([_fmt_area(a) for a in areas[wide].tolist()]))


def _lines(n: int, parts: Sequence[str | np.ndarray]) -> bytearray:
    """`n` lines, line i the concatenation of `parts`: ASCII text common to
    every line, or cells, of which line i takes cell i.  The lines are laid
    out as one (n, width) byte matrix over a bytearray, and its NUL padding
    is dropped from the bytearray itself, with no copy of the matrix."""
    widths = [len(part) for part in parts]
    width = sum(widths)
    out = bytearray(n * width)
    matrix = np.frombuffer(out, np.uint8).reshape(n, width)
    matrix[:] = np.frombuffer(
        "".join(p if isinstance(p, str) else "\0" * w for p, w in zip(parts, widths)).encode(), np.uint8
    )
    at = 0
    for part, width in zip(parts, widths):
        if not isinstance(part, str):
            matrix[:, at:at + width] = part.T
        at += width
    return out.replace(b"\0", b"")


_FLAGS = np.array([b"no", b"yes"]).view(np.uint8).reshape(2, 3)


def _csv_rows(ids: np.ndarray, choices: np.ndarray, f_mhz: np.ndarray, areas: np.ndarray,
              energies: np.ndarray, feasible: np.ndarray) -> bytearray:
    """configs.csv / pareto.csv lines of a block from whole columns: ids, the
    (groups, rows) choice labels (bytes, or ASCII strings), the f_common_mhz
    cells, areas, energies in mJ and feasible flags; as `str(id)`, the
    labels, the cells, `_fmt_area`, `_fmt` and yes/no."""
    labels = np.asarray(choices, dtype="S")
    n_groups, n = labels.shape
    columns = labels.view(np.uint8).reshape(n_groups, n, labels.itemsize).transpose(0, 2, 1)
    return _lines(n, [
        _digits(ids), *(piece for label in columns for piece in (",", label)),
        ",", f_mhz, ",", _area_cells(areas), ",", _fixed(energies, 6),
        ",", _FLAGS[feasible.astype(np.intp)].T, "\n",
    ])


def _clock_cells(f_req: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The f_common_mhz cells of clocks, each one of the required clocks
    `f_req`, as `_fmt(math.ceil(f) / MHZ)` would write them.  Each distinct
    required clock is formatted once, and a clock's cell is gathered from
    that table by its position in the sorted distinct clocks."""
    clocks = np.unique(f_req)
    table = _fixed(np.ceil(clocks) / MHZ, 6)
    return lambda f: table[:, np.searchsorted(clocks, f)]


def _circles(cx: np.ndarray, cy: np.ndarray) -> bytearray:
    """scatter.svg steelblue circles at the centres (cx, cy), as
    `_fmt(x, 2)`."""
    return _lines(len(cx), [
        '<circle cx="', _fixed(cx, 2), '" cy="', _fixed(cy, 2),
        '" r="3" fill="steelblue" fill-opacity="0.6"/>\n',
    ])


class ConfigTable(Sequence):
    """Every explored configuration in enumeration order, read-only; each
    `SystemConfig` is built from the evaluation arrays when it is accessed."""

    def __init__(self, groups: Mapping[str, Sequence[MccAlternative]], f_common: np.ndarray,
                 area: np.ndarray, energy: np.ndarray, feasible: np.ndarray):
        self._groups = [tuple(rows) for rows in groups.values()]
        self._f_common = f_common
        self._area = area
        self._energy = energy
        self._feasible = feasible

    def __len__(self) -> int:
        return len(self._area)

    def __getitem__(self, config_id) -> SystemConfig:
        config_id = operator.index(config_id)
        if not -len(self) <= config_id < len(self):
            raise IndexError(f"no configuration {config_id}")
        config_id %= len(self)
        rest, indices = config_id, []
        for rows in reversed(self._groups):
            rest, i = divmod(rest, len(rows))
            indices.append(i)
        indices.reverse()
        return SystemConfig(
            config_id=config_id,
            choices=tuple(rows[i] for rows, i in zip(self._groups, indices)),
            indices=tuple(indices),
            f_common=float(self._f_common[config_id]),
            area=float(self._area[config_id]),
            energy=float(self._energy[config_id]),
            feasible=bool(self._feasible[config_id]),
        )


@dataclass
class Report:
    configs: ConfigTable
    front: list[SystemConfig]  # sorted by (area, energy, config id)
    min_area: SystemConfig
    min_energy: SystemConfig
    energy_reduction_vs_unscaled: float  # of the min-energy config
    files: dict[str, str] = field(default_factory=dict)  # logical name -> path


def explore(
    groups: Mapping[str, Sequence[MccAlternative]],
    env: Mapping[str, EnvelopeEntry],
    window: Fraction,
    out_dir: str | os.PathLike,
    static_fraction: float = 0.0,
    independent: bool = False,
) -> Report:
    """Merge the front, enumerate the space, and write the report files
    (configs.csv, pareto.csv, scatter.svg, summary.txt).

    A row's power scales from its f_max to its clock with
    `kernels.scaled_power`, `static_fraction` being the part that does not
    scale.  With `independent=True` each computation runs at its own required
    frequency (per-instance clock generics) instead of one shared clock.
    Infeasible configurations are listed with the feasible flag down, never
    silently dropped.  The reports print each configuration's clock rounded
    up to a whole Hz, so that a printed clock is never too slow; energies are
    computed at the required clock itself.  A space whose per-configuration arrays cannot be
    allocated is refused before the output directory is made.
    """
    if not 0.0 <= static_fraction < 1.0:
        raise DseError(f"static fraction must be in [0, 1), got {static_fraction}")
    space = flatten_groups(groups, env)
    window = as_float(window, "window", "s")
    _, _, front_ids, n_feasible = _merge_front(space, window, static_fraction, independent)
    if not n_feasible:
        raise InfeasibleConfigError("no feasible configuration in the design space")
    names = list(groups)
    clock_cells = _clock_cells(space.f_req)  # a configuration's clock is its rows' largest f_req
    labels = np.array([f"{n}={i}".encode() for n in names for i in range(len(groups[n]))])
    total = space.total
    try:
        f_common = np.empty(total)
        area = np.empty(total)
        energy = np.empty(total)
        feasible = np.empty(total, dtype=np.bool_)
    except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
        raise DseError(f"the design space has {total} configurations, too many to list in memory") from None

    os.makedirs(out_dir, exist_ok=True)
    files: dict[str, str] = {}

    def write(name: str, parts: Iterable[bytes]) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "wb") as handle:
            handle.writelines(parts)
        files[name] = path

    def configs_rows() -> Iterator[bytearray]:
        """Evaluate the space a `CHUNK` at a time into the arrays above and
        yield each block's configs.csv lines, their cells taken from the
        block's kernel outputs and labelled from the rows it decoded."""
        for start in range(0, total, CHUNK):
            count = min(CHUNK, total - start)
            part = slice(start, start + count)
            block_area, block_energy, block_feasible, block_f, rows = kernels.evaluate_combos(
                start, count, space.offsets, space.sizes, space.f_req, space.f_max,
                space.power, space.area, static_fraction, independent,
            )
            block_energy *= window
            area[part], energy[part], feasible[part], f_common[part] = (
                block_area, block_energy, block_feasible, block_f
            )
            choices = labels[rows]
            del rows  # not held while the lines are laid out
            yield _csv_rows(
                np.arange(start, start + count, dtype=np.int64), choices, clock_cells(block_f),
                block_area, block_energy, block_feasible,
            )

    header = (",".join(["config_id", *names, "f_common_mhz", "area", "energy_mj", "feasible"]) + "\n").encode()
    write("configs.csv", itertools.chain((header,), configs_rows()))

    configs = ConfigTable(groups, f_common, area, energy, feasible)
    front = [configs[i] for i in front_ids]
    min_area = front[0]
    min_energy = min(front, key=lambda c: (c.energy, c.area, c.config_id))
    unscaled = sum(alt.power for alt in min_energy.choices) * window
    reduction = 1.0 - min_energy.energy / unscaled if unscaled > 0 else 0.0

    front_rows = kernels.combo_rows(front_ids, space.offsets, space.sizes)
    write("pareto.csv", (header, _csv_rows(
        front_ids, labels[front_rows], clock_cells(f_common[front_ids]),
        area[front_ids], energy[front_ids], feasible[front_ids],
    )))

    write("scatter.svg", render_scatter(area[feasible], energy[feasible], front))

    write("summary.txt", ((
        f"configurations: {total}\n"
        f"feasible: {n_feasible}\n"
        f"pareto points: {len(front)}\n"
        f"min-area config: id={min_area.config_id} area={_fmt_area(min_area.area)} "
        f"energy_mj={_fmt(min_area.energy)} f_common_mhz={_fmt(math.ceil(min_area.f_common) / MHZ)}\n"
        f"min-energy config: id={min_energy.config_id} area={_fmt_area(min_energy.area)} "
        f"energy_mj={_fmt(min_energy.energy)} f_common_mhz={_fmt(math.ceil(min_energy.f_common) / MHZ)}\n"
        f"energy reduction vs unscaled (min-energy config): {_fmt(100.0 * reduction, 2)}%\n"
    ).encode(),))

    return Report(configs, front, min_area, min_energy, reduction, files)


CELL = 2  # px, the side of a scatter.svg grid cell; a power of two


def render_scatter(
    areas: np.ndarray, energies: np.ndarray, front: Sequence[SystemConfig]
) -> Iterator[bytes]:
    """Hand-written SVG scatter of the feasible configurations' area vs
    energy (at least one) with the front as a polyline; byte-deterministic.
    Yields the file piece by piece, so a caller can stream it.

    A point maps to the 550 x 410 px plot at (70, 20) by `coords`: the
    least area to x = 70 and the greatest to x = 620, the least energy to
    y = 430 and the greatest to y = 20.  A range of one value is widened by
    1.0, or by one ulp where adding 1.0 rounds back to the same value.  The
    plot is a grid of `CELL`-sized cells, column `(x - 70) // CELL` and row
    `(y - 20) // CELL`, computed as the floor of the offset times 1 / CELL,
    which is exact for a power of two; points on the far edges join the
    last column or row.  The cloud is one steelblue circle at the centre of
    each cell that holds a point, row by row from the top; the front is
    drawn at its exact points."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 20, 50
    x0, x1 = float(areas.min()), float(areas.max())
    y0, y1 = float(energies.min()), float(energies.max())
    if x1 == x0:
        x1 = max(x0 + 1.0, math.nextafter(x0, math.inf))
    if y1 == y0:
        y1 = max(y0 + 1.0, math.nextafter(y0, math.inf))

    def coords(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cx = ml + (xs - x0) / (x1 - x0) * (width - ml - mr)
        cy = height - mb - (ys - y0) / (y1 - y0) * (height - mt - mb)
        return cx, cy

    columns, rows = (width - ml - mr) // CELL, (height - mt - mb) // CELL
    occupied = np.zeros((rows, columns), np.bool_)
    for start in range(0, len(areas), CHUNK):
        cx, cy = coords(areas[start:start + CHUNK], energies[start:start + CHUNK])
        column = np.floor((cx - ml) * (1 / CELL)).astype(np.intp)
        row = np.floor((cy - mt) * (1 / CELL)).astype(np.intp)
        occupied[row.clip(0, rows - 1), column.clip(0, columns - 1)] = True
    row, column = np.nonzero(occupied)

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>\n'
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>\n'
        f'<text x="{(ml + width - mr) // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="14">Area (LUT+FF)</text>\n'
        f'<text x="16" y="{(mt + height - mb) // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {(mt + height - mb) // 2})">Energy (mJ)</text>\n'
        f'<text x="{ml}" y="{height - mb + 18}" text-anchor="middle" font-size="11">'
        f"{_fmt_area(x0)}</text>\n"
        f'<text x="{width - mr}" y="{height - mb + 18}" text-anchor="middle" font-size="11">'
        f"{_fmt_area(x1)}</text>\n"
        f'<text x="{ml - 6}" y="{height - mb}" text-anchor="end" font-size="11">'
        f"{_fmt(y0, 3)}</text>\n"
        f'<text x="{ml - 6}" y="{mt + 10}" text-anchor="end" font-size="11">'
        f"{_fmt(y1, 3)}</text>\n"
    ).encode()
    yield _circles(ml + (column + 0.5) * CELL, mt + (row + 0.5) * CELL)
    if front:
        cx, cy = coords(np.array([c.area for c in front]), np.array([c.energy for c in front]))
        points = [(_fmt(x, 2), _fmt(y, 2)) for x, y in zip(cx.tolist(), cy.tolist())]
        pts = " ".join(f"{x},{y}" for x, y in points)
        yield (
            f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1.5"/>\n'
            + "".join(f'<circle cx="{x}" cy="{y}" r="4" fill="crimson"/>\n' for x, y in points)
        ).encode()
    yield b"</svg>\n"


# --- Flat-array exploration -----------------------------------------------------

@dataclass(frozen=True)
class FlatSpace:
    """Per-group alternative attributes packed into flat arrays for the
    chunked kernels; `offsets[g]:offsets[g]+sizes[g]` is group g."""

    offsets: np.ndarray
    sizes: np.ndarray
    f_req: np.ndarray  # Hz
    f_max: np.ndarray  # Hz
    power: np.ndarray  # mW
    area: np.ndarray

    @property
    def total(self) -> int:
        return math.prod(self.sizes.tolist())


def flatten_groups(
    groups: Mapping[str, Sequence[MccAlternative]], env: Mapping[str, EnvelopeEntry]
) -> FlatSpace:
    if not groups:
        raise DseError("no computation groups to explore")
    for name, rows in groups.items():
        for char in '\0,"\r\n':  # report cells are NUL-padded, bare CSV cells
            if char in name:
                raise DseError(
                    f"computation name {name!r} contains {char!r}, which a report cell cannot hold"
                )
        if not rows:
            raise DseError(f"computation '{name}' has no alternatives")
        for alt in rows:
            if alt.mcc != name:
                raise DseError(f"group '{name}' contains a row for '{alt.mcc}'")
    sizes = np.array([len(groups[n]) for n in groups], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    missing = [n for n in groups if n not in env]
    if missing:
        raise DseError(f"no timing envelope entry for computation '{missing[0]}'")
    rows = [alt for n in groups for alt in groups[n]]
    f_req = np.array([required_frequency(alt, env[alt.mcc]) for alt in rows], dtype=np.float64)
    return FlatSpace(
        offsets=offsets,
        sizes=sizes,
        f_req=f_req,
        f_max=np.array([alt.f_max for alt in rows], dtype=np.float64),
        power=np.array([alt.power for alt in rows], dtype=np.float64),
        area=np.array([alt.area for alt in rows], dtype=np.float64),
    )


def synthetic_space(
    n_groups: int = 4,
    group_size: int = 32,
    seed: int = 0,
) -> FlatSpace:
    """Randomly generated but reproducible exploration space for scale tests,
    every computation with a 100 ms period; shaped like the real tables
    (cycles/f_max/area/power correlated)."""
    rng = np.random.default_rng(seed)
    n = n_groups * group_size
    cycles = rng.integers(1_000, 2_000_000, size=n).astype(np.float64)
    f_max = rng.uniform(80e6, 200e6, size=n)
    area = rng.uniform(500.0, 30_000.0, size=n)
    power = area * 0.03 * rng.uniform(0.8, 1.2, size=n)
    sizes = np.full(n_groups, group_size, dtype=np.int64)
    offsets = np.arange(n_groups, dtype=np.int64) * group_size
    return FlatSpace(
        offsets=offsets,
        sizes=sizes,
        f_req=cycles / 0.1,
        f_max=f_max,
        power=power,
        area=area,
    )


CHUNK = 1 << 14  # configurations per kernel call and report block; partial sums per merge block


def _extend(sums, rows: np.ndarray, first: int, size: int, area: np.ndarray, terms: np.ndarray,
            chunk: int, margins: tuple[float, float]):
    """Add one group to partial sums: every sum plus every one of its `rows`,
    `chunk` sums at most per product block; the beaten sums of each block
    and of their union are dropped.  `sums` is (areas, energies, config-id
    prefixes), and the group's `size` rows start at flat row `first`."""
    a, e, ids = sums
    step = max(1, chunk // len(rows))
    blocks = []
    for lo in range(0, len(a), step):
        hi = lo + step
        block = (
            (a[lo:hi, None] + area[rows]).ravel(),
            (e[lo:hi, None] + terms[rows]).ravel(),
            (ids[lo:hi, None] * size + (rows - first)).ravel(),
        )
        keep = ~kernels.dominated(block[0], block[1], *margins)
        blocks.append(tuple(column[keep] for column in block))
    if len(blocks) == 1:
        return blocks[0]
    a, e, ids = (np.concatenate(columns) for columns in zip(*blocks))
    keep = ~kernels.dominated(a, e, *margins)
    return a[keep], e[keep], ids[keep]


def _merge_front(
    space: FlatSpace,
    window: float,
    static_fraction: float = 0.0,
    independent: bool = False,
    chunk: int = CHUNK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The front of the space, found by merging per-group fronts instead of
    enumerating the cartesian product.

    With a common clock, each distinct f_req is taken in turn as the clock f,
    and its pass sums every configuration of rows with f_req <= f <= f_max,
    group by group in declaration order from 0.0 with `evaluate_combos`'
    per-row energy, so that each configuration f clocks (one with a row at
    f_req == f) totals its enumerated value to the bit.  One whose largest
    f_req f' is below f totals the same area and, as the scaled power of a
    power >= 0 does not fall as the clock rises, no less energy than at f';
    so it removes no front point, and where it ties itself the front lists
    its id once.  With `independent` the one clock is each row's own f_req,
    so one pass sums the rows with f_req <= f_max.

    After each group, a partial sum is dropped only when another one is not
    above it in either coordinate and below it by more than the rounding
    error that the remaining additions and the window product can make (4 G
    eps times the largest possible total, plus a floor for subnormals), so
    the dropped sum ends dominated in every configuration and exact ties
    survive, as in enumeration.  Each pass's sums join the front through an
    exact `pareto_mask`; the clocks run upwards, and one is skipped when a
    front point already dominates the sum of its groups' least areas and
    energies, which no configuration it clocks can beat.  All three tests
    are `kernels.dominated`.  A space is refused when a row has a negative
    power or required clock (only a hand-built `FlatSpace` can), when it
    holds more configurations than an int64 id can number, or when the
    groups' largest areas, or largest energies over the window at the
    highest clock each row can run at, sum beyond a float's range.

    Returns (front areas, front energies in mJ, front config ids), sorted by
    area, energy and id, and the number of feasible configs, counted
    combinatorially.
    """
    for what, values, unit in (("power", space.power, "mW"), ("required clock", space.f_req, "Hz")):
        if (values < 0).any():
            raise DseError(f"a row has a negative {what}, {float(values.min())} {unit}")
    if space.total > np.iinfo(np.int64).max:
        raise DseError(f"the design space has {space.total} configurations, more than an int64 id can number")
    if not window > 0:
        raise DseError(f"window must be positive, got {window}")
    d = static_fraction
    f_req, f_max = space.f_req, space.f_max
    sizes = space.sizes.tolist()
    offsets = space.offsets.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        top = kernels.scaled_power(space.power, f_req if independent else f_req.max(), f_max, d)
    for what, values, factor in (("areas", space.area, 1.0), ("energies over the window", top, window)):
        if not math.isfinite(sum(float(values[lo:lo + n].max()) for lo, n in zip(offsets, sizes)) * factor):
            raise DseError(f"the computations' largest {what} sum to more than a float can hold")
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    front = np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
    feasible = 0
    for f in [f_req] if independent else np.unique(f_req).tolist():
        # Merge the front of the configurations made of rows that fit clock
        # f, and count those that include a row clocked at f as feasible.
        fits = (f_req <= f) & (f <= f_max)
        at = f_req == f
        terms = kernels.scaled_power(space.power, f, f_max, d)
        groups = [lo + np.flatnonzero(fits[lo:lo + n]) for lo, n in zip(offsets, sizes)]
        n_fit = n_below = 1
        for rows in groups:
            n_fit *= len(rows)
            n_below *= int((~at[rows]).sum())
        if n_fit == n_below:
            continue
        feasible += n_fit - n_below
        # Float sums are monotone, so no configuration here is below the sums
        # of the group minima; a front point that dominates those dominates all.
        low_a = sum(float(space.area[rows].min()) for rows in groups)
        low_e = sum(float(terms[rows].min()) for rows in groups) * window
        if kernels.dominated(np.append(front[0], low_a), np.append(front[1], low_e))[-1]:
            continue
        scale = 4 * len(groups) * eps
        margins = (
            scale * sum(float(np.abs(space.area[rows]).max()) for rows in groups) + 4 * tiny,
            scale * sum(float(np.abs(terms[rows]).max()) for rows in groups)
            + 4 * tiny / min(window, 1.0),
        )
        sums = np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.int64)
        for rows, first, size in zip(groups, offsets, sizes):
            sums = _extend(sums, rows, first, size, space.area, terms, chunk, margins)
        areas, energies, ids = (
            np.concatenate(pair) for pair in zip(front, (sums[0], sums[1] * window, sums[2]))
        )
        keep = kernels.pareto_mask(areas, energies)
        front = areas[keep], energies[keep], ids[keep]
    areas, energies, ids = front
    order = np.lexsort((ids, energies, areas))
    areas, energies, ids = areas[order], energies[order], ids[order]
    once = np.append(True, ids[1:] != ids[:-1])[:len(ids)]  # a config tied with itself at two clocks
    return areas[once], energies[once], ids[once], feasible


def explore_streaming(
    space: FlatSpace,
    window: float = 0.1,
    chunk: int = CHUNK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The front of a space with a common clock and no static power, merged
    from per-group fronts without enumerating the configurations; `chunk`
    bounds the partial sums formed in one product block.

    Returns (front areas, front energies in mJ, front config indices, number
    of feasible configs).
    """
    return _merge_front(space, window, chunk=chunk)
