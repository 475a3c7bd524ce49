"""Output checks for the pipeline benchmark.

Every check here is written against the file formats and the definitions in
the paper, not against `psmsynth` code, so a defect in the program cannot
also hide in its judge.  Each check returns a list of problem strings; an
empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array
from dataclasses import dataclass, field

import numpy as np

# Cycle latencies of the operation types; every other type takes one cycle.
OP_LATENCY = {"div": 4, "load": 2, "store": 2}


def op_latency(op_type: str) -> int:
    return OP_LATENCY.get(op_type, 1)


# --- Dataflow graphs and schedules --------------------------------------------

@dataclass
class Graph:
    """One schedulable part of a `.dfg` file: op id -> (type, operands)."""

    ops: dict[int, tuple[str, tuple[int, ...]]] = field(default_factory=dict)


def parse_dfg_parts(text: str) -> dict[str, Graph]:
    """Parts of a `.dfg` file keyed as the CLI names its `.sched` files:
    'pre', 'post' and 'loop_<i>[_<j>...]' by loop position."""
    parts: dict[str, Graph] = {}
    stack: list[tuple[str, list[int]]] = []  # (part key, child counter)
    top_loops = [0]
    loose = Graph()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if line == "}":
            stack.pop()
        elif words[0] in ("pre", "post"):
            parts[words[0]] = Graph()
            stack.append((words[0], [0]))
        elif words[0] == "loop":
            if stack:
                counter = stack[-1][1]
                key = f"{stack[-1][0]}_{counter[0]}"
            else:
                counter = top_loops
                key = f"loop_{counter[0]}"
            counter[0] += 1
            parts[key] = Graph()
            stack.append((key, [0]))
        elif words[0] == "op":
            graph = parts[stack[-1][0]] if stack else loose
            graph.ops[int(words[1])] = (words[2], tuple(int(w) for w in words[3:]))
    if loose.ops:
        parts["pre"] = loose
    return parts


def parse_sched(text: str) -> tuple[int, dict[int, int], dict[str, int]]:
    """(latency bound, op id -> start step, claimed resources) of a `.sched` file."""
    lam = -1
    start: dict[int, int] = {}
    resources: dict[str, int] = {}
    in_resources = False
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if in_resources:
            if words[0] == "}":
                in_resources = False
            else:
                resources[words[0]] = int(words[1])
        elif words[0] == "latency":
            lam = int(words[1])
        elif words[0] == "op":
            start[int(words[1])] = int(words[3])
        elif words[0] == "resources":
            in_resources = True
    return lam, start, resources


def usage(graph: Graph, start: dict[int, int]) -> dict[str, int]:
    """Most instances of each op type busy in any one control step."""
    busy: dict[str, dict[int, int]] = {}
    for oid, (op_type, _) in graph.ops.items():
        slots = busy.setdefault(op_type, {})
        for t in range(start[oid], start[oid] + op_latency(op_type)):
            slots[t] = slots.get(t, 0) + 1
    return {t: max(s.values()) for t, s in busy.items()}


def check_schedule(graph: Graph, lam: int, start: dict[int, int],
                   resources: dict[str, int] | None = None) -> list[str]:
    """Every op placed, no op before step 0, every operand finished before its
    reader starts, every op finished by `lam`, and the claimed resource count
    (when given) equal to the schedule's real peak usage."""
    problems = []
    if set(start) != set(graph.ops):
        return [f"schedule covers ops {sorted(start)}, graph has {sorted(graph.ops)}"]
    for oid, (op_type, operands) in graph.ops.items():
        t = start[oid]
        if t < 0:
            problems.append(f"op {oid} starts at {t}")
        for p in operands:
            if p in graph.ops and t < start[p] + op_latency(graph.ops[p][0]):
                problems.append(f"op {oid} at {t} reads op {p} before it finishes")
        if t + op_latency(op_type) > lam:
            problems.append(f"op {oid} finishes after latency bound {lam}")
    if resources is not None and resources != usage(graph, start):
        problems.append(f"claimed resources {resources} != used {usage(graph, start)}")
    return problems


def graph_of(dfg) -> Graph:
    """Benchmark view of a parsed `psmsynth.dfg.Dfg`."""
    return Graph({op.id: (op.type, tuple(op.operands)) for op in dfg.ops})


def mobility(graph: Graph, lam: int) -> int:
    """Sum over ops of ALAP - ASAP + 1 under latency bound `lam`."""
    order = sorted(graph.ops)  # ids need not be topological; iterate to a fixpoint
    early = {v: 0 for v in order}
    changed = True
    while changed:
        changed = False
        for v in order:
            best = max((early[p] + op_latency(graph.ops[p][0])
                        for p in graph.ops[v][1] if p in graph.ops), default=0)
            if best != early[v]:
                early[v], changed = best, True
    succs: dict[int, list[int]] = {v: [] for v in order}
    for v in order:
        for p in graph.ops[v][1]:
            if p in graph.ops:
                succs[p].append(v)
    late = {v: lam - op_latency(graph.ops[v][0]) for v in order}
    changed = True
    while changed:
        changed = False
        for v in order:
            best = min([late[s] for s in succs[v]] + [lam]) - op_latency(graph.ops[v][0])
            if best != late[v]:
                late[v], changed = best, True
    return sum(late[v] - early[v] + 1 for v in order)


# --- Exploration reports -------------------------------------------------------

def space_size(alts_csv: str) -> int:
    """Configurations of an alternatives table: the product over computations
    of their row counts."""
    rows: dict[str, int] = {}
    with open(alts_csv, encoding="utf-8") as handle:
        k_mcc = handle.readline().rstrip("\n").split(",").index("mcc")
        for line in handle:
            if line.strip():
                mcc = line.split(",")[k_mcc]
                rows[mcc] = rows.get(mcc, 0) + 1
    return int(np.prod(list(rows.values()))) if rows else 0


def _read_configs(path: str, problems: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ids, area, energy, feasible) columns of a configs.csv/pareto.csv file,
    read line by line so that checking a large report adds little to the
    process's peak memory.  A row with the wrong number of cells is added to
    `problems`."""
    ids, area, energy, feasible = array("q"), array("d"), array("d"), array("b")
    with open(path, encoding="utf-8") as handle:
        col = {name: k for k, name in enumerate(handle.readline().rstrip("\n").split(","))}
        k_id, k_area, k_energy, k_ok = col["config_id"], col["area"], col["energy_mj"], col["feasible"]
        for n, line in enumerate(handle, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(col):
                problems.append(f"{os.path.basename(path)} line {n}: {len(cells)} cells for {len(col)} columns")
                continue
            ids.append(int(cells[k_id]))
            area.append(float(cells[k_area]))
            energy.append(float(cells[k_energy]))
            feasible.append(cells[k_ok] == "yes")
    return (np.array(ids, dtype=np.int64), np.array(area), np.array(energy),
            np.array(feasible, dtype=bool))


# Reports print six decimals; closer values count as equal.
REPORT_TOL = 2e-6


def check_front(report_dir: str, n_configs: int) -> list[str]:
    """configs.csv lists configurations 0 .. n_configs-1 in order, every point
    of pareto.csv is a feasible row of configs.csv with the same area and
    energy, and no feasible row of configs.csv dominates it."""
    problems: list[str] = []
    ids, area, energy, feasible = _read_configs(os.path.join(report_dir, "configs.csv"), problems)
    f_ids, f_area, f_energy, _ = _read_configs(os.path.join(report_dir, "pareto.csv"), problems)
    if ids.size != n_configs or (ids != np.arange(ids.size)).any():
        problems.append(f"configs.csv lists {ids.size} rows, not configurations 0..{n_configs - 1} in order")
        return problems
    if f_ids.size == 0:
        return problems + ["empty front"]
    ok_area, ok_energy = area[feasible], energy[feasible]
    for cid, a, e in zip(f_ids, f_area, f_energy):
        k = int(np.searchsorted(ids, cid))  # configs.csv lists ids in order
        if k == ids.size or ids[k] != cid or not feasible[k]:
            problems.append(f"front point {cid} is not a feasible configuration")
            continue
        if abs(area[k] - a) > REPORT_TOL or abs(energy[k] - e) > REPORT_TOL:
            problems.append(f"front point {cid} disagrees with its configs.csv row")
        dominated = (
            (ok_area <= a + REPORT_TOL) & (ok_energy <= e + REPORT_TOL)
            & ((ok_area < a - REPORT_TOL) | (ok_energy < e - REPORT_TOL))
        )
        if dominated.any():
            problems.append(f"front point {cid} is dominated by {int(dominated.sum())} configuration(s)")
    return problems


def brute_force_front(space, window: float) -> tuple[set[int], int]:
    """(front config ids, feasible count) of a flat design space by direct
    evaluation of every configuration: common clock = the largest required
    frequency, feasible iff it is within every chosen alternative's maximum,
    energy = sum of power scaled by clock ratio over the window."""
    sizes = [int(s) for s in space.sizes]
    offsets = [int(o) for o in space.offsets]
    total = int(np.prod(sizes))
    points = []
    feasible = 0
    for cid in range(total):
        rows, rest = [], cid
        for g in range(len(sizes) - 1, -1, -1):
            rows.append(offsets[g] + rest % sizes[g])
            rest //= sizes[g]
        f_c = max(float(space.f_req[r]) for r in rows)
        if f_c > min(float(space.f_max[r]) for r in rows):
            continue
        feasible += 1
        a = sum(float(space.area[r]) for r in rows)
        e = sum(float(space.power[r]) * f_c / float(space.f_max[r]) for r in rows) * window
        points.append((cid, a, e))
    if not points:
        return set(), 0
    pts = np.array([(a, e) for _, a, e in points])
    front = set()
    for k, (cid, a, e) in enumerate(points):
        dominated = ((pts[:, 0] <= a) & (pts[:, 1] <= e) & ((pts[:, 0] < a) | (pts[:, 1] < e))).any()
        if not dominated:
            front.add(cid)
    return front, feasible


def check_streaming(space, window: float, front_ids, feasible: int) -> list[str]:
    expected, expected_feasible = brute_force_front(space, window)
    problems = []
    got = {int(i) for i in front_ids}
    if got != expected:
        problems.append(f"streaming front {sorted(got)} != brute force {sorted(expected)}")
    if feasible != expected_feasible:
        problems.append(f"streaming feasible count {feasible} != brute force {expected_feasible}")
    return problems


# --- Cycle-level verification ------------------------------------------------------

def check_sequences(ref, cyc, instances) -> list[str]:
    """Per instance, the FSM trace enters the same states and emits the same
    events, with the same payloads, in the same order as the reference."""
    problems = []
    for name in instances:
        ref_states = [e.state for e in ref.state_entries if e.instance == name]
        cyc_states = [e.state for e in cyc.entries if e.instance == name]
        if ref_states != cyc_states:
            problems.append(f"{name}: {len(cyc_states)} FSM state entries vs {len(ref_states)} in the reference")
        ref_events = [(e.event, e.payload) for e in ref.events if e.instance == name]
        cyc_events = [(e.event, e.payload) for e in cyc.events if e.instance == name]
        if ref_events != cyc_events:
            problems.append(f"{name}: FSM output events differ from the reference")
    return problems


def check_vcd(text: str, n_state_entries: int) -> list[str]:
    """The waveform holds one state-value change per state entry."""
    changes = sum(1 for line in text.splitlines() if line.startswith("b"))
    if changes != n_state_entries:
        return [f"VCD has {changes} state changes for {n_state_entries} state entries"]
    return []


# --- Output digests ----------------------------------------------------------------

def file_digest(paths: list[str], root: str) -> str:
    """sha256 over relative path and bytes of each file; `manifest.json` is
    hashed without its timestamp, the one field that changes between runs."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as handle:
            if os.path.basename(path) == "manifest.json":
                manifest = json.load(handle)
                manifest.pop("timestamp", None)
                h.update(json.dumps(manifest, sort_keys=True).encode())
            else:
                while chunk := handle.read(1 << 20):
                    h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def text_digest(*chunks: str | bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode() if isinstance(chunk, str) else chunk)
        h.update(b"\0")
    return h.hexdigest()
