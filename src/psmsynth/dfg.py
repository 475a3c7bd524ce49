"""Typed dataflow-graph IR for multi-cycle computations.

Graphs are acyclic over a dense shared id space covering input ports and
operations, and an operation's latency is fixed by its type
(`DEFAULT_LATENCIES`).  Loop nests carry trip counts and optional distance-1
carried dependences; unrolling replicates loop bodies by even factors only,
so no pre-amble or post-amble code is ever required.  `nest_parts` is the one
walk over a nest: it gives each part with its runs per activation.  In the
`.dfg` text format every line is exactly one token form (`parse_nest`), and
a file is read in one pass over its lines with a stack of open blocks; a
block's lines are parsed when its `}` closes it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping

OP_TYPES = frozenset(
    {"add", "sub", "mul", "div", "cmp", "shift", "logic", "load", "store", "select"}
)

DEFAULT_LATENCIES = {t: 1 for t in OP_TYPES} | {"div": 4, "load": 2, "store": 2}


class DfgError(Exception):
    pass


class CycleError(DfgError):
    pass


class UnrollError(DfgError):
    pass


@dataclass(frozen=True)
class Op:
    id: int
    type: str
    operands: tuple[int, ...] = ()


@dataclass(frozen=True)
class Dfg:
    """A graph, indexed once when built: `preds` holds each op's operands
    that are ops (an operand used twice is listed twice), `succs` the ops
    reading each op in `ops` order, `lat` each op's latency, `order` the
    ops in dependence order, lowest ready id first, and `early` each op's
    ASAP start, which `asap`, `min_latency` and `frames` read."""

    ops: tuple[Op, ...] = ()
    inputs: tuple[int, ...] = ()
    outputs: tuple[int, ...] = ()
    _by_id: dict[int, Op] = field(init=False, repr=False, compare=False)
    preds: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    succs: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    lat: dict[int, int] = field(init=False, repr=False, compare=False)
    order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    early: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = sorted(self.inputs) + sorted(o.id for o in self.ops)
        if sorted(ids) != list(range(len(ids))):
            raise DfgError(f"ids must be dense and unique, got {sorted(ids)}")
        known = set(ids)
        for op in self.ops:
            if op.type not in OP_TYPES:
                raise DfgError(f"op {op.id} has unknown type '{op.type}'")
            for operand in op.operands:
                if operand not in known:
                    raise DfgError(f"op {op.id} references undeclared id {operand}")
        for out in self.outputs:
            if out not in known:
                raise DfgError(f"output references undeclared id {out}")
        by_id = {op.id: op for op in self.ops}
        preds = {op.id: [p for p in op.operands if p in by_id] for op in self.ops}
        succs: dict[int, list[int]] = {v: [] for v in by_id}
        for v, ps in preds.items():
            for p in ps:
                succs[p].append(v)
        indeg = {v: len(ps) for v, ps in preds.items()}
        ready = [v for v, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for s in succs[v]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
        if len(order) != len(self.ops):
            stuck = sorted(i for i, d in indeg.items() if d > 0)
            raise CycleError(f"dependence cycle through ops {stuck}")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "preds", preds)
        object.__setattr__(self, "succs", succs)
        lat = {op.id: DEFAULT_LATENCIES[op.type] for op in self.ops}
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "early", _forward(order, preds, lat, {}))

    def op(self, op_id: int) -> Op:
        return self._by_id[op_id]

    def frames(
        self, lam: int, fixed: Mapping[int, int] | None = None
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Start-time bounds lo[v] <= hi[v] for every op under the latency
        constraint `lam`, honoring fixed placements: with nothing fixed, the
        ASAP and ALAP starts.  Raises InfeasibleLatency when a frame is
        empty."""
        fixed = fixed or {}
        lat, order, preds, succs = self.lat, self.order, self.preds, self.succs
        lo = _forward(order, preds, lat, fixed) if fixed else dict(self.early)
        hi: dict[int, int] = {}
        for v in reversed(order):
            hi[v] = fixed[v] if v in fixed else min(
                (hi[s] for s in succs[v]), default=lam
            ) - lat[v]
        for v in order:
            if lo[v] > hi[v]:
                raise InfeasibleLatency(lam, min_latency(self), v)
        return lo, hi


def _forward(order, preds, lat, fixed: Mapping[int, int]) -> dict[int, int]:
    """Each op's earliest start, in dependence `order`, with the `fixed`
    ops at their placements: one forward pass over the graph."""
    lo: dict[int, int] = {}
    for v in order:
        lo[v] = fixed[v] if v in fixed else max((lo[p] + lat[p] for p in preds[v]), default=0)
    return lo


@dataclass(frozen=True)
class Loop:
    body: Dfg
    trip: int
    carried: tuple[tuple[int, int], ...] = ()  # (producer, consumer), distance 1
    unrollable: bool = True
    children: tuple["Loop", ...] = ()

    def __post_init__(self):
        if self.trip < 1:
            raise DfgError(f"trip count must be >= 1, got {self.trip}")
        body_ids = {op.id for op in self.body.ops}
        for src, dst in self.carried:
            if src not in body_ids or dst not in body_ids:
                raise DfgError(f"carried dependence ({src}, {dst}) outside loop body")


@dataclass(frozen=True)
class LoopNest:
    loops: tuple[Loop, ...] = ()
    pre: Dfg | None = None
    post: Dfg | None = None


def nest_parts(nest: LoopNest) -> dict[str | tuple[int, ...], tuple[Dfg | None, int]]:
    """Each graph of a nest with its runs per activation of the nest, by part:
    'pre' and 'post' run once; each loop body, keyed by its position (the
    tuple of loop indices from the outermost loop in), runs the product of
    its own trip count and those of the loops around it.  Parts come in
    declaration order (outer loops before the loops they contain)."""
    parts: dict[str | tuple[int, ...], tuple[Dfg | None, int]] = {
        "pre": (nest.pre, 1), "post": (nest.post, 1),
    }

    def walk(loops: tuple[Loop, ...], key: tuple[int, ...], runs: int) -> None:
        for i, loop in enumerate(loops):
            parts[key + (i,)] = (loop.body, runs * loop.trip)
            walk(loop.children, key + (i,), runs * loop.trip)

    walk(nest.loops, (), 1)
    return parts


def unroll_loop(loop: Loop, factor: int) -> Loop:
    """The loop with its body copied `factor` times and its trip count divided
    by `factor`, its children unrolled alike.  Input ports keep their rank
    and every copy shares them; copy c of the k-th op (ordered by id) is
    `len(inputs) + c * len(ops) + k`.  In copy c > 0 a carried operand reads
    copy c - 1, and each carry runs from the last copy back to the first."""
    if factor < 1:
        raise UnrollError(f"unroll factor must be >= 1, got {factor}")
    if factor == 1:
        return loop
    if not loop.unrollable:
        raise UnrollError("loop is marked non-unrollable (data-dependent exit)")
    if loop.trip % factor != 0:
        raise UnrollError(f"factor {factor} does not divide trip count {loop.trip}")

    body = loop.body
    n_in, n_ops = len(body.inputs), len(body.ops)
    ops = sorted(body.ops, key=lambda op: op.id)
    rank = {v: k for k, v in enumerate(sorted(body.inputs) + [op.id for op in ops])}
    carried = set(loop.carried)

    def new_id(v: int, copy: int) -> int:
        return rank[v] if rank[v] < n_in else rank[v] + copy * n_ops

    copies = tuple(
        Op(new_id(op.id, c), op.type, tuple(
            new_id(x, c - 1 if c and (x, op.id) in carried else c) for x in op.operands
        ))
        for c in range(factor) for op in ops
    )
    return Loop(
        body=Dfg(copies, tuple(range(n_in)), tuple(new_id(o, factor - 1) for o in body.outputs)),
        trip=loop.trip // factor,
        carried=tuple((new_id(src, factor - 1), new_id(dst, 0)) for src, dst in loop.carried),
        children=tuple(unroll_loop(child, factor) for child in loop.children),
    )


def unroll(nest: LoopNest, factor: int) -> LoopNest:
    """Apply one unroll factor to every loop of the nest."""
    return LoopNest(
        loops=tuple(unroll_loop(l, factor) for l in nest.loops),
        pre=nest.pre,
        post=nest.post,
    )


# --- Scheduling analyses -----------------------------------------------------

def asap(dfg: Dfg) -> dict[int, int]:
    return dict(dfg.early)


def min_latency(dfg: Dfg) -> int:
    return max((start + dfg.lat[v] for v, start in dfg.early.items()), default=0)


class InfeasibleLatency(DfgError):
    def __init__(self, lam: int, needed: int, op_id: int | None = None):
        self.lam = lam
        self.needed = needed
        self.op_id = op_id
        at = f" (op {op_id})" if op_id is not None else ""
        super().__init__(f"latency constraint {lam} below minimum {needed}{at}")


def max_useful_latency(dfg: Dfg) -> int:
    """Makespan of a fully serialized schedule with one resource instance per
    operation type (list order: ready ops by ascending id).  Longer latency
    constraints only add idle cycles, so this bounds the worthwhile range."""
    done: dict[int, int] = {}
    free_at: dict[str, int] = {}
    for v in dfg.order:
        kind = dfg.op(v).type
        begin = max(max((done[p] for p in dfg.preds[v]), default=0), free_at.get(kind, 0))
        done[v] = free_at[kind] = begin + dfg.lat[v]
    return max(done.values(), default=0)


# --- Text format -------------------------------------------------------------

def format_dfg(dfg: Dfg, indent: str = "") -> str:
    lines = []
    for i in sorted(dfg.inputs):
        lines.append(f"{indent}in {i}")
    for op in sorted(dfg.ops, key=lambda o: o.id):
        operands = " ".join(str(x) for x in op.operands)
        lines.append(f"{indent}op {op.id} {op.type}{(' ' + operands) if operands else ''}")
    for o in dfg.outputs:
        lines.append(f"{indent}out {o}")
    return "\n".join(lines)


def format_nest(nest: LoopNest) -> str:
    out: list[str] = []
    if nest.pre is not None and (nest.pre.ops or nest.pre.inputs):
        out.append("pre {")
        out.append(format_dfg(nest.pre, "  "))
        out.append("}")

    def emit_loop(loop: Loop, depth: int):
        pad = "  " * depth
        flags = "" if loop.unrollable else " nounroll"
        out.append(f"{pad}loop {loop.trip}{flags} {{")
        out.append(format_dfg(loop.body, pad + "  "))
        for src, dst in loop.carried:
            out.append(f"{pad}  carry {src} {dst}")
        for child in loop.children:
            emit_loop(child, depth + 1)
        out.append(pad + "}")

    for loop in nest.loops:
        emit_loop(loop, 0)
    if nest.post is not None and (nest.post.ops or nest.post.inputs):
        out.append("post {")
        out.append(format_dfg(nest.post, "  "))
        out.append("}")
    return "\n".join(out) + "\n"


def parse_dfg_lines(lines: list[str]) -> Dfg:
    """The graph of a block's content lines (`in N`, `op ID TYPE
    [OPERAND...]`, `out N`), each already stripped of its comment and
    surrounding whitespace and none blank, as `parse_nest` hands them on."""
    ops: list[Op] = []
    inputs: list[int] = []
    outputs: list[int] = []
    for text in lines:
        parts = text.split()
        try:
            if parts[0] in ("in", "out"):
                _, value = parts
                (inputs if parts[0] == "in" else outputs).append(int(value))
            elif parts[0] == "op":
                ops.append(Op(int(parts[1]), parts[2], tuple(int(x) for x in parts[3:])))
            else:
                raise DfgError(f"unknown dfg line: {text!r}")
        except (ValueError, IndexError):
            raise DfgError(f"malformed dfg line: {text!r}") from None
    return Dfg(tuple(ops), tuple(inputs), tuple(outputs))


@dataclass
class _Block:
    kind: str | tuple[int, bool] | None  # 'pre', 'post', a loop's (trip, unrollable), or top level
    lines: list[str] = field(default_factory=list)  # its in/op/out lines
    carried: list[tuple[int, int]] = field(default_factory=list)
    children: list[Loop] = field(default_factory=list)


def parse_nest(text: str) -> LoopNest:
    """Parse the line-oriented `.dfg` format: `pre {`/`post {` segments of
    `in N`, `op ID TYPE [OPERAND...]` and `out N` lines, and nested
    `loop TRIP {` / `loop TRIP nounroll {` blocks that also hold `carry P C`
    lines.  A line with other tokens is malformed."""
    segments: dict[str, Dfg] = {}
    top = _Block(None)  # the top-level loops, and a loose op listing
    stack = [top]  # open blocks, innermost last
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        block = stack[-1]
        if line == "}" and block is not top:
            stack.pop()
            if isinstance(block.kind, str):
                if block.carried or block.children:
                    raise DfgError(f"'{block.kind}' block holds only in/op/out lines, got a "
                                   + ("loop" if block.children else "carry"))
                segments[block.kind] = parse_dfg_lines(block.lines)
            else:
                trip, unrollable = block.kind
                stack[-1].children.append(Loop(parse_dfg_lines(block.lines), trip,
                                               tuple(block.carried), unrollable,
                                               tuple(block.children)))
        elif block is top and words in (["pre", "{"], ["post", "{"]):
            if words[0] in segments:
                raise DfgError(f"second '{words[0]}' block")
            stack.append(_Block(words[0]))
        elif line.startswith("loop "):
            try:
                if words[-1] != "{" or words[2:-1] not in ([], ["nounroll"]):
                    raise ValueError
                stack.append(_Block((int(words[1]), len(words) == 3)))
            except ValueError:
                raise DfgError(f"malformed loop header: {' '.join(words)!r}") from None
        elif line.startswith("carry ") and block is not top:
            try:
                _, src, dst = words
                block.carried.append((int(src), int(dst)))
            except ValueError:
                raise DfgError(f"malformed carry line: {line!r}") from None
        else:
            block.lines.append(line)
    if len(stack) > 1:
        raise DfgError("missing closing '}'")
    if top.lines:
        # A bare op listing with no loop structure: a straight-line computation.
        if "pre" in segments:
            raise DfgError("op listing outside any block next to a 'pre' block")
        segments["pre"] = parse_dfg_lines(top.lines)
    return LoopNest(loops=tuple(top.children), pre=segments.get("pre"), post=segments.get("post"))
