"""Typed dataflow-graph IR for multi-cycle computations.

Graphs are acyclic over a dense shared id space covering input ports and
operations.  Loop nests carry trip counts and optional distance-1 carried
dependences; unrolling replicates loop bodies by even factors only, so no
pre-amble or post-amble code is ever required.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    ops: tuple[Op, ...] = ()
    inputs: tuple[int, ...] = ()
    outputs: tuple[int, ...] = ()
    _by_id: dict[int, Op] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_by_id", {op.id: op for op in self.ops})

    def op(self, op_id: int) -> Op:
        return self._by_id[op_id]

    def successors(self) -> dict[int, list[int]]:
        succ: dict[int, list[int]] = {op.id: [] for op in self.ops}
        for i in self.inputs:
            succ[i] = []
        for op in self.ops:
            for operand in op.operands:
                succ[operand].append(op.id)
        return succ

    def topo_order(self) -> list[int]:
        """Operation ids in dependence order; raises CycleError on a cycle."""
        indeg = {op.id: 0 for op in self.ops}
        op_ids = set(indeg)
        for op in self.ops:
            indeg[op.id] = sum(1 for x in op.operands if x in op_ids)
        ready = sorted(i for i, d in indeg.items() if d == 0)
        succ = self.successors()
        order: list[int] = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for s in succ[v]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
            ready.sort()
        if len(order) != len(self.ops):
            stuck = sorted(i for i, d in indeg.items() if d > 0)
            raise CycleError(f"dependence cycle through ops {stuck}")
        return order


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


def total_iterations(nest: LoopNest) -> int:
    def walk(loop: Loop) -> int:
        return loop.trip + sum(walk(c) for c in loop.children)

    return sum(walk(l) for l in nest.loops)


def dynamic_op_count(nest: LoopNest) -> int:
    """Total executed operations; invariant under unrolling."""

    def walk(loop: Loop) -> int:
        return loop.trip * (len(loop.body.ops) + sum(walk(c) for c in loop.children))

    count = sum(walk(l) for l in nest.loops)
    for seg in (nest.pre, nest.post):
        if seg is not None:
            count += len(seg.ops)
    return count


def unroll_loop(loop: Loop, factor: int) -> Loop:
    if factor < 1:
        raise UnrollError(f"unroll factor must be >= 1, got {factor}")
    if factor == 1:
        return loop
    if not loop.unrollable:
        raise UnrollError("loop is marked non-unrollable (data-dependent exit)")
    if loop.trip % factor != 0:
        raise UnrollError(f"factor {factor} does not divide trip count {loop.trip}")

    body = loop.body
    n_inputs = len(body.inputs)
    body_ids = sorted(op.id for op in body.ops)
    index_of = {op_id: k for k, op_id in enumerate(body_ids)}
    carried_of_dst: dict[int, int] = {dst: src for src, dst in loop.carried}

    def copy_id(original: int, copy: int) -> int:
        if original in index_of:
            return n_inputs + copy * len(body_ids) + index_of[original]
        return original  # shared input port

    new_inputs = tuple(range(n_inputs))
    remap_inputs = {orig: k for k, orig in enumerate(sorted(body.inputs))}

    def remap(original: int, copy: int) -> int:
        if original in remap_inputs:
            return remap_inputs[original]
        return copy_id(original, copy)

    # Rebuild operand lists with canonical input ids.
    fixed_ops = []
    for copy in range(factor):
        for op_id in body_ids:
            op = body.op(op_id)
            operands = []
            for operand in op.operands:
                if copy > 0 and op_id in carried_of_dst and operand == carried_of_dst[op_id]:
                    # Carried value comes from the previous body copy.
                    operands.append(remap(operand, copy - 1))
                else:
                    operands.append(remap(operand, copy))
            fixed_ops.append(Op(copy_id(op_id, copy), op.type, tuple(operands)))

    new_body = Dfg(
        ops=tuple(fixed_ops),
        inputs=new_inputs,
        outputs=tuple(remap(o, factor - 1) for o in body.outputs),
    )
    new_carried = tuple(
        (copy_id(src, factor - 1), copy_id(dst, 0)) for src, dst in loop.carried
    )
    return Loop(
        body=new_body,
        trip=loop.trip // factor,
        carried=new_carried,
        unrollable=loop.unrollable,
        children=tuple(unroll_loop(c, factor) for c in loop.children),
    )


def unroll(nest: LoopNest, factor: int) -> LoopNest:
    """Apply one unroll factor to every loop of the nest."""
    return LoopNest(
        loops=tuple(unroll_loop(l, factor) for l in nest.loops),
        pre=nest.pre,
        post=nest.post,
    )


# --- Scheduling analyses -----------------------------------------------------

@dataclass
class TimeBounds:
    asap: dict[int, int] = field(default_factory=dict)
    alap: dict[int, int] = field(default_factory=dict)


def _latency(latencies, op: Op) -> int:
    lat = latencies.get(op.type, 1)
    if lat < 1:
        raise DfgError(f"latency for '{op.type}' must be >= 1")
    return lat


def asap(dfg: Dfg, latencies=None) -> dict[int, int]:
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    start: dict[int, int] = {}
    op_ids = {op.id for op in dfg.ops}
    for v in dfg.topo_order():
        op = dfg.op(v)
        start[v] = max(
            (start[p] + _latency(latencies, dfg.op(p)) for p in op.operands if p in op_ids),
            default=0,
        )
    return start


def min_latency(dfg: Dfg, latencies=None) -> int:
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    start = asap(dfg, latencies)
    return max((start[op.id] + _latency(latencies, op) for op in dfg.ops), default=0)


class InfeasibleLatency(DfgError):
    def __init__(self, lam: int, needed: int, op_id: int | None = None):
        self.lam = lam
        self.needed = needed
        self.op_id = op_id
        at = f" (op {op_id})" if op_id is not None else ""
        super().__init__(f"latency constraint {lam} below minimum {needed}{at}")


def alap(dfg: Dfg, lam: int, latencies=None) -> dict[int, int]:
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    op_ids = {op.id for op in dfg.ops}
    succ = {i: [] for i in op_ids}
    for op in dfg.ops:
        for p in op.operands:
            if p in op_ids:
                succ[p].append(op.id)
    start: dict[int, int] = {}
    for v in reversed(dfg.topo_order()):
        op = dfg.op(v)
        lat = _latency(latencies, op)
        start[v] = min((start[s] for s in succ[v]), default=lam) - lat
    early = asap(dfg, latencies)
    for v in sorted(start):
        if early[v] > start[v]:
            raise InfeasibleLatency(lam, min_latency(dfg, latencies), v)
    return start


def time_bounds(dfg: Dfg, lam: int, latencies=None) -> TimeBounds:
    return TimeBounds(asap=asap(dfg, latencies), alap=alap(dfg, lam, latencies))


def max_useful_latency(dfg: Dfg, latencies=None) -> int:
    """Makespan of a fully serialized schedule with one resource instance per
    operation type (list order: ready ops by ascending id).  Longer latency
    constraints only add idle cycles, so this bounds the worthwhile range."""
    latencies = DEFAULT_LATENCIES if latencies is None else latencies
    op_ids = {op.id for op in dfg.ops}
    done: dict[int, int] = {}
    free_at: dict[str, int] = {}
    for v in dfg.topo_order():  # lowest id first among ready ops
        op = dfg.op(v)
        lat = _latency(latencies, op)
        ready = max((done[p] for p in op.operands if p in op_ids), default=0)
        begin = max(ready, free_at.get(op.type, 0))
        done[v] = begin + lat
        free_at[op.type] = begin + lat
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
    ops: list[Op] = []
    inputs: list[int] = []
    outputs: list[int] = []
    for raw in lines:
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        try:
            if parts[0] == "in":
                inputs.append(int(parts[1]))
            elif parts[0] == "out":
                outputs.append(int(parts[1]))
            elif parts[0] == "op":
                ops.append(Op(int(parts[1]), parts[2], tuple(int(x) for x in parts[3:])))
            else:
                raise DfgError(f"unknown dfg line: {text!r}")
        except (ValueError, IndexError):
            raise DfgError(f"malformed dfg line: {text!r}") from None
    return Dfg(tuple(ops), tuple(inputs), tuple(outputs))


def parse_nest(text: str) -> LoopNest:
    """Parse the line-oriented `.dfg` format (pre/post segments and nested
    `loop <trip> [nounroll] { ... }` blocks with `carry` lines)."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    pos = 0

    def peek() -> str | None:
        nonlocal pos
        while pos < len(lines):
            stripped = lines[pos].split("#", 1)[0].strip()
            if stripped:
                return stripped
            pos += 1
        return None

    def take() -> str:
        nonlocal pos
        line = peek()
        if line is None:
            raise DfgError("unexpected end of dfg file")
        pos += 1
        return line

    def block_body() -> tuple[list[str], list[tuple[int, int]], list[Loop]]:
        plain: list[str] = []
        carried: list[tuple[int, int]] = []
        loops: list[Loop] = []
        while True:
            line = peek()
            if line is None:
                raise DfgError("missing closing '}'")
            if line == "}":
                take()
                return plain, carried, loops
            if line.startswith("loop "):
                loops.append(loop_block())
            elif line.startswith("carry "):
                parts = take().split()
                try:
                    carried.append((int(parts[1]), int(parts[2])))
                except (ValueError, IndexError):
                    raise DfgError(f"malformed carry line: {line!r}") from None
            else:
                plain.append(take())

    def loop_block() -> Loop:
        header = take().split()
        if header[-1] != "{":
            raise DfgError(f"malformed loop header: {' '.join(header)!r}")
        try:
            trip = int(header[1])
        except (ValueError, IndexError):
            raise DfgError(f"malformed loop header: {' '.join(header)!r}") from None
        unrollable = "nounroll" not in header
        plain, carried, children = block_body()
        return Loop(
            body=parse_dfg_lines(plain),
            trip=trip,
            carried=tuple(carried),
            unrollable=unrollable,
            children=tuple(children),
        )

    pre: Dfg | None = None
    post: Dfg | None = None
    loops: list[Loop] = []
    loose: list[str] = []
    while (line := peek()) is not None:
        if line.startswith("pre"):
            take()
            plain, _carried, _loops = block_body()
            pre = parse_dfg_lines(plain)
        elif line.startswith("post"):
            take()
            plain, _carried, _loops = block_body()
            post = parse_dfg_lines(plain)
        elif line.startswith("loop "):
            loops.append(loop_block())
        else:
            loose.append(take())
    if loose:
        # A bare op listing with no loop structure: a straight-line computation.
        pre = parse_dfg_lines(loose)
    return LoopNest(loops=tuple(loops), pre=pre, post=post)
