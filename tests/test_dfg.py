"""Dataflow-graph IR: dependence analyses, unrolling, and the text format."""

import hashlib
import random

import pytest

from conftest import random_dfg
from psmsynth.dfg import (
    DEFAULT_LATENCIES,
    CycleError,
    Dfg,
    DfgError,
    InfeasibleLatency,
    Loop,
    LoopNest,
    Op,
    UnrollError,
    asap,
    format_nest,
    max_useful_latency,
    min_latency,
    nest_parts,
    parse_nest,
    unroll,
)


def chain3() -> Dfg:
    return Dfg(
        ops=(Op(2, "add", (0, 1)), Op(3, "add", (2,)), Op(4, "add", (3,))),
        inputs=(0, 1),
        outputs=(4,),
    )


# --- Structure ----------------------------------------------------------------

def test_ids_must_be_dense():
    with pytest.raises(DfgError):
        Dfg(ops=(Op(5, "add", ()),), inputs=(0,), outputs=(5,))


def test_unknown_op_type_rejected():
    with pytest.raises(DfgError):
        Dfg(ops=(Op(1, "teleport", (0,)),), inputs=(0,), outputs=(1,))


def test_cycle_detected():
    with pytest.raises(CycleError):
        Dfg(ops=(Op(0, "add", (1,)), Op(1, "add", (0,))), inputs=(), outputs=(1,))


def test_topo_order_respects_dependences():
    rng = random.Random(1)
    for _ in range(50):
        d = random_dfg(rng, 20)
        order = d.order
        pos = {v: i for i, v in enumerate(order)}
        op_ids = set(pos)
        for op in d.ops:
            for p in op.operands:
                if p in op_ids:
                    assert pos[p] < pos[op.id]


# --- ASAP / ALAP against a path-enumeration oracle ----------------------------

def _longest_path_to(d: Dfg, v: int, latencies) -> int:
    """Longest latency-weighted path ending just before v, by memoized DFS."""
    op_ids = {op.id for op in d.ops}
    memo: dict[int, int] = {}

    def walk(u: int) -> int:
        if u not in memo:
            op = d.op(u)
            memo[u] = max(
                (walk(p) + latencies.get(d.op(p).type, 1) for p in op.operands if p in op_ids),
                default=0,
            )
        return memo[u]

    return walk(v)


def test_asap_matches_longest_path_oracle():
    rng = random.Random(2)
    for _ in range(200):
        d = random_dfg(rng, 15)
        early = asap(d)
        for op in d.ops:
            assert early[op.id] == _longest_path_to(d, op.id, DEFAULT_LATENCIES)


def test_alap_bounds_and_tightness():
    rng = random.Random(3)
    for _ in range(200):
        d = random_dfg(rng, 15)
        lam = min_latency(d) + rng.randint(0, 4)
        early = asap(d)
        late = d.frames(lam)[1]
        op_ids = {op.id for op in d.ops}
        succ: dict[int, list[int]] = {i: [] for i in op_ids}
        for op in d.ops:
            for p in op.operands:
                if p in op_ids:
                    succ[p].append(op.id)
        for op in d.ops:
            lat = DEFAULT_LATENCIES.get(op.type, 1)
            assert early[op.id] <= late[op.id]
            assert late[op.id] + lat <= lam
            # ALAP is tight: either the makespan bound or a successor binds.
            a = late[op.id]
            if succ[op.id]:
                assert a + lat == min(late[s] for s in succ[op.id])
            else:
                assert a + lat == lam


def test_alap_infeasible_below_min_latency():
    d = chain3()
    assert min_latency(d) == 3
    with pytest.raises(InfeasibleLatency) as err:
        d.frames(2)
    assert err.value.needed == 3


def test_max_useful_latency_serializes_per_type():
    # Four independent adds on one adder: 4 cycles of useful latency range.
    d = Dfg(ops=tuple(Op(i, "add", ()) for i in range(4)), inputs=(), outputs=(3,))
    assert min_latency(d) == 1
    assert max_useful_latency(d) == 4
    assert max_useful_latency(chain3()) == 3


# --- Unrolling ----------------------------------------------------------------

def accumulator_loop() -> Loop:
    # op 2 (add) reads op 1 (mul), but the carried edge marks that read as the
    # previous iteration's value; iteration 0 uses the same-body stand-in.
    body = Dfg(
        ops=(Op(1, "mul", (0,)), Op(2, "add", (1,))),
        inputs=(0,),
        outputs=(2,),
    )
    return Loop(body=body, trip=8, carried=((1, 2),))


def executed_ops(nest: LoopNest) -> int:
    parts = nest_parts(nest).values()
    return sum(runs * len(part.ops) for part, runs in parts if part is not None)


def test_nest_parts_count_runs_of_nested_loops():
    body = Dfg((Op(0, "add", ()),), (), (0,))
    inner = Loop(body=body, trip=10)
    nest = LoopNest(loops=(Loop(body=body, trip=5, children=(inner,)),), pre=body, post=body)
    runs = {key: n for key, (_, n) in nest_parts(nest).items()}
    assert runs == {"pre": 1, "post": 1, (0,): 5, (0, 0): 50}
    # Makespans 4 (pre), 3 (outer), 2 (inner), 1 (post): 4 + 5 * (3 + 10 * 2) + 1.
    spans = {"pre": 4, (0,): 3, (0, 0): 2, "post": 1}
    assert sum(n * spans[key] for key, n in runs.items()) == 120


def test_unroll_preserves_dynamic_op_count():
    nest = LoopNest(loops=(accumulator_loop(),))
    assert executed_ops(nest) == 16
    for factor in (1, 2, 4, 8):
        un = unroll(nest, factor)
        assert executed_ops(un) == 16
        assert un.loops[0].trip == 8 // factor


def test_unroll_factor_must_divide_trip():
    nest = LoopNest(loops=(accumulator_loop(),))
    with pytest.raises(UnrollError):
        unroll(nest, 3)


def test_non_unrollable_loop_rejected():
    loop = accumulator_loop()
    loop = Loop(loop.body, loop.trip, loop.carried, unrollable=False)
    with pytest.raises(UnrollError):
        unroll(LoopNest(loops=(loop,)), 2)


def test_unroll_wires_carried_dependence_between_copies():
    un = unroll(LoopNest(loops=(accumulator_loop(),)), 2).loops[0]
    assert un.trip == 4
    body = un.body
    # Ids: input 0, copy 0 -> (mul 1, add 2), copy 1 -> (mul 3, add 4).
    muls = sorted((op for op in body.ops if op.type == "mul"), key=lambda o: o.id)
    adds = sorted((op for op in body.ops if op.type == "add"), key=lambda o: o.id)
    assert [op.id for op in muls] == [1, 3]
    assert [op.id for op in adds] == [2, 4]
    # Copy 0 keeps the same-body stand-in; copy 1's carried read is rewired to
    # copy 0's producer.
    assert adds[0].operands == (1,)
    assert adds[1].operands == (1,)
    # Both mul copies read the shared input port.
    assert muls[0].operands == muls[1].operands == (0,)
    # The loop-carried edge now spans the last copy back to the first.
    assert un.carried == ((3, 2),)


def test_unroll_identity_factor():
    loop = accumulator_loop()
    assert unroll(LoopNest(loops=(loop,)), 1).loops[0] is loop


# --- Text format --------------------------------------------------------------

def test_nest_text_round_trip():
    nest = LoopNest(
        pre=Dfg((Op(1, "load", (0,)),), (0,), (1,)),
        loops=(accumulator_loop(),),
        post=Dfg((Op(1, "store", (0,)),), (0,), ()),
    )
    text = format_nest(nest)
    again = parse_nest(text)
    assert again == nest
    assert format_nest(again) == text


def test_bare_op_listing_is_a_straight_line_graph():
    nest = parse_nest("in 0\nop 1 add 0\nout 1\n")
    assert nest.loops == ()
    assert nest.pre is not None and len(nest.pre.ops) == 1


def test_fixture_dfgs_parse_and_round_trip(fixtures):
    for name in ["mhr.dfg", "spo2.dfg", "emg.dfg", "chain.dfg", "adds4.dfg"]:
        text = (fixtures / name).read_text()
        nest = parse_nest(text)
        assert executed_ops(nest) > 0
        assert parse_nest(format_nest(nest)) == nest


def test_malformed_line_rejected():
    with pytest.raises(DfgError):
        parse_nest("bogus 1 2\n")
    with pytest.raises(DfgError):
        parse_nest("loop 4 {\nin 0\n")  # missing closing brace


# --- Golden reader --------------------------------------------------------------
# sha256 over `parse_nest` outcomes, the `format_nest` text or the error, for
# seeded random line sequences, seeded random nests and seeded line mutations
# of the fixture graphs.  Any change to what the reader accepts, or to which
# error it raises first, changes the digest.

LINES = [
    "pre {", "post {", "pre  {  # c", "pre{", "loop 2 {", "loop 3 nounroll {", "loop 4 nounrol {",
    "loop", "loop 3", "loop x {", "loop 0 {", "loop ٣ {", "loop\t2 {", "}", "} # c", "carry 1 2",
    "carry 2 1", "carry 1", "carry 1 1 1", "carry", "in 0", "in 1", "in 0 1", "op 1 add 0",
    "op 2 mul 1 0", "op 2 add 1 # c", "op 3 div", "op 1 nop 0", "out 1", "out 2", "out", "",
    "   ", "# only a comment", "junk", "   op 1 add 0   ",
]
NEST_SHA256 = "fa1dae41dfb7b054075bab3185e2b639652ffb1f78821154acd181d3eeaa4665"


def random_nest_text(rng: random.Random) -> str:
    def loop(depth: int) -> Loop:
        body = random_dfg(rng, 6)
        ids = [op.id for op in body.ops]
        carried = tuple((rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 2)))
        children = tuple(loop(depth + 1) for _ in range(rng.randint(0, 2 - depth)))
        return Loop(body, rng.choice([2, 4, 6]), carried, rng.random() < 0.7, children)

    pre = random_dfg(rng, 5) if rng.random() < 0.5 else None
    post = random_dfg(rng, 5) if rng.random() < 0.5 else None
    loops = tuple(loop(0) for _ in range(rng.randint(0, 2)))
    return format_nest(LoopNest(loops, pre, post))


def mutate_lines(rng: random.Random, lines: list[str]) -> list[str]:
    lines = list(lines)
    i = rng.randrange(len(lines) + 1)
    kind = rng.randrange(5) if lines else 3
    i = min(i, len(lines) - 1) if kind != 3 else i
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        lines.insert(i, rng.choice(LINES))
    else:
        k = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:k] + rng.choice("{} #0123abn") + lines[i][k + 1:]
    return lines


def test_golden_nest_outcomes(fixtures):
    rng = random.Random(29)
    texts = ["\n".join(rng.choices(LINES, k=rng.randint(0, 12))) for _ in range(3000)]
    for _ in range(400):
        lines = random_nest_text(rng).splitlines()
        texts.append("\n".join(mutate_lines(rng, lines) if rng.random() < 0.6 else lines))
    for name in ["mhr.dfg", "spo2.dfg", "emg.dfg", "chain.dfg", "adds4.dfg"]:
        lines = (fixtures / name).read_text().splitlines()
        texts += ["\n".join(mutate_lines(rng, lines)) for _ in range(80)]
    digest = hashlib.sha256()
    for text in texts:
        try:
            digest.update(format_nest(parse_nest(text)).encode())
        except DfgError as err:
            digest.update(f"{type(err).__name__}: {err}\n".encode())
    assert digest.hexdigest() == NEST_SHA256
