"""Force-directed scheduling: validity, conservation, oracle comparisons."""

import hashlib
import pathlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import fds_oracle
from conftest import OP_TYPE_LIST, random_dfg
from ilp import area, min_area_schedule
from psmsynth.dfg import (
    DEFAULT_LATENCIES,
    Dfg,
    InfeasibleLatency,
    Op,
    max_useful_latency,
    min_latency,
    nest_parts,
    parse_nest,
    unroll,
)
from psmsynth import dfg, fds
from psmsynth.fds import (
    fds_schedule,
    format_schedule,
    latency_sweep,
    resource_usage,
    schedule_nest,
    schedule_sweep,
    validate_schedule,
)


def adds4() -> Dfg:
    return Dfg(tuple(Op(i, "add", ()) for i in range(4)), (), (3,))


def chain3() -> Dfg:
    return Dfg((Op(0, "add", ()), Op(1, "add", (0,)), Op(2, "add", (1,))), (), (2,))


class Rounds:
    """What `fds_schedule` computes, as it computes it.  The scheduler numbers
    the ops 0..n-1 in id order.  `graphs` holds every per-type distribution
    graph it computes, as (type, {op: (lo, hi)} of the frames it was computed
    from, {step: mass}); `frames` holds each round's frames {op: (lo, hi)}
    after that round's fix."""

    def __init__(self):
        self.graphs: list = []
        self.frames: list = []

    def clear(self) -> None:
        self.graphs.clear()
        self.frames.clear()


@pytest.fixture
def rounds(monkeypatch) -> Rounds:
    recorded = Rounds()
    type_graph, pin = fds._type_graph, fds._pin

    def recording_graph(kind, ops, lam, lo, hi):
        graph = type_graph(kind, ops, lam, lo, hi)
        recorded.graphs.append((kind, {v: (lo[v], hi[v]) for v in ops}, dict(enumerate(graph))))
        return graph

    def recording_pin(preds, succs, lat, lo, hi, fixed, v, t):
        moved = pin(preds, succs, lat, lo, hi, fixed, v, t)
        recorded.frames.append(dict(enumerate(zip(lo, hi))))
        return moved

    monkeypatch.setattr(fds, "_type_graph", recording_graph)
    monkeypatch.setattr(fds, "_pin", recording_pin)
    return recorded


def indices_of(d: Dfg) -> dict[int, int]:
    """The scheduler's index of each op id."""
    return {v: i for i, v in enumerate(sorted(d.order))}


# --- Validity over many random instances --------------------------------------

def test_random_dags_yield_valid_schedules():
    rng = random.Random(7)
    for _ in range(1000):
        d = random_dfg(rng, 30)
        lo = min_latency(d)
        lam = lo + rng.randint(0, max(1, lo // 2))
        s = fds_schedule(d, lam)
        validate_schedule(d, s)
        assert s.makespan(d) <= lam


def test_distribution_mass_is_conserved_every_round(rounds):
    # Every distribution graph the scheduler computes integrates to (number
    # of ops of its type) x (latency of that type).
    rng = random.Random(19)
    for _ in range(100):
        d = random_dfg(rng, 20)
        expected: dict[str, float] = {}
        for op in d.ops:
            lat = DEFAULT_LATENCIES.get(op.type, 1)
            expected[op.type] = expected.get(op.type, 0.0) + lat
        rounds.clear()
        fds_schedule(d, min_latency(d) + rng.randint(0, 3))
        assert len(rounds.frames) == len(d.ops)
        assert {kind for kind, _, _ in rounds.graphs} == set(expected)
        for kind, _, graph in rounds.graphs:
            assert sum(graph.values()) == pytest.approx(expected[kind])


def test_distribution_graphs_match_direct_summation(rounds):
    # The scheduler integrates second differences; summing each op's
    # occupancy start by start over its frame must give the same graphs.
    rng = random.Random(37)
    for _ in range(50):
        d = random_dfg(rng, 20)
        index = indices_of(d)
        rounds.clear()
        fds_schedule(d, rng.randint(min_latency(d), max_useful_latency(d)))
        assert rounds.graphs
        for kind, frames, graph in rounds.graphs:
            assert set(frames) == {index[op.id] for op in d.ops if op.type == kind}
            lat = DEFAULT_LATENCIES.get(kind, 1)
            direct: dict[int, float] = {}
            for lo, hi in frames.values():
                for start in range(lo, hi + 1):
                    for t in range(start, start + lat):
                        direct[t] = direct.get(t, 0.0) + 1.0 / (hi - lo + 1)
            for t, mass in graph.items():
                assert mass == pytest.approx(direct.get(t, 0.0), abs=1e-12)


def test_incremental_frames_equal_recomputed_frames(rounds, fixtures):
    # Fixing an op at its only start moves no bound, so after every round
    # the ops with lo == hi can stand for the fixed ones.
    rng = random.Random(29)
    jobs = []
    for _ in range(60):
        d = random_dfg(rng, 30)
        jobs.append((d, rng.randint(min_latency(d), max_useful_latency(d))))
    body = unroll(parse_nest((fixtures / "mhr.dfg").read_text()), 2).loops[0].body
    jobs += [(body, 63), (body, 105)]
    for d, lam in jobs:
        index = indices_of(d)
        rounds.clear()
        fds_schedule(d, lam)
        assert len(rounds.frames) == len(d.ops)
        for frames in rounds.frames:
            by_id = {v: frames[index[v]] for v in d.order}
            lo, hi = d.frames(lam, {v: a for v, (a, b) in by_id.items() if a == b})
            assert by_id == {v: (lo[v], hi[v]) for v in d.order}


def test_rounds_recompute_only_the_graphs_that_moved(rounds, fixtures):
    # Rebuilding every type's graph every round took 7 types x 128 rounds =
    # 896 graphs a schedule; only the types of ops whose frame moved are
    # rebuilt: 15 graphs at lambda 63 and 128 at 126.  Bounds are twice that.
    body = unroll(parse_nest((fixtures / "mhr.dfg").read_text()), 2).loops[0].body
    for lam, bound in ((63, 30), (126, 256)):
        rounds.clear()
        fds_schedule(body, lam)
        assert len(rounds.graphs) <= bound, lam


def test_rounds_evaluate_only_the_ops_that_could_win(monkeypatch):
    # Evaluating every stale op took 4,713 force evaluations to schedule the
    # frozen mhr x2 body at lambda 84; the slack bound leaves 1,203.
    calls = []
    least_force = fds._least_force

    def counting(v, *args):
        calls.append(v)
        return least_force(v, *args)

    monkeypatch.setattr(fds, "_least_force", counting)
    frozen = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "data" / "mhr_x2.dfg"
    body = parse_nest(frozen.read_text()).loops[0].body
    assert len(body.ops) == 128
    fds_schedule(body, 84)
    assert len(calls) <= 2000


def test_schedule_sweep_makes_one_forward_pass_per_part(fixtures, monkeypatch):
    # Work guard: a graph computes its ASAP starts once, when it is built,
    # and `min_latency`, `Dfg.frames` and `validate_schedule` read them, so
    # building a nest and sweeping it makes one forward pass per part.
    passes = 0
    forward = dfg._forward

    def counted(*args):
        nonlocal passes
        passes += 1
        return forward(*args)

    monkeypatch.setattr(dfg, "_forward", counted)
    for name in ("mhr", "spo2", "emg", "chain", "adds4"):
        passes = 0
        nest = parse_nest((fixtures / f"{name}.dfg").read_text())
        parts = [part for part, _ in nest_parts(nest).values() if part is not None]
        probe = nest.loops[0].body if nest.loops else nest.pre
        assert schedule_sweep(nest, latency_sweep(probe))
        assert passes == len(parts), name


def test_infeasible_latency_raises():
    with pytest.raises(InfeasibleLatency):
        fds_schedule(chain3(), 2)


def test_deterministic_output():
    rng = random.Random(23)
    d = random_dfg(rng, 25)
    lam = min_latency(d) + 3
    assert fds_schedule(d, lam) == fds_schedule(d, lam)


# --- Golden schedules ---------------------------------------------------------
# sha256 over `format_schedule` output.  Any change to the scheduler's
# arithmetic, tie-breaking or frame handling that alters a single placement
# changes these digests.

FIXTURE_SWEEP_SHA256 = "2b2a30ce3ccf3f6173b495ee7ca1114e2b6cbb0e92b8a51b4c07a10e1c538b71"
RANDOM_WIDE_SHA256 = "c9937d82aa6571ee8b513666fdcfc7e27cf80a4c2b05357418594e9e03b79994"
DENSE_UNROLLED_SHA256 = "93c9e02f9f22a9285a83e50147b5b01d085205c59d3d106910db9e1f25aeb9a0"


def test_golden_schedules_of_fixture_sweeps(fixtures):
    digest = hashlib.sha256()
    for name in ("mhr", "spo2", "emg", "chain", "adds4"):
        nest = parse_nest((fixtures / f"{name}.dfg").read_text())
        for part in (nest.pre, *(loop.body for loop in nest.loops), nest.post):
            if part is None or not part.ops:
                continue
            for lam in latency_sweep(part):
                digest.update(format_schedule(part, fds_schedule(part, lam)).encode())
    assert digest.hexdigest() == FIXTURE_SWEEP_SHA256


def test_golden_schedules_at_wide_mobility():
    # Latency constraints drawn across the whole useful range, up to the fully
    # serialized makespan, where frames are widest.
    rng = random.Random(41)
    digest = hashlib.sha256()
    for _ in range(300):
        d = random_dfg(rng, 30)
        lam = rng.randint(min_latency(d), max_useful_latency(d))
        digest.update(format_schedule(d, fds_schedule(d, lam)).encode())
    assert digest.hexdigest() == RANDOM_WIDE_SHA256


def dense_dfg(rng: random.Random) -> Dfg:
    """A 60-130-op graph with what `random_dfg` never makes: ops that read
    one operand twice (`op 7 mul 4 4`), hubs read by many ops (every ninth
    id is drawn often), and long chains (most operands are among the last
    six ids)."""
    n_in, n_ops = rng.randint(2, 4), rng.randint(60, 130)

    def operand(oid: int) -> int:
        roll = rng.random()
        if roll < 0.2 and oid > 9:
            return rng.randrange(0, oid, 9)
        if roll < 0.75:
            return rng.randrange(max(0, oid - 6), oid)
        return rng.randrange(oid)

    ops = []
    for oid in range(n_in, n_in + n_ops):
        a, roll = operand(oid), rng.random()
        operands = (a, a) if roll < 0.12 else (a,) if roll < 0.35 else (a, operand(oid))
        ops.append(Op(oid, rng.choice(OP_TYPE_LIST), operands))
    return Dfg(tuple(ops), tuple(range(n_in)), (n_in + n_ops - 1,))


def test_golden_schedules_of_dense_and_unrolled_graphs(fixtures):
    # Seeded dense graphs at two constraints each, then the mhr body
    # unrolled 2x and 4x (128 and 256 ops) over its latency sweep.
    rng = random.Random(43)
    graphs = [dense_dfg(rng) for _ in range(5)]
    assert any(len(ps) == 2 and ps[0] == ps[1] for d in graphs for ps in d.preds.values())
    assert max(len(ss) for d in graphs for ss in d.succs.values()) >= 4
    assert {"div", "load", "store"} <= {op.type for d in graphs for op in d.ops}
    jobs = []
    for d in graphs:
        lo, hi = min_latency(d), max_useful_latency(d)
        jobs += [(d, rng.randint(lo, (lo + hi) // 2)), (d, rng.randint(lo, hi))]
    mhr = parse_nest((fixtures / "mhr.dfg").read_text())
    for factor in (2, 4):
        body = unroll(mhr, factor).loops[0].body
        jobs += [(body, lam) for lam in latency_sweep(body)]
    digest = hashlib.sha256()
    for d, lam in jobs:
        digest.update(format_schedule(d, fds_schedule(d, lam)).encode())
    assert digest.hexdigest() == DENSE_UNROLLED_SHA256


# --- Against the plain scheduler ---------------------------------------------
# `fds_oracle` rebuilds every graph and re-evaluates every op each round; the
# scheduler must fix the same (op, step) in every round.

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_schedules_equal_the_plain_scheduler(data):
    d = random_dfg(random.Random(data.draw(st.integers(0, 2**32))), 40)
    assume(len(d.ops) >= 3)
    lam = data.draw(st.integers(min_latency(d), max_useful_latency(d)))
    assert fds_schedule(d, lam).start == fds_oracle.fds_schedule(d, lam).start


def test_unrolled_mhr_schedules_equal_the_plain_scheduler(fixtures):
    body = unroll(parse_nest((fixtures / "mhr.dfg").read_text()), 2).loops[0].body
    assert (min_latency(body), len(body.ops)) == (63, 128)
    for lam in range(63, 127):
        assert fds_schedule(body, lam).start == fds_oracle.fds_schedule(body, lam).start, lam


def twin_dfg(rng: random.Random) -> Dfg:
    """Two copies of one random graph that share its input ports."""
    d = random_dfg(rng, 64)
    n_in, n_ops = len(d.inputs), len(d.ops)

    def copy_id(x: int) -> int:
        return x if x < n_in else x + n_ops

    twin = [Op(copy_id(op.id), op.type, tuple(map(copy_id, op.operands))) for op in d.ops]
    return Dfg(d.ops + tuple(twin), d.inputs, (*d.outputs, *map(copy_id, d.outputs)))


def test_twin_body_schedules_equal_the_plain_scheduler():
    rng = random.Random(47)
    for _ in range(6):
        d = twin_dfg(rng)
        lo, hi = min_latency(d), max_useful_latency(d)
        for lam in sorted({lo, (lo + hi) // 2, hi}):
            assert fds_schedule(d, lam).start == fds_oracle.fds_schedule(d, lam).start, lam


# --- Against the exact ILP optimum -------------------------------------------
# FDS is a heuristic.  On the first 100 graphs of the seed-7 generator it is
# above the optimum on ABOVE_OPTIMUM of them, by at most MAX_GAP of the
# optimal area; a scheduler change that moves either number updates it here.

ABOVE_OPTIMUM = 11
MAX_GAP = 0.4698


def test_never_beats_the_ilp_optimum():
    rng = random.Random(7)
    gaps = []
    for _ in range(100):
        d = random_dfg(rng, 30)
        lo = min_latency(d)
        lam = lo + rng.randint(0, max(1, lo // 2))
        gaps.append(area(d, fds_schedule(d, lam)) / area(d, min_area_schedule(d, lam)) - 1)
    assert min(gaps) >= -1e-9
    assert sum(gap > 1e-9 for gap in gaps) == ABOVE_OPTIMUM
    assert max(gaps) == pytest.approx(MAX_GAP, abs=5e-5)


def test_matches_optimum_on_symmetric_graphs():
    for d, lam in [(adds4(), 4), (adds4(), 2), (chain3(), 3)]:
        assert area(d, fds_schedule(d, lam)) == pytest.approx(area(d, min_area_schedule(d, lam)))
    # Four independent adds relaxed over four steps share a single adder.
    usage = resource_usage(adds4(), fds_schedule(adds4(), 4))
    assert usage.per_type == {"add": 1}


def test_matches_optimum_on_every_fixture_part(fixtures):
    for name in ("mhr", "spo2", "emg", "chain", "adds4"):
        nest = parse_nest((fixtures / f"{name}.dfg").read_text())
        for part in (nest.pre, *(loop.body for loop in nest.loops), nest.post):
            if part is None or not part.ops:
                continue
            for lam in latency_sweep(part):
                optimum = area(part, min_area_schedule(part, lam))
                assert area(part, fds_schedule(part, lam)) == pytest.approx(optimum), (name, lam)


def test_oracle_cost_monotone_in_latency():
    rng = random.Random(13)
    for _ in range(30):
        d = random_dfg(rng, 7)
        lo = min_latency(d)
        costs = [area(d, min_area_schedule(d, lam)) for lam in range(lo, lo + 4)]
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))


# --- Whole-nest scheduling ----------------------------------------------------

def test_mhr_nest_execution_latency(fixtures):
    nest = parse_nest((fixtures / "mhr.dfg").read_text())
    cycles, usage, schedules = schedule_nest(nest, 63)
    assert cycles == 24 + 64 * 63 == 4056
    assert set(schedules) == {"pre", (0,)}
    assert all(v >= 1 for v in usage.per_type.values())


def test_spo2_nest_minimum(fixtures):
    nest = parse_nest((fixtures / "spo2.dfg").read_text())
    lam = min_latency(nest.loops[0].body)
    cycles, _, schedules = schedule_nest(nest, lam)
    pre = schedules["pre"].makespan(nest.pre)
    post = schedules["post"].makespan(nest.post)
    assert cycles == pre + 25 * lam + post


def test_unrolled_nest_keeps_work_constant(fixtures):
    nest = parse_nest((fixtures / "spo2.dfg").read_text())
    un = unroll(nest, 5)
    lam = min_latency(un.loops[0].body)
    cycles, _, _ = schedule_nest(un, lam)
    assert cycles == schedule_nest(un, lam)[0]  # deterministic
    # Five iterations per unrolled trip, five trips.
    assert un.loops[0].trip == 5


def test_schedule_nest_handles_straight_line_graphs():
    nest = parse_nest("op 0 add\nop 1 add 0\nout 1\n")
    cycles, usage, schedules = schedule_nest(nest, 1)
    assert cycles == 2
    assert usage.per_type == {"add": 1}
    assert set(schedules) == {"pre"}


# --- Reporting ----------------------------------------------------------------

def test_format_schedule_shape():
    d = chain3()
    s = fds_schedule(d, 3)
    text = format_schedule(d, s)
    lines = text.splitlines()
    assert lines[0] == "latency 3"
    assert lines[1:4] == ["op 0 @ 0", "op 1 @ 1", "op 2 @ 2"]
    assert "resources {" in lines
    assert "  add 1" in lines


def test_explore_latencies_spacing():
    d = adds4()
    lams = latency_sweep(d, points=4)
    assert lams == [1, 2, 3, 4]
    schedules = [fds_schedule(d, lam) for lam in lams]
    costs = [area(d, sched) for sched in schedules]
    assert costs[0] >= costs[-1]
    for sched in schedules:
        validate_schedule(d, sched)
