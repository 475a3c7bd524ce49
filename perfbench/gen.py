"""Seeded input generators for the pipeline benchmark.

Every generator takes a `random.Random` built from the run's seed, so the same
seed gives byte-identical inputs.  The seed picks wiring and values; sizes,
depths and operation-type mixes are fixed, so the amount of work and the
schedule area hardly move between seeds and the run-to-run spread stays small.
"""

from __future__ import annotations

import random
from fractions import Fraction

# One-cycle operation types; loads and stores (two cycles) are placed by hand.
ALU_TYPES = ("add", "sub", "mul", "cmp", "logic", "shift", "select")

TWIN_INPUTS = 4  # input ports shared by the two copies of the twin body
ALTERNATIVE_OPS = 14  # ops of each alternatives-group computation
LATER_STARTS = 4  # StartMeasure events after the first, all dropped

# Per-layer type mixes of the 64-op graph in `sched_unrolled`: loads first,
# stores last, one-cycle ALU ops between.  No multipliers: their area weight
# (4x an adder) would make the schedule area swing with the seed.
BODY_LAYERS = (
    [("load", "load", "add", "add", "sub", "logic", "cmp", "shift")]
    + [("add", "add", "sub", "sub", "shift", "cmp", "logic", "select" if k % 2 else "shift")
       for k in range(6)]
    + [("store", "store", "add", "sub", "select", "cmp", "logic", "shift")]
)


def _layered(rng: random.Random, layers, n_inputs: int) -> list[tuple[int, str, list[int]]]:
    """(id, type, operands) of ops numbered after the input ports, layer by
    layer.  Each op reads one or two ops (or ports) of the layer before it, so
    the depth is the number of layers whatever the seed; the seed shuffles
    each layer and picks the wiring."""
    ops = []
    prev = list(range(n_inputs))
    for mix in layers:
        mix = list(mix)
        rng.shuffle(mix)
        ids = []
        for op_type in mix:
            chosen = [rng.choice(prev)]
            extra = rng.choice(prev)
            if rng.random() < 0.5 and extra not in chosen:
                chosen.append(extra)
            ids.append(n_inputs + len(ops))
            ops.append((ids[-1], op_type, chosen))
        prev = ids
    return ops


def _block(header: str, n_inputs: int, ops, outputs) -> list[str]:
    lines = [f"in {i}" for i in range(n_inputs)]
    lines += [f"op {oid} {op_type} " + " ".join(map(str, operands)) for oid, op_type, operands in ops]
    lines += [f"out {o}" for o in outputs]
    return [header + " {"] + ["  " + ln for ln in lines] + ["}"]


def _chunks(types: list[str], width: int) -> list[list[str]]:
    return [types[k:k + width] for k in range(0, len(types), width)]


def small_dfg_size(index: int) -> int:
    """Op count of the index-th small graph: 3..30, the same for every seed."""
    return 3 + (index * 11) % 28


def small_dfg_text(rng: random.Random, index: int) -> str:
    """One small `.dfg` file: a loop body three ops wide, that loads first and
    stores last, led from 6 ops up at odd indices by a three-op pre chain.  The
    latency sweep of `psmsynth schedule` applies to the first loop body;
    straight-line graphs are covered by the fixtures."""
    n_ops = small_dfg_size(index)
    types = ["load"] + [ALU_TYPES[k % len(ALU_TYPES)] for k in range(n_ops - 2)] + ["store"]
    out = []
    if index % 2 == 1 and n_ops >= 6:
        pre = _layered(rng, [[t] for t in types[:3]], 1)
        out += _block("pre", 1, pre, [pre[-1][0]])
        types = types[3:]
    body = _layered(rng, _chunks(types, 3), 2)
    out += _block(f"loop {rng.choice((8, 16, 32))}", 2, body, [body[-1][0]])
    return "\n".join(out) + "\n"


def twin_body_text(rng: random.Random) -> str:
    """Loop body made of two independent copies of one random layered 64-op
    graph that share the input ports."""
    ops = _layered(rng, BODY_LAYERS, TWIN_INPUTS)
    n = len(ops)

    def copy_id(x: int) -> int:
        return x if x < TWIN_INPUTS else x + n

    twin = ops + [(copy_id(oid), t, [copy_id(x) for x in operands]) for oid, t, operands in ops]
    outputs = [TWIN_INPUTS + n - 1, TWIN_INPUTS + 2 * n - 1]
    return "\n".join(_block("loop 64", TWIN_INPUTS, twin, outputs)) + "\n"


def alternative_body_text(rng: random.Random) -> str:
    """`.dfg` text of one computation, a loop body two one-cycle ops wide,
    whose latency sweep makes the rows of one alternatives group."""
    types = [ALU_TYPES[k % len(ALU_TYPES)] for k in range(ALTERNATIVE_OPS)]
    body = _layered(rng, _chunks(types, 2), 2)
    return "\n".join(_block(f"loop {rng.randrange(200, 400)}", 2, body, [body[-1][0]])) + "\n"


def start_measure_times(rng: random.Random, horizon_s: int) -> list[Fraction]:
    """StartMeasure times: the first within 5 ms, so the monitored activity is
    the same length for every seed; later ones arrive while the heart-rate
    component is running and are dropped."""
    first = Fraction(rng.randrange(100, 5000), 10**6)
    later = sorted(Fraction(rng.randrange(10**6, (horizon_s - 1) * 10**6), 10**6) for _ in range(LATER_STARTS))
    return [first] + later
