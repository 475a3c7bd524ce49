"""Shared test helpers: fixture paths and random dataflow-graph generation."""

from __future__ import annotations

import pathlib
import random

import pytest

import psmsynth
from psmsynth.dfg import OP_TYPES, Dfg, Op

FIXTURES = pathlib.Path(psmsynth.__file__).resolve().parent / "fixtures"

OP_TYPE_LIST = sorted(OP_TYPES)


@pytest.fixture(scope="session")
def fixtures() -> pathlib.Path:
    return FIXTURES


def own_mccs(table: dict, comp) -> dict:
    """The entries of an MCC latency or implementation table for the MCCs
    that `comp` declares, as a run of `comp` alone takes them."""
    return {m.name: table[m.name] for m in comp.mccs}


def random_dfg(rng: random.Random, max_ops: int = 30) -> Dfg:
    """Random connected-ish DAG over the dense id space: a few input ports,
    then ops whose operands point at strictly earlier ids."""
    n_in = rng.randint(1, 3)
    n_ops = rng.randint(1, max_ops)
    ops = []
    for k in range(n_ops):
        oid = n_in + k
        pool = list(range(oid))
        n_operands = rng.randint(1, min(2, len(pool)))
        operands = tuple(rng.sample(pool, n_operands))
        ops.append(Op(oid, rng.choice(OP_TYPE_LIST), operands))
    return Dfg(tuple(ops), tuple(range(n_in)), (n_in + n_ops - 1,))
