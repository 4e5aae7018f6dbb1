"""The partition fold of ``repro.analysis.models`` against the plan walk.

Every redistribution price is one walk over the overlaps of the two
partitions.  On seeded random resizes each price must be ``==`` to the
plan-walk oracle's (``reference_models``): the fold changed how chunks are
visited, never which float operations run or in what order.  The
structural tests count work instead of timing it: pricing a resize builds
no ``Transfer``, and the COL price does linear work in NS + NT.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.analysis import models
from repro.analysis.models import (
    chunk_times,
    predict_pairwise_alltoallv,
    predict_p2p_redistribution,
    predict_reconfiguration,
    predict_rma_redistribution,
)
from repro.cluster import ETHERNET_10G, INFINIBAND_EDR
from repro.malleability.config import ALL_CONFIGS, SpawnMethod
from repro.redistribution import block_offsets
from repro.redistribution.plan import RedistributionPlan, Transfer
from repro.rmsim.policies import reconfiguration_cost
from repro.smpi import SpawnModel

from . import reference_models as ref

FOLD = {
    "p2p": predict_p2p_redistribution,
    "col": predict_pairwise_alltoallv,
    "rma": predict_rma_redistribution,
}
FABRICS = {"ethernet": ETHERNET_10G, "infiniband": INFINIBAND_EDR}


def _fresh(n_rows: int, ns: int, nt: int) -> RedistributionPlan:
    """An uncached block plan, so the fold and the oracle each see their
    own object (the oracle builds the transfer index, the fold must not)."""
    return RedistributionPlan(block_offsets(n_rows, ns), block_offsets(n_rows, nt))


def _draws(seed: int, n: int):
    """``(n_rows, NS, NT, bytes_per_row, merge)``: widths over 1..600 with
    NS == NT and row counts below NS drawn on purpose."""
    rng = random.Random(seed)
    for k in range(n):
        ns = rng.randint(1, 600)
        nt = ns if k % 5 == 0 else rng.randint(1, 600)
        if k % 4 == 1:
            n_rows = rng.randint(0, max(ns - 1, 0))
        else:
            n_rows = rng.randint(1, 2_000_000)
        yield n_rows, ns, nt, rng.uniform(1.0, 4096.0), k % 2 == 0


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@pytest.mark.parametrize("method", ["p2p", "col", "rma"])
def test_fold_prices_equal_plan_walk(method, fabric):
    spec = FABRICS[fabric]
    seed = ["p2p", "col", "rma"].index(method) * 2 + sorted(FABRICS).index(fabric)
    for n_rows, ns, nt, bpr, merge in _draws(seed, 30):
        got = FOLD[method](_fresh(n_rows, ns, nt), bpr, spec, merge)
        want = ref.PREDICT[method](_fresh(n_rows, ns, nt), bpr, spec, merge)
        assert got == want, (n_rows, ns, nt, bpr, merge)


def test_chunk_times_equal_plan_walk_in_order():
    for n_rows, ns, nt, bpr, merge in _draws(7, 30):
        got = chunk_times(_fresh(n_rows, ns, nt), bpr, ETHERNET_10G, merge)
        want = ref.chunk_times(_fresh(n_rows, ns, nt), bpr, ETHERNET_10G, merge)
        assert list(got.items()) == list(want.items())


def test_fold_prices_movement_minimizing_plans():
    """The fold reads the plan's own partitions, so a non-block target
    layout is priced from its offsets too."""
    rng = random.Random(11)
    for _ in range(20):
        ns, nt = rng.randint(1, 64), rng.randint(1, 64)
        n_rows = rng.randint(0, 50_000)
        plan = RedistributionPlan.movement_minimizing(n_rows, ns, nt)
        for method, merge in (("p2p", True), ("col", True), ("col", False)):
            assert FOLD[method](plan, 64.0, INFINIBAND_EDR, merge) == (
                ref.PREDICT[method](plan, 64.0, INFINIBAND_EDR, merge)
            )


def test_reconfiguration_cost_equals_plan_walk():
    """The rmsim price, every configuration, both fabrics."""
    spawn = SpawnModel(0.02, 0.002, 0.005)
    rng = random.Random(3)
    for config in ALL_CONFIGS:
        merge = config.spawn is SpawnMethod.MERGE
        method = config.redist.value
        for fabric in FABRICS.values():
            ns, nt = rng.randint(1, 600), rng.randint(1, 600)
            n_rows, bpr = rng.randint(1, 1_000_000), rng.uniform(8.0, 512.0)
            got = reconfiguration_cost.__wrapped__(
                n_rows, bpr, ns, nt, config, fabric, spawn, 16
            )
            plan = _fresh(n_rows, ns, nt)
            t_spawn = predict_reconfiguration(
                plan, bpr, fabric, spawn, 16, method=method, merge=merge
            ).spawn
            want = t_spawn + ref.PREDICT[method](plan, bpr, fabric, merge)
            assert got == want, (config.name, fabric.name, ns, nt)


# ------------------------------------------------------------- structure
@pytest.fixture
def transfers_made(monkeypatch):
    """Records every ``Transfer`` constructed while the test runs."""
    made = []
    init = Transfer.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Transfer, "__init__", counting)
    return made


def test_reconfiguration_cost_builds_no_transfer(transfers_made):
    spawn = SpawnModel(0.02, 0.002, 0.005)
    n_rows = 4_000_037  # a key no other test caches
    for config in ALL_CONFIGS:
        for fabric in FABRICS.values():
            reconfiguration_cost.__wrapped__(
                n_rows, 64.0, 4000, 8000, config, fabric, spawn, 16
            )
    assert transfers_made == []
    plan = RedistributionPlan.block(n_rows, 4000, 8000)
    assert "_index" not in vars(plan)
    # The counter is live: the first per-rank query builds the index.
    plan.sends_for(0)
    assert len(transfers_made) == len(list(models.range_overlaps(
        plan.src_offsets, plan.dst_offsets)))


def _models_lines(fn) -> int:
    """Line events executed inside ``analysis/models.py`` while ``fn`` runs."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == models.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return lines


@pytest.mark.parametrize("merge", [True, False])
def test_col_price_is_linear_in_widths(monkeypatch, merge):
    """COL visits each of its O(NS + NT) chunks once: one overlap walk per
    price, and doubling both widths doubles the work in the models."""
    walked = []
    overlaps = models.range_overlaps

    def counting(a, b):
        walked.append(0)
        for chunk in overlaps(a, b):
            walked[-1] += 1
            yield chunk

    monkeypatch.setattr(models, "range_overlaps", counting)

    def price(ns, nt):
        plan = _fresh(8_000_000, ns, nt)
        return lambda: predict_pairwise_alltoallv(plan, 64.0, ETHERNET_10G, merge)

    small = _models_lines(price(2000, 4000))
    assert walked == [4000]  # each source overlaps two targets
    big = _models_lines(price(4000, 8000))
    assert walked == [4000, 8000]
    assert big <= 2.2 * small
