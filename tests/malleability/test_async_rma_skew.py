"""Known defect: Baseline + RMA + async deadlocks under checkpoint skew.

``MalleabilityManager._advance_async`` starts the constant-data session
as soon as *this* rank sees ``_spawn_handle.completed``, and
``RmaRedistribution.start()`` opens with the blocking collective
``win_create`` (the P2P/COL ``start()`` only post non-blocking ops).  When
spawn completion falls between two sources' checkpoints, the source that
saw it (rank 2 here) and the 8 targets block in ``win_create``
(``event:win:2:0``) while ranks 0, 1, 3 block in ``_poll_reconfig``'s
agreement allreduce waiting for rank 2 — neither collective can complete.

The stock tiny config never hits the window; scaling its three compute
stages by (1.0087, 1.0683, 1.0500) does, on Ethernet 4->8 (the case
``benchmarks/e2e/workloads.py::Grid18`` documents).  Recorded, not fixed:
a fix moves every async-RMA timing and with it the pinned sweep digests.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness import run_sweep
from repro.simulate import DeadlockError
from repro.synthetic.presets import cg_emulation_config

WORK_FACTORS = (1.0087, 1.0683, 1.0500)


def skewed_config():
    base = cg_emulation_config("tiny")
    factors = iter(WORK_FACTORS)
    return dataclasses.replace(base, stages=tuple(
        dataclasses.replace(s, work=s.work * next(factors))
        if s.kind == "compute" else s
        for s in base.stages
    ))


def sweep(keys, fabric):
    return run_sweep([(4, 8)], keys, [fabric], scale="tiny", repetitions=1,
                     synth_config=skewed_config(), cache=None)


@pytest.mark.xfail(strict=True, raises=DeadlockError,
                   reason="async win_create races the sources' agreement "
                          "allreduce (see module docstring)")
def test_baseline_rma_async_survives_checkpoint_skew():
    assert len(sweep(["baseline-rma-a"], "ethernet")) == 1


def test_neighbouring_configs_survive_the_same_skew():
    # The same skewed config completes under Merge, under the thread
    # strategy, with P2P (non-blocking ``start()``) and on Infiniband: the
    # defect needs Baseline + RMA + async *and* the unlucky timing.
    keys = ["merge-rma-a", "baseline-rma-t", "baseline-p2p-a"]
    assert len(sweep(keys, "ethernet")) == len(keys)
    assert len(sweep(["baseline-rma-a"], "infiniband")) == 1
