"""Cells of the crash scan (``benchmarks/fault_scan.py``) that once ended
in neither completion nor a typed ``CommFailedError``.

docs/faults.md promises a crash ends a cell in recovery or in a typed
error, never in a hang.  Each test here pins one cell that broke it.
"""

import pytest

from repro.harness import RunSpec, run_one
from repro.smpi import CommFailedError
from repro.synthetic.presets import SCALES


def test_baseline_p2p_sync_survives_abandoned_target_sends():
    """``baseline-p2p-s`` 4->8, ``crash@redist+0:node=0``.

    The crash kills sources 0-1 and targets 0-1.  Targets 2-3 lose their
    senders, abort the inter-communicator and retire; sources 2-3 post their
    rendezvous sends to targets 4-7 on it afterwards.  Those announcements
    are dropped as stragglers of an abandoned session, and the sends used
    to wait forever (``DeadlockError``: rank2.g2 on all-of[4], rank3.g3 on
    all-of[6]).  They now fail, and the ladder restarts the job from its
    checkpoint."""
    res = run_one(RunSpec(4, 8, "baseline-p2p-s", "ethernet", "tiny",
                          faults="crash@redist+0:node=0"))
    assert res.total_iterations >= SCALES["tiny"].iterations
    assert res.recovery_time > 0


def test_merge_p2p_sync_crash_after_shrink_commit():
    """``merge-p2p-s`` 8->2, ``crash@redist+0.05:node=0``.

    The shrink commits at ~0.0899 s: sources 2-7 retire and the new group
    is ranks 0-1, both on node 0.  The crash lands at ~0.0903 s and kills
    both.  No rank of the job is left to run the recovery ladder or the
    checkpoint/restart fallback, so the simulation drains with no process
    blocked and the run stops without finishing.  ``run_one`` reports the
    dead job as a typed failure naming its dead ranks, instead of failing
    later on the unfinished run's statistics."""
    with pytest.raises(CommFailedError, match="every rank of the job died") as err:
        run_one(RunSpec(8, 2, "merge-p2p-s", "ethernet", "tiny",
                        faults="crash@redist+0.05:node=0"))
    assert err.value.dead_gids == [0, 1]
