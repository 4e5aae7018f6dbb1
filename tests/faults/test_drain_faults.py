"""Faults that land while a source is blocked in the drain, and the two
collective-recovery defects found while sizing it.

A source whose iterations ran out blocks until its part of the overlapped
reconfiguration is done (docs/modeling.md).  A failure observed by that
blocked wait must reach the stop agreement as the same ``-1`` vote a
checkpoint's test would cast: the cell ends in recovery, shrink fallback,
checkpoint/restart or a typed ``CommFailedError`` — never in a bare
``AttributeError``/``TypeError``, never in a deadlock.
"""

import dataclasses

import pytest

from repro.harness import RunSpec, run_one, run_sweep
from repro.simulate import SimulationError
from repro.smpi.errors import CommFailedError
from repro.synthetic.presets import SCALES, cg_emulation_config

#: the budget ends two iterations after the request: inside Stage 2/3 for
#: every asynchronous tiny cell.
DRAINING = dataclasses.replace(
    cg_emulation_config("tiny"), iterations=SCALES["tiny"].reconfigure_at + 2
)


def run_typed(spec, synth_config=None):
    """The cell's result, or the ``CommFailedError`` it died of."""
    try:
        return run_one(spec, synth_config=synth_config)
    except SimulationError as e:
        assert isinstance(e.__cause__, CommFailedError), repr(e.__cause__)
        return e.__cause__


# -------------------------------------------- failed receives of ialltoall(v)
@pytest.mark.parametrize("crash", [
    "crash@redist+0.0005:node=0",  # AttributeError out of mark_ranks_dead
    "crash@redist+0.001:node=3",   # ... wrapped in SimulationError (spawned1.g5)
])
def test_failed_collective_receive_reaches_the_waiter(crash):
    res = run_one(RunSpec(4, 8, "merge-col-a", "infiniband", "tiny", faults=crash))
    assert res.total_iterations >= SCALES["tiny"].iterations
    assert res.recovery_time > 0


# ----------------------------- A-config ladder speaks the targets' collectives
@pytest.mark.parametrize("config", ["merge-col-a", "baseline-col-a"])
def test_col_async_retry_after_a_failed_spawn(config):
    """Targets of an A config post Ialltoall/Ialltoallv; the synchronous
    retry used to answer with the blocking Bruck/pairwise pair (TypeError in
    ``_alltoall_bruck`` under Merge, deadlock under Baseline)."""
    res = run_one(RunSpec(4, 8, config, "infiniband", "tiny",
                          faults="spawnfail@0:attempt=0"))
    assert res.total_iterations == SCALES["tiny"].iterations
    assert res.retries == 1


# ------------------------------------------------- crash during the drain
@pytest.mark.parametrize("config", ["baseline-col-a", "merge-col-a",
                                    "baseline-rma-t", "merge-rma-t"])
@pytest.mark.parametrize("crash", ["crash@redist+0.0005:node=2",
                                   "crash@redist+0.003:node=3"])
def test_target_crash_while_sources_drain_recovers(config, crash):
    """The crashed node holds only spawned targets, so the ladder can always
    retry: every cell completes on the requested width."""
    res = run_one(RunSpec(4, 8, config, "ethernet", "tiny", faults=crash),
                  synth_config=DRAINING)
    assert res.total_iterations >= DRAINING.iterations
    assert res.retries >= 1 and res.recovery_time > 0


@pytest.mark.parametrize("config", ["merge-col-a", "baseline-rma-t"])
@pytest.mark.parametrize("pair", [(4, 8), (8, 4)], ids="{0[0]}to{0[1]}".format)
def test_source_crash_while_sources_drain_ends_typed(config, pair):
    for node in (0, 1):
        out = run_typed(
            RunSpec(*pair, config, "infiniband", "tiny",
                    faults=f"crash@redist+0.001:node={node}"),
            synth_config=DRAINING,
        )
        if not isinstance(out, CommFailedError):
            assert out.total_iterations >= DRAINING.iterations


def test_faulted_draining_rows_repeat_exactly():
    def sweep():
        return run_sweep(
            [(4, 8)], ["baseline-col-a", "merge-col-a", "baseline-rma-t", "merge-rma-t"],
            ["ethernet", "infiniband"], scale="tiny", repetitions=1,
            synth_config=DRAINING, faults="crash@redist+0.003:node=2", cache=None,
        ).to_csv()

    first = sweep()
    assert first == sweep()
    assert first.count("crash@redist") == 8
