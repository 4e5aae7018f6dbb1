"""Epoch-aware sanitizer rules for passive-target RMA.

The simulator is deliberately forgiving (puts snapshot their payload at
issue time), so real-MPI hazards around lock epochs only surface through
the sanitizer: SAN001 for an origin put buffer mutated before its flush,
SAN009 for an epoch still open at finalize.
"""

from __future__ import annotations

import numpy as np

from tests.smpi.rma_fakes import ArrayExposure, lock

from .conftest import run_sanitized

#: past the 64 KiB Ethernet eager threshold (rendezvous regime).
BIG = 20_000


def rules_of(san) -> list[str]:
    return sorted({f.rule for f in san.findings})


def test_san001_epoch_put_buffer_mutated_before_flush():
    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(BIG)))
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            buf = np.ones(BIG)
            yield from mpi.win_put(win, 1, (0, buf))
            buf[0] = -1.0  # BUG: origin buffer is pledged until the flush
            yield from mpi.win_unlock(win, 1)
        else:
            yield from mpi.compute(0.001)
        yield from mpi.barrier()

    san, err = run_sanitized(main, 2)
    assert err is None
    assert rules_of(san) == ["SAN001"]
    (f,) = san.findings
    assert f.rank == 0
    assert "lock epoch" in f.message


def test_epoch_put_clean_when_mutated_after_unlock():
    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(BIG)))
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            buf = np.ones(BIG)
            yield from mpi.win_put(win, 1, (0, buf))
            yield from mpi.win_unlock(win, 1)
            buf[0] = -1.0  # fine: the epoch closed, the buffer is mine again
        else:
            yield from mpi.compute(0.001)
        yield from mpi.barrier()

    san, err = run_sanitized(main, 2)
    assert err is None and san.findings == []


def test_epoch_put_clean_when_mutated_after_explicit_flush():
    """win_flush releases the pledge mid-epoch; mutation after it is legal."""

    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(BIG)))
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            buf = np.ones(BIG)
            yield from mpi.win_put(win, 1, (0, buf))
            yield from mpi.win_flush(win, 1)
            buf[0] = -1.0
            yield from mpi.win_unlock(win, 1)
        else:
            yield from mpi.compute(0.001)
        yield from mpi.barrier()

    san, err = run_sanitized(main, 2)
    assert err is None and san.findings == []


def test_san009_epoch_leak_detected():
    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(4)))
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            # BUG: finalizes with the epoch still open (never unlocks).
            mpi.finalize()
            return
        yield from mpi.compute(0.001)

    san, err = run_sanitized(main, 2)
    assert err is None
    assert rules_of(san) == ["SAN009"]
    (f,) = san.findings
    assert f.rank == 0


def test_san009_clean_when_unlocked():
    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(4)))
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            yield from mpi.win_put(win, 1, (0, np.array([2.0])))
            yield from mpi.win_unlock(win, 1)
        else:
            yield from mpi.compute(0.001)
        yield from mpi.barrier()

    san, err = run_sanitized(main, 2)
    assert err is None and san.findings == []
