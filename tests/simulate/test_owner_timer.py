"""Owner-held timers (``Simulator.set_timer``): one live heap entry per owner.

Re-arming makes the owner's earlier entry stale and ``_timer_seq = -1``
cancels it; a stale entry must never fire, must not advance the clock, and
must not count as pending work for ``run(until=...)``.
"""

import pytest

from repro.simulate import (
    DeadlockError,
    SimTimeLimitExceeded,
    Simulator,
    Timeout,
    WaitEvent,
)


def _yields(*commands):
    for cmd in commands:
        yield cmd


class _Owner:
    def __init__(self, sim):
        self.sim = sim
        self._timer_seq = -1
        self.fired = []

    def _on_timer(self):
        self._timer_seq = -1
        self.fired.append(self.sim.now)


def test_owner_timer_fires_once_at_its_time():
    sim = Simulator()
    owner = _Owner(sim)
    sim.set_timer(owner, 2.0)
    assert sim.run() == 2.0
    assert owner.fired == [2.0]


def test_rearmed_timer_fires_only_at_the_new_time():
    sim = Simulator()
    owner = _Owner(sim)
    sim.set_timer(owner, 1.0)
    sim.set_timer(owner, 3.0)  # the 1.0 entry is now stale
    sim.schedule(0.5, lambda: sim.set_timer(owner, 2.0))  # and the 3.0 one
    assert sim.run() == 2.5
    assert owner.fired == [2.5]


def test_cancelled_timer_never_fires_nor_moves_the_clock():
    sim = Simulator()
    owner = _Owner(sim)
    sim.set_timer(owner, 4.0)
    owner._timer_seq = -1
    sim.spawn(_yields(Timeout(1.0)), name="short")
    assert sim.run() == 1.0
    assert owner.fired == []


def test_stale_owner_entries_are_not_pending_work():
    sim = Simulator()
    owner = _Owner(sim)
    sim.set_timer(owner, 10.0)
    sim.set_timer(owner, 20.0)
    owner._timer_seq = -1
    heap = list(sim._heap)
    assert len(heap) == 2 and all(Simulator._entry_stale(e) for e in heap)
    sim.spawn(_yields(Timeout(1.0)), name="quick")
    assert sim.run(until=5.0, strict_until=True) == 1.0
    assert owner.fired == [] and sim._heap == []


def test_until_with_only_stale_owner_entries_still_detects_deadlock():
    sim = Simulator()
    owner = _Owner(sim)
    sim.spawn(_yields(WaitEvent(sim.event("never"))), name="waiter")
    sim.set_timer(owner, 10.0)
    owner._timer_seq = -1
    with pytest.raises(DeadlockError) as exc_info:
        sim.run(until=5.0)
    assert any("waiter" in entry for entry in exc_info.value.blocked)


def test_live_owner_entry_past_until_is_pending_work():
    sim = Simulator()
    owner = _Owner(sim)
    sim.set_timer(owner, 10.0)
    with pytest.raises(SimTimeLimitExceeded):
        sim.run(until=5.0, strict_until=True)
    assert sim.run() == 10.0 and owner.fired == [10.0]
