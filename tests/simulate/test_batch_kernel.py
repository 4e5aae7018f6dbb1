"""Kernel event-order tests: the ``(time, seq)`` contract of ``Simulator.run``.

Timeout wakeups, spawn/resume wakeups and scheduled callbacks share one
heap and fire in ``(time, registration sequence)`` order.  Each scenario
here pins the literal wakeup trace, end time and process outcomes of that
order under cancels, resumes, kills, zero-delay reschedules, ``until``
cutoffs and strict limits — the traces the sweep CSVs' byte-identity rests
on.  (The file keeps its historical name so the test ids stay stable.)
"""

from __future__ import annotations

import random

import pytest

from repro.simulate import (
    DeadlockError,
    Passivate,
    SimTimeLimitExceeded,
    SimulationError,
    Simulator,
    Timeout,
    WaitEvent,
)


def run_scenario(scenario, **run_kwargs):
    """Run ``scenario(sim, trace)`` on a fresh simulator; return
    ``(trace, end, now, [(name, state, result), ...])``."""
    sim = Simulator()
    trace: list = []
    procs = scenario(sim, trace) or []
    end = sim.run(**run_kwargs)
    return (
        trace, end, sim.now,
        [(p.name, p.state, p.result) for p in procs],
    )


# ------------------------------------------------------------ ordered wakeups
def test_same_deadline_wakes_in_spawn_order():
    def scenario(sim, trace):
        def proc(name):
            yield Timeout(1.0)
            trace.append((sim.now, name))
        return [sim.spawn(proc(f"p{i}"), name=f"p{i}") for i in range(6)]

    trace, end, *_ = run_scenario(scenario)
    assert end == 1.0
    assert [name for _t, name in trace] == [f"p{i}" for i in range(6)]


def test_callbacks_and_timeouts_merge_by_seq_at_equal_time():
    # Scheduled callbacks and timeouts at the same instant fire in
    # registration-sequence order.  The callbacks draw their sequence
    # numbers at setup; the timeouts draw theirs when the processes first
    # run (inside ``run()``), so the callbacks come first.
    def scenario(sim, trace):
        def proc(name, delay):
            yield Timeout(delay)
            trace.append((sim.now, name))
        a = sim.spawn(proc("a", 2.0), name="a")
        sim.schedule(2.0, lambda: trace.append((sim.now, "cb1")))
        b = sim.spawn(proc("b", 2.0), name="b")
        sim.schedule(2.0, lambda: trace.append((sim.now, "cb2")))
        return [a, b]

    trace, *_ = run_scenario(scenario)
    assert [name for _t, name in trace] == ["cb1", "cb2", "a", "b"]


def test_zero_delay_timeout_reenters_current_instant():
    # Timeout(0) must still fire this instant, after every wakeup already
    # queued for it.
    def scenario(sim, trace):
        def spinner():
            for i in range(3):
                trace.append((sim.now, "spin", i))
                yield Timeout(0.0)
        def peer():
            yield Timeout(0.0)
            trace.append((sim.now, "peer", 0))
        return [sim.spawn(spinner(), name="s"), sim.spawn(peer(), name="p")]

    trace, end, *_ = run_scenario(scenario)
    assert end == 0.0
    # The spinner's first reschedule draws its sequence before the peer's
    # initial timeout fires, so it wakes again ahead of the peer.
    assert trace == [
        (0.0, "spin", 0), (0.0, "spin", 1), (0.0, "peer", 0),
        (0.0, "spin", 2),
    ]


# ----------------------------------------------------------- cancels & kills
def test_resume_cancels_pending_timeout():
    # A cross-process resume invalidates the queued wakeup; the stale entry
    # must be skipped without waking the process a second time.
    def scenario(sim, trace):
        def sleeper():
            got = yield Timeout(10.0, value="late")
            trace.append((sim.now, "woke", got))
        target = sim.spawn(sleeper(), name="t")

        def waker():
            yield Timeout(1.0)
            sim.resume(target, "early")
        return [target, sim.spawn(waker(), name="w")]

    trace, end, *_ = run_scenario(scenario)
    assert trace == [(1.0, "woke", "early")]
    assert end == 1.0  # the stale 10.0 entry never advances the clock


def test_kill_discards_pending_wakeup():
    def scenario(sim, trace):
        def sleeper():
            yield Timeout(5.0)
            trace.append((sim.now, "must-not-run"))
        victim = sim.spawn(sleeper(), name="victim")

        def killer():
            yield Timeout(1.0)
            sim.kill_now(victim)
            trace.append((sim.now, "killed"))
        return [victim, sim.spawn(killer(), name="killer")]

    trace, end, _now, states = run_scenario(scenario)
    assert trace == [(1.0, "killed")]
    assert end == 1.0
    assert states == [("victim", "killed", None), ("killer", "done", None)]


def test_all_stale_entries_do_not_advance_clock():
    # Every wakeup queued for a future deadline is cancelled before it
    # fires: ``now`` must not move to that deadline.
    def scenario(sim, trace):
        sleepers = []

        def sleeper():
            yield Timeout(7.0)
            trace.append((sim.now, "ghost"))
        for i in range(3):
            sleepers.append(sim.spawn(sleeper(), name=f"s{i}"))

        def reaper():
            yield Timeout(0.5)
            for p in sleepers:
                sim.resume(p, None)
        return sleepers + [sim.spawn(reaper(), name="r")]

    trace, end, now, _states = run_scenario(scenario)
    assert trace == [(0.5, "ghost")] * 3  # resumed early, at the reaper's time
    assert end == 0.5
    assert now == 0.5


# ------------------------------------------------------------- until limits
def test_lenient_until_stops_mid_sequence():
    def scenario(sim, trace):
        def proc(name, delay):
            yield Timeout(delay)
            trace.append((sim.now, name))
        return [sim.spawn(proc(f"p{d}", d), name=f"p{d}")
                for d in (1.0, 2.0, 3.0)]

    trace, end, now, _ = run_scenario(scenario, until=2.0)
    assert end == 2.0 and now == 2.0
    assert [name for _t, name in trace] == ["p1.0", "p2.0"]


def test_until_excludes_later_entries_of_same_run():
    # until falls between two deadlines: the earlier fires, the later stays
    # queued, and a follow-up run drains it.
    sim = Simulator()
    fired = []

    def proc(name, delay):
        yield Timeout(delay)
        fired.append((sim.now, name))
    sim.spawn(proc("early", 1.0), name="early")
    sim.spawn(proc("late", 4.0), name="late")
    assert sim.run(until=2.5) == 2.5
    assert fired == [(1.0, "early")]
    assert sim.run() == 4.0
    assert fired == [(1.0, "early"), (4.0, "late")]


def test_strict_until_raises():
    sim = Simulator()

    def sleeper():
        yield Timeout(10.0)
    sim.spawn(sleeper(), name="slow")
    with pytest.raises(SimTimeLimitExceeded) as exc_info:
        sim.run(until=1.0, strict_until=True)
    err = exc_info.value
    assert err.until == 1.0
    assert err.pending_events == 1
    assert err.blocked == ["slow (waiting on timeout)"]
    assert sim.now == 1.0


def test_strict_until_ignores_cancelled_entries():
    # The only queued work past the limit is a cancelled wakeup — not a
    # live event, so strict mode must *not* raise.
    sim = Simulator()

    def sleeper():
        got = yield Timeout(10.0)
        return got

    def waker(target):
        yield Timeout(0.5)
        sim.resume(target, "early")
    t = sim.spawn(sleeper(), name="t")
    sim.spawn(waker(t), name="w")
    assert sim.run(until=1.0, strict_until=True) == 0.5
    assert t.result == "early"


# ------------------------------------------------------------------ failures
def test_deadlock_report():
    sim = Simulator()

    def stuck():
        yield Passivate()

    def ticker():
        yield Timeout(1.0)
    sim.spawn(stuck(), name="stuck")
    sim.spawn(ticker(), name="ticker")
    with pytest.raises(DeadlockError) as exc_info:
        sim.run()
    assert str(exc_info.value) == (
        "simulation deadlock: 1 blocked process(es): "
        "stuck (waiting on passivate)"
    )
    assert sim.now == 1.0


def test_process_exception_report():
    sim = Simulator()

    def boomer():
        yield Timeout(1.0)
        raise RuntimeError("boom")

    def bystander():
        yield Timeout(2.0)
        return "ok"
    b = sim.spawn(boomer(), name="boom")
    by = sim.spawn(bystander(), name="by")
    with pytest.raises(SimulationError) as exc_info:
        sim.run()
    assert str(exc_info.value) == "process 'boom' failed"
    assert isinstance(exc_info.value.__cause__, RuntimeError)
    assert (sim.now, b.state, by.state) == (1.0, "failed", "alive")


# ---------------------------------------------------------------- event mix
def test_wait_event_and_timeout_mix():
    def scenario(sim, trace):
        ev = sim.event("gate")

        def waiter():
            got = yield WaitEvent(ev)
            trace.append((sim.now, "gate", got))
            yield Timeout(0.25)
            trace.append((sim.now, "after"))

        def trigger():
            yield Timeout(1.5)
            ev.trigger("open")
        return [sim.spawn(waiter(), name="w"),
                sim.spawn(trigger(), name="t")]

    trace, end, *_ = run_scenario(scenario)
    assert trace == [(1.5, "gate", "open"), (1.75, "after")]
    assert end == 1.75


# --------------------------------------------------------------------- fuzz
@pytest.mark.parametrize("seed", range(25))
def test_randomized_trace_identity(seed):
    """Randomized mixed workloads: N processes looping over random
    timeouts (including zero delays), cross-process resume-cancels and
    scheduled callbacks, bounded by a random ``until`` — the same seed
    yields the identical trace, end time and final states on every run,
    and the clock never moves backwards."""

    def build(sim, trace):
        rng = random.Random(seed)
        procs = []
        n = 6

        def worker(idx, plan):
            for step, (delay, cancel_peer) in enumerate(plan):
                got = yield Timeout(delay, value=(idx, step))
                trace.append((sim.now, idx, step, got))
                if cancel_peer is not None and cancel_peer < len(procs):
                    peer = procs[cancel_peer]
                    if peer.alive and peer.blocked_on == "timeout":
                        sim.resume(peer, ("cancelled-by", idx))
            return idx

        plans = []
        for idx in range(n):
            plan = []
            for _step in range(rng.randrange(1, 6)):
                delay = rng.choice([0.0, 0.001, 0.001, 0.002, 0.005, 0.01])
                cancel = rng.randrange(n) if rng.random() < 0.3 else None
                plan.append((delay, cancel))
            plans.append(plan)
        for idx in range(n):
            procs.append(sim.spawn(worker(idx, plans[idx]), name=f"w{idx}"))
        for _ in range(rng.randrange(0, 4)):
            at = rng.choice([0.0, 0.001, 0.004, 0.009])
            sim.schedule(at, lambda at=at: trace.append((sim.now, "cb", at)))
        return procs

    rng = random.Random(10_000 + seed)
    until = rng.choice([None, 0.004, 0.01, 1.0])
    kwargs = {} if until is None else {"until": until}
    first = run_scenario(build, **kwargs)
    assert run_scenario(build, **kwargs) == first
    trace, end, now, _states = first
    times = [entry[0] for entry in trace]
    assert times == sorted(times)
    assert end == now and (not times or times[-1] <= end)
