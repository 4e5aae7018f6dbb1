"""The virtual-time ``Node`` against the per-task reference it replaced.

``reference_cpu.Node`` subtracts elapsed work from every task on each
demand change; ``repro.cluster.Node`` keeps one service counter and finish
tags.  Both are driven through the same seeded random demand schedule
(tasks, bursts of equal tasks, pollers joining and leaving, ``set_speed``,
``fail``; 1-8 cores) and must complete the same tasks in the same order at
times within 1e-12 relative, with the same busy core-seconds and peak demand.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.cluster import Node, PollerToken
from repro.simulate import Simulator

from .reference_cpu import Node as ReferenceNode

SEEDS = range(240)
REL = 1e-12


def _demand_schedule(seed: int):
    rng = random.Random(seed)
    cores = rng.randint(1, 8)
    ops = []
    t = 0.0
    for _ in range(rng.randint(20, 90)):
        t += rng.expovariate(3.0)
        r = rng.random()
        if r < 0.50:
            ops.append((t, "task", rng.uniform(1e-4, 2.0)))
        elif r < 0.58:
            ops.append((t, "burst", (rng.randint(2, 5), rng.choice([0.25, 0.5, 1.0]))))
        elif r < 0.76:
            ops.append((t, "poll+", None))
        elif r < 0.92:
            ops.append((t, "poll-", None))
        elif r < 0.99:
            ops.append((t, "speed", rng.uniform(0.2, 2.0)))
        else:
            ops.append((t, "fail", None))
    return cores, ops


def _replay(node_cls, cores, ops):
    sim = Simulator()
    node = node_cls(sim, 0, cores)
    completions: list[tuple[int, float]] = []
    pollers: list[PollerToken] = []
    next_task = iter(range(10**6))

    def finished(task: int) -> None:
        completions.append((task, sim.now))

    def apply(kind, arg) -> None:
        if kind == "task":
            node.submit(arg, partial(finished, next(next_task)))
        elif kind == "burst":
            count, work = arg
            for _ in range(count):
                node.submit(work, partial(finished, next(next_task)))
        elif kind == "poll+":
            tok = PollerToken()
            node.add_poller(tok)
            pollers.append(tok)
        elif kind == "poll-":
            if pollers:
                node.remove_poller(pollers.pop(0))
        elif kind == "speed":
            node.set_speed(arg)
        else:
            node.fail()

    for t, kind, arg in ops:
        sim.schedule_at(t, partial(apply, kind, arg))
    sim.run()
    return completions, node.busy_coreseconds, node.peak_demand


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b))


@pytest.mark.parametrize("seed", SEEDS)
def test_virtual_time_node_matches_reference(seed):
    cores, ops = _demand_schedule(seed)
    want, want_busy, want_peak = _replay(ReferenceNode, cores, ops)
    got, got_busy, got_peak = _replay(Node, cores, ops)
    assert [task for task, _ in got] == [task for task, _ in want]
    for (task, t_got), (_, t_want) in zip(got, want):
        assert _close(t_got, t_want), (task, t_got, t_want)
    assert _close(got_busy, want_busy)
    assert got_peak == want_peak


def test_schedules_exercise_every_operation():
    kinds = {kind for seed in SEEDS for _, kind, _ in _demand_schedule(seed)[1]}
    assert kinds == {"task", "burst", "poll+", "poll-", "speed", "fail"}
    assert {_demand_schedule(seed)[0] for seed in SEEDS} == set(range(1, 9))


def test_equal_tasks_finish_in_submission_order():
    sim = Simulator()
    node = Node(sim, 0, 2)
    order = []
    for k in range(5):
        node.submit(1.0, partial(order.append, k))
    sim.run()
    assert order == [0, 1, 2, 3, 4]
    assert sim.now == pytest.approx(2.5)


def test_poller_on_unsaturated_node_pushes_no_heap_entry():
    sim = Simulator()
    node = Node(sim, 0, 4)
    node.submit(2.0, lambda: None)
    node.submit(3.0, lambda: None)
    tok = PollerToken()
    marks = []

    def join() -> None:
        marks.append((len(sim._heap), node._timer_seq))
        node.add_poller(tok)  # demand 3 of 4 cores
        marks.append((len(sim._heap), node._timer_seq))

    def leave() -> None:
        marks.append((len(sim._heap), node._timer_seq))
        node.remove_poller(tok)
        marks.append((len(sim._heap), node._timer_seq))

    sim.schedule_at(0.5, join)
    sim.schedule_at(1.0, leave)
    sim.run()
    assert marks[0] == marks[1] and marks[2] == marks[3]
    assert sim.now == pytest.approx(3.0)


def test_poller_on_saturated_node_retimes_the_completion():
    sim = Simulator()
    node = Node(sim, 0, 1)
    node.submit(1.0, lambda: None)
    tok = PollerToken()
    before = node._timer_seq
    node.add_poller(tok)  # 2 demands on 1 core: the task now runs at 1/2
    assert node._timer_seq != before
    sim.schedule_at(1.0, lambda: node.remove_poller(tok))
    sim.run()
    assert sim.now == pytest.approx(1.5)
