"""Failure injection: crashes and kills must fail loudly, not hang silently.

A simulator is only trustworthy if broken runs are *diagnosable*: since the
failure layer landed, a dead rank surfaces as :class:`CommFailedError` in the
peers blocked on it (ULFM-style) rather than a whole-run deadlock report, and
exceptions in rank code must propagate out of ``sim.run()``.
"""

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.simulate import ProcessKilled, SimulationError, Simulator, Timeout
from repro.smpi import CommFailedError, MpiWorld, run_spmd


def test_rank_exception_propagates_with_context():
    def main(mpi):
        yield from mpi.compute(0.01)
        if mpi.rank == 1:
            raise RuntimeError("rank 1 exploded")
        yield from mpi.barrier()

    with pytest.raises(SimulationError) as err:
        run_spmd(main, 3)
    assert isinstance(err.value.__cause__, RuntimeError)


def test_killed_rank_fails_blocked_peers():
    """A peer blocked on a killed rank gets CommFailedError, not a hang."""
    sim = Simulator()
    machine = Machine(sim, 2, 2, ETHERNET_10G)
    world = MpiWorld(machine)

    def main(mpi):
        if mpi.rank == 0:
            yield from mpi.recv(source=1, tag=7)  # will never arrive
            return "got it"
        yield from mpi.compute(10.0)
        yield from mpi.send("late", dest=0, tag=7)
        return None

    res = world.launch(main, slots=[0, 1])

    def assassin():
        yield Timeout(1.0)
        res.procs[1].kill("node failure")

    sim.spawn(assassin())
    with pytest.raises(SimulationError) as err:
        sim.run()
    # The receiver was woken with a CommFailedError naming the dead rank.
    assert isinstance(err.value.__cause__, CommFailedError)
    assert 1 in err.value.__cause__.dead_gids
    assert 1 in world.dead_gids


def test_peer_catching_commfailed_survives():
    """Rank code that catches CommFailedError recovers and finishes clean."""
    sim = Simulator()
    machine = Machine(sim, 2, 2, ETHERNET_10G)
    world = MpiWorld(machine)

    def main(mpi):
        if mpi.rank == 0:
            try:
                yield from mpi.recv(source=1, tag=7)
            except CommFailedError as e:
                return ("survived", tuple(e.dead_gids))
            return "unexpected"
        yield from mpi.compute(10.0)
        return None

    res = world.launch(main, slots=[0, 1])

    def assassin():
        yield Timeout(1.0)
        res.procs[1].kill("node failure")

    sim.spawn(assassin())
    sim.run()
    assert res.procs[0].result == ("survived", (1,))


def test_kill_during_redistribution_is_detected():
    """Killing a source mid-transfer fails the waiting peer with
    CommFailedError — no silent corruption, no hang."""
    from repro.redistribution import Dataset, FieldSpec, RedistributionPlan
    from repro.redistribution.api import RedistMethod, make_session

    n = 50_000
    specs = (FieldSpec("v", "dense", constant=True),)
    plan = RedistributionPlan.block(n, 2, 2)
    sim = Simulator()
    machine = Machine(sim, 4, 1, ETHERNET_10G)
    world = MpiWorld(machine)

    def main(mpi):
        r = mpi.rank
        lo, hi = plan.src_range(r)
        session = make_session(
            RedistMethod.P2P, mpi, mpi.comm_world, plan, names=["v"],
            src_rank=r, dst_rank=1 - r,  # full swap: everyone needs the other
            src_dataset=Dataset.create(
                n, specs, lo, hi, data={"v": np.zeros(hi - lo)}
            ),
            dst_dataset=Dataset.create(n, specs, *plan.dst_range(1 - r)),
        )
        yield from session.run_blocking()
        return "done"

    res = world.launch(main, slots=[0, 2])

    def assassin():
        yield Timeout(1e-4)  # mid-rendezvous
        res.procs[0].kill()

    sim.spawn(assassin())
    with pytest.raises(SimulationError) as err:
        sim.run()
    assert isinstance(err.value.__cause__, CommFailedError)
    assert res.procs[1].result != "done"


def test_killed_thread_reports_cleanup():
    """An aux thread killed mid-wait triggers its done event so the main
    flow can observe the failure rather than spin forever."""

    def main(mpi):
        def stuck_thread(tmpi):
            yield from tmpi.recv(source=0, tag=99)  # never sent

        handle = yield from mpi.spawn_thread(stuck_thread)
        yield from mpi.compute(0.01)
        handle.proc.kill("cancelled")
        yield from mpi.join_thread(handle)
        return handle.finished

    results, _ = run_spmd(main, 1, n_nodes=1, cores_per_node=2)
    assert results == [True]


def test_processkilled_cleanup_runs():
    """Rank code can catch ProcessKilled for cleanup (and must re-raise)."""
    cleaned = []

    sim = Simulator()
    machine = Machine(sim, 1, 2, ETHERNET_10G)
    world = MpiWorld(machine)

    def main(mpi):
        try:
            yield from mpi.compute(100.0)
        except ProcessKilled:
            cleaned.append(mpi.rank)
            raise

    res = world.launch(main, slots=[0])

    def assassin():
        yield Timeout(0.5)
        res.procs[0].kill()

    sim.spawn(assassin())
    sim.run()
    assert cleaned == [0]

def test_waitany_is_deterministic_across_settled_requests():
    """With several requests already complete, waitany returns the lowest
    index — the P2P redistribution state machine depends on this order."""

    def main(mpi):
        if mpi.rank == 0:
            reqs = []
            for t in (1, 2, 3):
                reqs.append((yield from mpi.irecv(source=1, tag=t)))
            yield from mpi.compute(1.0)  # let all three land
            order = []
            while reqs:
                idx, req = yield from mpi.waitany(reqs)
                order.append(req.data)
                reqs.pop(idx)
            return order
        for t in (3, 2, 1):  # sent in reverse tag order
            yield from mpi.send(f"m{t}", dest=0, tag=t)
        return None

    results, _ = run_spmd(main, 2, n_nodes=1, cores_per_node=2)
    assert results[0] == ["m1", "m2", "m3"]


def test_waitany_raises_when_peer_dies():
    """waitany on a request whose peer died raises CommFailedError instead
    of blocking forever (or returning a bogus index)."""
    sim = Simulator()
    machine = Machine(sim, 2, 2, ETHERNET_10G)
    world = MpiWorld(machine)

    def main(mpi):
        if mpi.rank == 0:
            req = yield from mpi.irecv(source=1, tag=5)
            try:
                yield from mpi.waitany([req])
            except CommFailedError as e:
                return ("failed-over", tuple(e.dead_gids))
            return "unexpected"
        yield from mpi.compute(10.0)
        return None

    res = world.launch(main, slots=[0, 1])

    def assassin():
        yield Timeout(1.0)
        res.procs[1].kill("node failure")

    sim.spawn(assassin())
    sim.run()
    assert res.procs[0].result == ("failed-over", (1,))


def test_nonblocking_test_raises_after_peer_death():
    """MPI_Test-style polling learns about a dead peer via CommFailedError —
    the overlapped (A/T) strategies poll instead of blocking."""
    sim = Simulator()
    machine = Machine(sim, 2, 2, ETHERNET_10G)
    world = MpiWorld(machine)

    def main(mpi):
        if mpi.rank == 0:
            req = yield from mpi.irecv(source=1, tag=9)
            seen = []
            try:
                while True:
                    done = yield from mpi.test(req)
                    seen.append(done)
                    if done:
                        return "completed"
                    yield from mpi.compute(0.2)
            except CommFailedError:
                # test() must have reported incomplete, never completed.
                assert not any(seen)
                return "test-raised"
        yield from mpi.compute(10.0)
        return None

    res = world.launch(main, slots=[0, 1])

    def assassin():
        yield Timeout(1.0)
        res.procs[1].kill("node failure")

    sim.spawn(assassin())
    sim.run()
    assert res.procs[0].result == "test-raised"


def test_testall_raises_after_peer_death():
    sim = Simulator()
    machine = Machine(sim, 2, 2, ETHERNET_10G)
    world = MpiWorld(machine)

    def main(mpi):
        if mpi.rank == 0:
            reqs = []
            for t in (1, 2):
                reqs.append((yield from mpi.irecv(source=1, tag=t)))
            try:
                while not (yield from mpi.testall(reqs)):
                    yield from mpi.compute(0.2)
            except CommFailedError as e:
                return ("testall-raised", tuple(e.dead_gids))
            return "unexpected"
        yield from mpi.compute(10.0)
        return None

    res = world.launch(main, slots=[0, 1])

    def assassin():
        yield Timeout(1.0)
        res.procs[1].kill("node failure")

    sim.spawn(assassin())
    sim.run()
    assert res.procs[0].result == ("testall-raised", (1,))


@pytest.mark.parametrize("receiver_finalized", [False, True])
def test_rendezvous_send_on_aborted_comm_fails(receiver_finalized):
    """A rendezvous send posted after recovery abandoned its communicator
    is dropped at the receiver, so no receive ever pulls the payload: the
    send completes in error instead of leaving its sender blocked forever.
    The receiver may have left the session (finalized) or still be alive."""

    def main(mpi):
        dup = yield from mpi.comm_dup(mpi.comm_world)
        if mpi.rank == 1:
            mpi.world.abort_comm(dup)
            if not receiver_finalized:
                yield from mpi.sleep(1.0)
            mpi.finalize()
            return None
        yield from mpi.sleep(0.01)
        try:
            yield from mpi.send(np.ones(100_000), dest=1, comm=dup)  # 800 KB
        except CommFailedError:
            return "failed"
        return "sent"

    results, _ = run_spmd(main, 2, n_nodes=2, cores_per_node=1)
    assert results[0] == "failed"
