"""Dynamic process management: Comm_spawn, intercomm P2P, merge, finalize."""

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.simulate import Simulator, Timeout
from repro.smpi import CommFailedError, MpiWorld, SpawnModel, run_spmd


def run_world(main, n, *, n_nodes=2, cores=2, spawn_model=None, args=()):
    sim = Simulator()
    machine = Machine(sim, n_nodes, cores, ETHERNET_10G)
    world = MpiWorld(machine, spawn_model=spawn_model)
    res = world.launch(main, slots=range(n), args=args)
    sim.run()
    return [p.result for p in res.procs], sim, world


def child_echo(mpi):
    """Child: receive a number from parent rank 0, send back double."""
    assert mpi.parent is not None
    x = yield from mpi.recv(source=0, comm=mpi.parent)
    yield from mpi.send(x * 2, dest=0, comm=mpi.parent)
    mpi.finalize()
    return x


def test_spawn_creates_children_with_parent_intercomm():
    def main(mpi):
        inter = yield from mpi.comm_spawn(child_echo, slots=[2, 3])
        assert inter.is_inter
        assert inter.size == 2 and inter.remote_size == 2
        if mpi.rank == 0:
            yield from mpi.send(21, dest=0, comm=inter)
            yield from mpi.send(33, dest=1, comm=inter)
            a = yield from mpi.recv(source=0, comm=inter)
            b = yield from mpi.recv(source=1, comm=inter)
            return (a, b)
        return None

    results, sim, world = run_world(main, 2)
    assert results[0] == (42, 66)


def test_spawn_cost_model_applied():
    model = SpawnModel(base=1.0, per_process=0.1, per_node=0.5)

    def main(mpi):
        t0 = mpi.now
        yield from mpi.comm_spawn(child_noop, slots=[2, 3])
        return mpi.now - t0

    results, sim, world = run_world(main, 2, spawn_model=model)
    # 2 procs on slots 2,3 -> node 1 (cores=2): cost = 1.0 + 0.2 + 0.5
    assert results[0] >= 1.7 - 1e-9


def child_noop(mpi):
    mpi.finalize()
    return "child-done"
    yield  # pragma: no cover


def test_spawn_is_collective_all_parents_get_same_intercomm():
    def main(mpi):
        inter = yield from mpi.comm_spawn(child_noop, slots=[2])
        return (inter.ctx_id, inter.size, inter.remote_size)

    results, sim, world = run_world(main, 2)
    assert results[0] == results[1]
    assert results[0][1:] == (2, 1)


def test_spawn_children_placed_on_requested_slots():
    def child(mpi):
        mpi.finalize()
        return mpi.node.node_id
        yield  # pragma: no cover

    def main(mpi):
        if True:
            yield from mpi.comm_spawn(child, slots=[2, 3])
        return None

    results, sim, world = run_world(main, 2, n_nodes=2, cores=2)
    child_nodes = [
        p.result for p in sim._processes if p.name.startswith("spawned")
    ]
    assert child_nodes == [1, 1]  # slots 2,3 on node 1


def test_merge_intercomm_low_side_keeps_low_ranks():
    def child(mpi):
        merged = yield from mpi.merge_intercomm(mpi.parent, high=True)
        my_merged_rank = merged.rank_of_gid(mpi.gid)
        # New processes take ranks after the sources.
        total = yield from mpi.allreduce(1, comm=merged)
        mpi.finalize()
        return (my_merged_rank, total)

    def main(mpi):
        inter = yield from mpi.comm_spawn(child, slots=[2, 3])
        merged = yield from mpi.merge_intercomm(inter, high=False)
        my_merged_rank = merged.rank_of_gid(mpi.gid)
        total = yield from mpi.allreduce(1, comm=merged)
        return (my_merged_rank, total, merged.size)

    results, sim, world = run_world(main, 2)
    assert results[0] == (0, 4, 4)
    assert results[1] == (1, 4, 4)
    child_results = [
        p.result for p in sim._processes if p.name.startswith("spawned")
    ]
    assert sorted(child_results) == [(2, 4), (3, 4)]


def test_merge_with_consistent_flags_required():
    def child(mpi):
        merged = yield from mpi.merge_intercomm(mpi.parent, high=False)
        mpi.finalize()
        return None

    def main(mpi):
        inter = yield from mpi.comm_spawn(child, slots=[1])
        # Both sides pass high=False -> must fail loudly.
        yield from mpi.merge_intercomm(inter, high=False)
        return None

    with pytest.raises(Exception):
        run_world(main, 1)


def test_sources_can_finalize_after_handoff():
    """Baseline shape: parents send data to children and exit; children
    continue alone."""
    payload = np.arange(100.0)

    def child(mpi):
        data = yield from mpi.recv(source=0, comm=mpi.parent)
        # Parents are gone by now (or going); child continues computing.
        yield from mpi.compute(0.01)
        mpi.finalize()
        return float(data.sum())

    def main(mpi):
        inter = yield from mpi.comm_spawn(child, slots=[1])
        if mpi.rank == 0:
            yield from mpi.send(payload, dest=0, comm=inter)
        yield from mpi.disconnect(inter)
        mpi.finalize()
        return "source-exited"

    results, sim, world = run_world(main, 1)
    assert results == ["source-exited"]
    child_results = [
        p.result for p in sim._processes if p.name.startswith("spawned")
    ]
    assert child_results == [float(payload.sum())]


def test_spawned_group_has_own_comm_world():
    def child(mpi):
        total = yield from mpi.allreduce(mpi.rank + 1)
        mpi.finalize()
        return total

    def main(mpi):
        yield from mpi.comm_spawn(child, slots=[2, 3, 4])
        return None

    results, sim, world = run_world(main, 2, n_nodes=3, cores=2)
    child_results = [
        p.result for p in sim._processes if p.name.startswith("spawned")
    ]
    assert child_results == [6, 6, 6]


def test_two_sequential_spawns_from_same_comm():
    def main(mpi):
        i1 = yield from mpi.comm_spawn(child_noop, slots=[2])
        i2 = yield from mpi.comm_spawn(child_noop, slots=[3])
        return (i1.ctx_id != i2.ctx_id)

    results, sim, world = run_world(main, 2)
    assert results == [True, True]


def test_spawn_model_validation():
    model = SpawnModel()
    with pytest.raises(ValueError):
        model.cost(-1, 1)
    assert model.cost(0, 0) == 0.0
    assert model.cost(10, 2) == pytest.approx(model.base + 10 * model.per_process + 2 * model.per_node)


@pytest.mark.parametrize(
    "kind", ["spawn", "merge", "comm_create", "win_create"]
)
def test_rendezvous_fails_when_a_participant_died(kind):
    """A participant killed before it reaches a world rendezvous fails the
    rendezvous for everyone already waiting there: the survivors raise
    CommFailedError naming it instead of hanging."""
    sim = Simulator()
    machine = Machine(sim, 2, 2, ETHERNET_10G)
    world = MpiWorld(machine)
    victims, outcomes = [], []

    def victim(mpi):
        victims.append(mpi.gid)
        yield from mpi.compute(100.0)  # killed long before this ends

    def survive(op):
        try:
            yield from op
        except CommFailedError as e:
            outcomes.append(e.dead_gids)
            return
        outcomes.append("completed")

    def child(mpi):
        if mpi.rank == 1:
            yield from victim(mpi)
        else:
            yield from survive(mpi.merge_intercomm(mpi.parent, high=True))

    def main(mpi):
        if kind == "merge":
            inter = yield from mpi.comm_spawn(child, slots=[2, 3])
            yield from survive(mpi.merge_intercomm(inter, high=False))
            return
        if mpi.rank == 2:
            yield from victim(mpi)
            return
        yield from survive({
            "spawn": lambda: mpi.comm_spawn(child_noop, slots=[3]),
            "comm_create": lambda: mpi.comm_create(mpi.comm_world, [0, 1]),
            "win_create": lambda: mpi.win_create(None),
        }[kind]())

    world.launch(main, slots=range(2 if kind == "merge" else 3))

    def assassin():
        yield Timeout(50.0)
        world.terminate_ranks(victims)

    sim.spawn(assassin())
    sim.run()
    assert len(victims) == 1
    survivors = 3 if kind == "merge" else 2  # merge: 2 parents + 1 child
    assert outcomes == [victims] * survivors


@pytest.mark.parametrize(
    "kind", ["spawn", "merge", "comm_create", "win_create"]
)
def test_rendezvous_fails_when_a_participant_dies_after_arriving(kind):
    """A participant that reached the rendezvous and then died while it was
    completing (spawn or merge cost) fails it for
    the survivors; the completion that comes due later does nothing."""
    sim = Simulator()
    machine = Machine(sim, 2, 2, ETHERNET_10G)
    world = MpiWorld(machine, spawn_model=SpawnModel(base=10.0, merge_cost=10.0))
    victims, outcomes = [], []

    def take_part(mpi, op, is_victim):
        if is_victim:
            victims.append(mpi.gid)
        try:
            yield from op
        except CommFailedError as e:
            outcomes.append(e.dead_gids)
            return
        outcomes.append("completed")

    def child(mpi):
        yield from take_part(
            mpi, mpi.merge_intercomm(mpi.parent, high=True), mpi.rank == 1
        )

    def main(mpi):
        if kind == "merge":
            inter = yield from mpi.comm_spawn(child, slots=[2, 3])
            yield from take_part(mpi, mpi.merge_intercomm(inter, high=False), False)
            return
        yield from take_part(mpi, {
            "spawn": lambda: mpi.comm_spawn(child_noop, slots=[3]),
            "comm_create": lambda: mpi.comm_create(mpi.comm_world, [0, 1]),
            "win_create": lambda: mpi.win_create(None),
        }[kind](), mpi.rank == 2)

    world.launch(main, slots=range(2 if kind == "merge" else 3))

    def assassin():
        # Everyone has arrived; the rendezvous completes at ~10 s (~20 s
        # for merge, after the spawn).
        yield Timeout(15.0 if kind == "merge" else 5.0)
        world.terminate_ranks(victims)

    sim.spawn(assassin())
    sim.run()
    assert len(victims) == 1
    survivors = 3 if kind == "merge" else 2  # merge: 2 parents + 1 child
    assert outcomes == [victims] * survivors
