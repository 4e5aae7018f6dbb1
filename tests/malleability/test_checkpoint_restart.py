"""Checkpoint/restart baseline: correctness and the §2 performance claim."""

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, Machine, ParallelFileSystem
from repro.malleability import (
    CheckpointRestartConfig,
    ReconfigConfig,
    ReconfigRequest,
    RunStats,
    run_cr_malleable,
    run_malleable,
)
from repro.simulate import Simulator
from repro.smpi import MpiWorld, SpawnModel
from tests.malleability.test_manager import N_ITERS, RECONF_AT, ToyApp


def run_cr(ns, nt, cr_config=None, iters=N_ITERS, reconf_at=RECONF_AT):
    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    pfs = ParallelFileSystem(machine)
    world = MpiWorld(
        machine, spawn_model=SpawnModel(base=0.01, per_process=0.001, per_node=0.002)
    )
    stats = RunStats()
    app = ToyApp()
    app.n_iterations = iters
    requests = [ReconfigRequest(at_iteration=reconf_at, n_targets=nt)]
    world.launch(
        run_cr_malleable,
        slots=range(ns),
        args=(app, requests, stats, pfs, cr_config or CheckpointRestartConfig()),
    )
    sim.run()
    return stats, pfs


@pytest.mark.parametrize("ns,nt", [(4, 2), (2, 4), (3, 3)])
def test_cr_preserves_iteration_stream(ns, nt):
    """The ToyApp invariant (sum(x) grows by n_rows per iteration) holds
    across the disk round-trip — data comes back exactly."""
    stats, pfs = run_cr(ns, nt)
    assert stats.total_iterations() == N_ITERS
    assert len(stats.reconfigs) == 1
    assert stats.last_reconfig.reconfiguration_time > 0
    # Every source wrote one checkpoint file.
    assert len(pfs.files()) == ns
    assert pfs.bytes_written > 0
    assert pfs.bytes_read > 0


def test_cr_reads_only_overlapping_segments():
    stats, pfs = run_cr(4, 2)
    # Shrink 4 -> 2: targets read everything once; read bytes ~ written.
    assert pfs.bytes_read == pytest.approx(pfs.bytes_written, rel=0.05)


def test_cr_requeue_delay_charged():
    fast, _ = run_cr(3, 3, CheckpointRestartConfig(requeue_delay=0.0, restart_cost=0.0))
    slow, _ = run_cr(3, 3, CheckpointRestartConfig(requeue_delay=2.0, restart_cost=0.5))
    assert (
        slow.last_reconfig.reconfiguration_time
        >= fast.last_reconfig.reconfiguration_time + 2.4
    )


def test_cr_much_slower_than_in_memory():
    """The paper's Background claim, measured: in-memory redistribution
    beats disk-based C/R decisively on the same machine and data."""
    stats_cr, _ = run_cr(4, 2)

    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    world = MpiWorld(
        machine, spawn_model=SpawnModel(base=0.01, per_process=0.001, per_node=0.002)
    )
    stats_mem = RunStats()
    app = ToyApp()
    world.launch(
        run_malleable,
        slots=range(4),
        args=(app, ReconfigConfig.parse("merge-col-s"),
              [ReconfigRequest(RECONF_AT, 2)], stats_mem),
    )
    sim.run()

    cr_time = stats_cr.last_reconfig.reconfiguration_time
    mem_time = stats_mem.last_reconfig.reconfiguration_time
    assert cr_time > 2 * mem_time, (
        f"C/R ({cr_time:.4f}s) should be much slower than in-memory "
        f"({mem_time:.4f}s)"
    )


def test_pfs_validation_and_api():
    sim = Simulator()
    machine = Machine(sim, 2, 1, ETHERNET_10G)
    with pytest.raises(ValueError):
        ParallelFileSystem(machine, write_bandwidth=0)
    pfs = ParallelFileSystem(machine)
    with pytest.raises(FileNotFoundError):
        pfs.read(machine.nodes[0], "missing")
    with pytest.raises(FileNotFoundError):
        pfs.segments_of("missing")
    assert not pfs.exists("missing")


class TinyCsrApp:
    """3-row CSR + dense app: with 4 ranks, rank 3 owns *zero* rows.

    Exercises the empty-rank checkpoint path: ``_serialize`` must write a
    zero-byte marker segment instead of touching the (matrix-less) store.
    """

    n_rows = 3
    n_iterations = 8

    def __init__(self):
        from repro.redistribution import FieldSpec

        self.a_global = sp_csr()
        self.specs = (
            FieldSpec("A", "csr", constant=True),
            FieldSpec("x", "dense", constant=False),
        )

    def initial_data(self, lo, hi):
        return {
            "A": self.a_global[lo:hi],
            "x": np.arange(lo, hi, dtype=np.float64),
        }

    def iterate(self, mpi, comm, dataset, iteration):
        yield from mpi.compute(1e-3)
        x = dataset.stores["x"].data
        total = yield from mpi.allreduce(float(x.sum()), comm=comm)
        assert total == pytest.approx(3.0 + iteration * self.n_rows)
        x += 1.0

    def on_handoff(self, mpi, dataset):
        store = dataset.stores["A"]
        if store.n_rows:
            got = store.matrix.toarray()
            want = self.a_global[dataset.lo : dataset.hi].toarray()
            np.testing.assert_array_equal(got, want)


def sp_csr():
    from scipy import sparse

    return sparse.csr_matrix(
        np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 4.0]])
    )


@pytest.mark.parametrize(
    "ns,nts",
    [
        (4, [2]),  # shrink: source rank 3 is empty at the checkpoint
        (2, [4]),  # grow: restarted rank 3 is empty ever after
        (4, [4, 2]),  # empty rank both writes gen0 and re-writes gen1
    ],
)
def test_cr_empty_ranks_shrink_grow(ns, nts):
    """Zero-row ranks survive the disk round-trip in both directions."""
    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    pfs = ParallelFileSystem(machine)
    world = MpiWorld(
        machine, spawn_model=SpawnModel(base=0.01, per_process=0.001, per_node=0.002)
    )
    stats = RunStats()
    app = TinyCsrApp()
    requests = [
        ReconfigRequest(at_iteration=2 + 2 * i, n_targets=nt)
        for i, nt in enumerate(nts)
    ]
    world.launch(
        run_cr_malleable,
        slots=range(ns),
        args=(app, requests, stats, pfs, CheckpointRestartConfig(0.05, 0.05)),
    )
    sim.run()
    assert stats.total_iterations() == app.n_iterations
    assert len(stats.reconfigs) == len(nts)
    # The empty rank's segments are real files with zero payload bytes.
    for gen in range(len(nts)):
        n_writers = ns if gen == 0 else nts[gen - 1]
        empties = [
            r for r in range(n_writers)
            if r >= app.n_rows
        ]
        for r in empties:
            segs = pfs.segments_of(f"checkpoint.gen{gen}.rank{r}")
            assert [s.nbytes for s in segs] == [0, 0]
            assert all(s.payload is None for s in segs)


def test_zero_row_csr_store_sizes_to_zero():
    from repro.redistribution import FieldSpec
    from repro.redistribution.stores import CsrStore

    store = CsrStore(FieldSpec("A", "csr"), 5, 5)
    assert store.n_rows == 0
    assert store.range_nbytes(5, 5) == 0


def test_cr_with_real_cg_data_preserves_numerics():
    """C/R round-trips real CSR + dense payloads through the disk: the CG
    residual stream must match the sequential reference exactly."""
    from repro.apps import ConjugateGradientApp, cg_reference, poisson_2d

    a = poisson_2d(5)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(a.shape[0])
    iters = 14
    app = ConjugateGradientApp(a, b, n_iterations=iters)

    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    pfs = ParallelFileSystem(machine)
    world = MpiWorld(
        machine, spawn_model=SpawnModel(base=0.002, per_process=2e-4, per_node=2e-4)
    )
    stats = RunStats()
    requests = [ReconfigRequest(at_iteration=6, n_targets=4)]
    world.launch(
        run_cr_malleable, slots=range(2),
        args=(app, requests, stats, pfs, CheckpointRestartConfig(0.05, 0.05)),
    )
    sim.run()

    _, ref = cg_reference(a, b, iters)
    assert app.residuals == pytest.approx(ref, rel=1e-12)
    assert stats.total_iterations() == iters


#: (ns, nt) -> reconfiguration_time, finished_at, spawn_started_at,
#: spawn_finished_at, data_complete_at of the ToyApp C/R run above, the
#: PFS bytes read and written, and the iterations each group ran.
CR_PINS = {
    (4, 2): (0.7542144184333334, 0.8144955250999998, 0.02527759733333334,
             0.7774277597666667, 0.7794920157666667),
    (2, 4): (0.7540968841666666, 0.8144880270999996, 0.025002506666666667,
             0.7770672628333334, 0.7790993908333333),
    (3, 3): (0.7541384783222222, 0.8147818141888891, 0.025277252000000004,
             0.7773723575222222, 0.7794157303222222),
    (5, 7): (0.7541760588083334, 0.8154978561861113, 0.025550159111111116,
             0.7776994445861112, 0.7797262179194445),
}


@pytest.mark.parametrize("ns,nt", sorted(CR_PINS))
def test_cr_run_pinned(ns, nt):
    """The C/R lane's simulated times and disk traffic, exactly: the
    checkpoint write, the requeue and the overlapping reads are one event
    sequence, whichever code drives the loop around them."""
    stats, pfs = run_cr(ns, nt)
    rec = stats.reconfigs[0]
    got = (rec.reconfiguration_time, stats.finished_at, rec.spawn_started_at,
           rec.spawn_finished_at, rec.data_complete_at)
    assert got == CR_PINS[ns, nt]
    assert (pfs.bytes_read, pfs.bytes_written) == (80320.0, 80320.0)
    assert stats.iterations_by_group == {0: RECONF_AT, 1: N_ITERS - RECONF_AT}
