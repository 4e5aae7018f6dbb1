"""Per-stage behaviour of the synthetic application's emulation kernel."""

import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.simulate import Simulator
from repro.smpi import MpiWorld, run_spmd
from repro.synthetic import StageSpec, run_stage


def run_stage_spmd(spec, p, fidelity="full", iterations=1, n_nodes=4, cores=2):
    def main(mpi):
        for it in range(iterations):
            yield from run_stage(mpi, mpi.comm_world, spec, it, fidelity)
        return mpi.now

    results, sim = run_spmd(main, p, n_nodes=n_nodes, cores_per_node=cores)
    return results, sim


# ----------------------------------------------------------------- compute
def test_compute_stage_scales_linearly_with_ranks():
    spec = StageSpec(kind="compute", work=0.8, jitter=0.0)
    t2 = run_stage_spmd(spec, 2)[1].now
    t8 = run_stage_spmd(spec, 8)[1].now
    assert t2 == pytest.approx(0.4)
    assert t8 == pytest.approx(0.1)


def test_compute_stage_constant_scale():
    spec = StageSpec(kind="compute", work=0.3, scale="constant", jitter=0.0)
    assert run_stage_spmd(spec, 2)[1].now == pytest.approx(0.3)
    assert run_stage_spmd(spec, 6)[1].now == pytest.approx(0.3)


def test_compute_jitter_perturbs_time():
    spec = StageSpec(kind="compute", work=0.5, jitter=0.1)
    t = run_stage_spmd(spec, 2)[1].now
    assert t != pytest.approx(0.25)
    assert 0.15 < t < 0.4


# ------------------------------------------------------------ collectives
@pytest.mark.parametrize("fidelity", ["full", "sketch"])
def test_allreduce_stage_runs_both_fidelities(fidelity):
    spec = StageSpec(kind="allreduce", nbytes=8.0)
    results, sim = run_stage_spmd(spec, 5, fidelity, iterations=3)
    assert sim.now > 0


@pytest.mark.parametrize("fidelity", ["full", "sketch"])
def test_allgatherv_stage_runs_both_fidelities(fidelity):
    spec = StageSpec(kind="allgatherv", nbytes=400_000.0)
    results, sim = run_stage_spmd(spec, 4, fidelity)
    assert sim.now > 0


def test_allgatherv_sketch_close_to_full():
    spec = StageSpec(kind="allgatherv", nbytes=2_000_000.0)
    t_full = run_stage_spmd(spec, 4, "full", iterations=4)[1].now
    t_sketch = run_stage_spmd(spec, 4, "sketch", iterations=4)[1].now
    assert 0.5 < t_sketch / t_full < 2.0


def test_single_rank_collectives_are_noops():
    for kind in ("allreduce", "allgatherv", "p2p"):
        spec = StageSpec(kind=kind, nbytes=1000.0)
        results, sim = run_stage_spmd(spec, 1)
        assert sim.now == 0.0


def test_p2p_stage_halo_exchange():
    spec = StageSpec(kind="p2p", nbytes=50_000.0)
    results, sim = run_stage_spmd(spec, 4, iterations=2)
    assert sim.now > 0


def test_unknown_fidelity_rejected():
    spec = StageSpec(kind="compute", work=0.1)

    def main(mpi):
        yield from run_stage(mpi, mpi.comm_world, spec, 0, "quantum")

    from repro.simulate import SimulationError

    with pytest.raises(SimulationError):
        run_spmd(main, 1)

