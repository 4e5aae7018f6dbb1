"""Attaching a fault injector does not change the reconfiguration protocol.

A schedule whose only event can never fire (a spawn failure at attempt 99)
must leave every number of a run as it is without one: faulted and
fault-free runs walk the same recovery ladder, and the injector only adds
the faults.  The cells are built by hand with one explicit machine seed,
not through ``run_sweep``, whose per-cell seed folds the fault spec in.
"""

import pytest

from repro.cluster import Machine
from repro.cluster.fabrics import fabric_by_name
from repro.faults import FaultInjector, FaultSchedule
from repro.malleability import ALL_CONFIGS, ReconfigRequest
from repro.simulate import Simulator
from repro.smpi import MpiWorld
from repro.synthetic.application import launch_synthetic
from repro.synthetic.presets import SCALES, cg_emulation_config

INERT = "spawnfail@0:attempt=99"


def _cell(config, ns, nt, faults=None):
    preset = SCALES["tiny"]
    sim = Simulator()
    machine = Machine(
        sim, preset.n_nodes, preset.cores_per_node, fabric_by_name("ethernet"),
        seed=7,
    )
    world = MpiWorld(machine, spawn_model=preset.spawn_model)
    cfg = cg_emulation_config("tiny").with_reconfigurations(
        [ReconfigRequest(preset.reconfigure_at, nt)]
    )
    stats = launch_synthetic(world, cfg, config, n_initial=ns)
    if faults is not None:
        FaultInjector(FaultSchedule.parse(faults), machine, world).attach()
    sim.run()
    rec = stats.last_reconfig
    return rec.reconfiguration_time, stats.app_time, rec.overlapped_iterations


@pytest.mark.parametrize("ns,nt", [(4, 8), (8, 4)], ids=["4-8", "8-4"])
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.key)
def test_inert_injector_changes_nothing(config, ns, nt):
    assert _cell(config, ns, nt, faults=INERT) == _cell(config, ns, nt)
