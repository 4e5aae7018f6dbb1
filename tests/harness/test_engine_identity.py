"""Golden outputs of the engine lane, captured at the parent of PR 20.

PR 20 changed what a rate update in ``cluster/network.py`` *costs* (one
progressive filling, no numpy, no second copy of the per-link flow count)
and removed a wire format no run used; it must not change a single
simulated second.  Every value below was produced by the unmodified parent
commit (``67eadf4``) and may only change together with a deliberate
modelling change that says so.

Two regimes, because the tiny grid alone never holds many flows at once:

* the 18-config tiny sweep on both fabrics, one shrink and one expand pair,
  pinned by the sha256 of its CSV;
* two cells on the paper machine (8 x 20 cores, 20 <-> 80 ranks), assembled
  the way ``examples/`` and the ``wide_reconfig`` benchmark workload do.
  They hold up to 80 and 84 concurrent flows, the regime in which
  ``Network._advance`` used to switch to a numpy update, and no other
  tier-1 value check reaches it.

Compute-stage jitter is drawn from the machine's seeded generator, so the
runs are deterministic; everything else is plain float arithmetic.
"""

import dataclasses
import hashlib

import pytest

from repro.cluster import Machine
from repro.cluster.fabrics import fabric_by_name
from repro.harness.runner import run_sweep
from repro.malleability import ALL_CONFIGS, ReconfigConfig, ReconfigRequest
from repro.simulate import Simulator
from repro.smpi import MpiWorld, SpawnModel
from repro.synthetic.application import launch_synthetic
from repro.synthetic.presets import SCALES, cg_emulation_config

SWEEP_SHA256 = "3fc066e2e48f39ac3ffe83e39df9fc9d4ed39944401dfcaf4a691427fab7ca3d"

ITERATIONS = 12
RECONFIGURE_AT = 3

#: (fabric, NS, NT, config) -> repr((reconfiguration_time, app_time,
#: overlapped_iterations)).
PAPER_CELLS = {
    ("ethernet", 20, 80, "merge-col-s"):
        "(3.506717224808667, 4.312333606931345, 0)",
    ("infiniband", 80, 20, "merge-p2p-s"):
        "(0.2486614355672013, 1.1630648452952055, 0)",
}


def test_tiny_sweep_csv_is_the_parents():
    csv = run_sweep(
        [(2, 4), (8, 4)],
        [c.key for c in ALL_CONFIGS],
        ["ethernet", "infiniband"],
        scale="tiny",
        repetitions=1,
    ).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == SWEEP_SHA256


@pytest.mark.parametrize("cell", PAPER_CELLS, ids=lambda c: "-".join(map(str, c)))
def test_paper_width_cell_is_the_parents(cell):
    fabric, ns, nt, key = cell
    preset = SCALES["paper"]
    sim = Simulator()
    machine = Machine(
        sim, preset.n_nodes, preset.cores_per_node, fabric_by_name(fabric), seed=0
    )
    world = MpiWorld(machine, spawn_model=SpawnModel())
    config = dataclasses.replace(cg_emulation_config("paper"), iterations=ITERATIONS)
    stats = launch_synthetic(
        world,
        config.with_reconfigurations([ReconfigRequest(RECONFIGURE_AT, nt)]),
        ReconfigConfig.parse(key),
        n_initial=ns,
    )
    sim.run()
    assert stats.total_iterations() == ITERATIONS
    rec = stats.last_reconfig
    outcome = (rec.reconfiguration_time, stats.app_time, rec.overlapped_iterations)
    assert repr(outcome) == PAPER_CELLS[cell]
