"""Equivalence of the production allocator against the reference oracle.

The production allocator is progressive filling over the touched links
only, plus fast paths for isolated flows.  The seed's O(rounds x links x
flows) algorithm is kept verbatim as
:func:`repro.cluster.network.max_min_reference`; this module hammers the
production allocator against it on randomized flow/link topologies
(>= 200 cases, up to the sizes the paper machine reaches) and checks the
capacity invariant on every one.
"""

import math
import random

from repro.cluster.network import Flow, Network, max_min_reference
from repro.simulate import Simulator

N_CASES = 250


def _random_topology(rng: random.Random):
    """A random network plus flows injected directly (no event machinery)."""
    sim = Simulator()
    net = Network(sim)
    # Up to the paper machine's 3 * 8 + 1 links and its 160 ranks' worth of
    # concurrent flows; a route is NIC-up + NIC-down (+ switch), or memory.
    n_links = rng.randint(1, 25)
    links = [
        net.add_link(f"l{i}", rng.uniform(0.5, 1e6)) for i in range(n_links)
    ]
    n_flows = rng.randint(1, 160)
    flows = []
    for i in range(n_flows):
        route = rng.sample(links, rng.randint(1, min(4, n_links)))
        f = Flow(route, size=1.0, done=sim.event(), label=f"f{i}")
        net._active.add(f)
        for link in route:
            link.flows.add(f)
        flows.append(f)
    return net, links, flows


def test_incremental_allocator_matches_reference_on_random_topologies():
    rng = random.Random(0xC0FFEE)
    for case in range(N_CASES):
        net, links, flows = _random_topology(rng)
        want = max_min_reference(net._active, links)
        net._max_min_allocate()
        for f in flows:
            assert math.isclose(
                f.rate, want[f], rel_tol=1e-9, abs_tol=1e-12
            ), f"case {case}: flow {f.label} got {f.rate!r}, want {want[f]!r}"
        # Feasibility: no link over capacity (within float tolerance).
        for link in links:
            total = sum(f.rate for f in link.flows)
            assert total <= link.capacity * (1 + 1e-9), (
                f"case {case}: link {link.name} over capacity"
            )


def test_debug_invariant_mode_simulation_smoke():
    """A full simulated run with ``debug_invariants`` checking enabled:
    every rate update is verified against the oracle as the sim runs."""
    from repro.cluster.fabrics import fabric_by_name
    from repro.cluster.machine import Machine
    from repro.malleability.config import ReconfigConfig
    from repro.malleability.rms import ReconfigRequest
    from repro.simulate.core import Simulator as Sim
    from repro.smpi.world import MpiWorld
    from repro.synthetic.application import launch_synthetic
    from repro.synthetic.presets import SCALES, cg_emulation_config

    preset = SCALES["tiny"]
    cfg = cg_emulation_config("tiny").with_reconfigurations(
        [ReconfigRequest(preset.reconfigure_at, 4)]
    )
    sim = Sim()
    machine = Machine(
        sim,
        preset.n_nodes,
        preset.cores_per_node,
        fabric_by_name("ethernet"),
        seed=7,
    )
    machine.network.debug_invariants = True  # oracle-check every update
    world = MpiWorld(machine, spawn_model=preset.spawn_model)
    stats = launch_synthetic(
        world, cfg, ReconfigConfig.parse("merge-p2p-t"), n_initial=2
    )
    sim.run()  # would raise AssertionError inside _debug_verify on drift
    assert stats.last_reconfig.reconfiguration_time > 0
    assert machine.network.reallocations > 0
    assert machine.network.fast_path_hits > 0
