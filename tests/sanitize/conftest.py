"""Shared fixture: run an SPMD program under an attached sanitizer."""

from __future__ import annotations

import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.simulate import Simulator
from repro.smpi import MpiWorld
from repro.sanitize import Sanitizer


def run_sanitized(func, n, *, n_nodes=2, cores_per_node=1, seed=0):
    """Run ``func`` as an ``n``-rank job with a sanitizer attached.

    One core per node by default so a 2-rank job spans two nodes: the
    intra-node fabric is always-eager (threshold 1 << 30), which would
    hide every rendezvous-window race the fixtures seed.

    Returns ``(sanitizer, error)`` where ``error`` is whatever exception the
    simulation raised (deliberately-buggy fixtures often also trip the hard
    runtime checks) or ``None`` for a clean completion.  The sanitizer is
    detached either way, so its end-of-run passes always run.
    """
    sim = Simulator()
    machine = Machine(sim, n_nodes, cores_per_node, ETHERNET_10G, seed=seed)
    world = MpiWorld(machine)
    san = Sanitizer().attach(world=world)
    world.launch(func, slots=range(n))
    error = None
    try:
        sim.run()
    except Exception as exc:  # deliberate-bug fixtures raise by design
        error = exc
    finally:
        san.detach()
    return san, error


@pytest.fixture
def sanitized_run():
    return run_sanitized
