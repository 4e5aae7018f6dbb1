"""The cluster: nodes + interconnect + slot placement.

A :class:`Machine` mirrors the paper's testbed shape — ``n_nodes`` servers of
``cores_per_node`` cores behind one non-blocking switch — and owns:

* one :class:`~repro.cluster.cpu.Node` per server (processor-sharing CPUs),
* a :class:`~repro.cluster.network.Network` with an up and a down NIC link
  per node (inter-node messages) and a memory link per node (intra-node),
* the *slot → node* placement rule used for both the initial process group
  and spawned groups.

Placement and oversubscription
------------------------------
Slots are dealt block-wise: slot ``s`` lives on node ``s // cores_per_node``,
exactly the paper's "⌈N/20⌉ occupied nodes" rule.  During a **Baseline**
reconfiguration the NT spawned targets occupy slots ``0..NT-1`` — the *same*
physical nodes as the NS sources — so while both groups are alive each node
runs up to ``2 × cores`` demands and the CPU model slows everyone down
(= the paper's oversubscription).  A **Merge** expansion spawns only slots
``NS..NT-1``, which land on fresh cores, avoiding the penalty.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from ..simulate.core import Simulator
from ..simulate.events import SimEvent
from .cpu import Node
from .fabrics import MEMORY_CHANNEL, FabricSpec
from .network import Link, Network

__all__ = ["Machine"]


class Machine:
    """A simulated cluster.

    Parameters
    ----------
    sim:
        Simulator that owns all state.
    n_nodes, cores_per_node:
        Cluster shape (the paper: 8 nodes x 20 cores).
    fabric:
        Inter-node interconnect parameters.
    memory_channel:
        Intra-node copy channel parameters (defaults to a 12 GB/s stream).
    seed:
        Seed for the machine-level jitter RNG used by workloads that want
        run-to-run noise (the statistics pipeline needs non-identical reps).
    switch_oversubscription:
        Blocking factor of the core switch.  1.0 (default) models the
        paper's non-blocking fabric (contention only at NICs); a factor f
        adds a shared switch link of capacity ``n_nodes * bandwidth / f``
        that every inter-node flow crosses — the cheap-fat-tree ablation.
    """

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        cores_per_node: int,
        fabric: FabricSpec,
        memory_channel: FabricSpec = MEMORY_CHANNEL,
        seed: int = 0,
        switch_oversubscription: float = 1.0,
    ):
        if n_nodes < 1 or cores_per_node < 1:
            raise ValueError("machine needs >= 1 node and >= 1 core per node")
        if switch_oversubscription < 1.0:
            raise ValueError("switch oversubscription factor must be >= 1")
        self.sim = sim
        self.fabric = fabric
        self.memory_channel = memory_channel
        self.cores_per_node = cores_per_node
        self.nodes: list[Node] = [
            Node(sim, i, cores_per_node, name=f"node{i}") for i in range(n_nodes)
        ]
        self.network = Network(sim)
        self._up: list[Link] = []
        self._down: list[Link] = []
        self._mem: list[Link] = []
        for node in self.nodes:
            self._up.append(self.network.add_link(f"{node.name}.up", fabric.bandwidth))
            self._down.append(self.network.add_link(f"{node.name}.down", fabric.bandwidth))
            self._mem.append(
                self.network.add_link(f"{node.name}.mem", memory_channel.bandwidth)
            )
        self._switch: Optional[Link] = None
        if switch_oversubscription > 1.0:
            self._switch = self.network.add_link(
                "switch",
                n_nodes * fabric.bandwidth / switch_oversubscription,
            )
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ shape
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.cores_per_node

    def node_for_slot(self, slot: int) -> Node:
        """Block placement: slot ``s`` -> node ``s // cores_per_node``.

        Slots wrap modulo the machine so that worlds larger than the machine
        (legal during Baseline reconfigurations, where two full groups
        coexist) still land on real nodes.
        """
        if slot < 0:
            raise ValueError(f"slot must be >= 0, got {slot}")
        return self.nodes[(slot // self.cores_per_node) % self.n_nodes]

    def nodes_for_slots(self, n_slots: int) -> list[Node]:
        return [self.node_for_slot(s) for s in range(n_slots)]

    def nodes_touched(self, n_slots: int) -> int:
        """⌈N/cores⌉ nodes, clamped to the machine size (paper §4.3)."""
        return min(self.n_nodes, math.ceil(n_slots / self.cores_per_node))

    def links_of_node(self, node_id: int) -> dict:
        """The NIC/memory links of one node, keyed ``up``/``down``/``mem``
        (fault layer: link degradation targets these by name)."""
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node_id {node_id} out of range 0..{self.n_nodes - 1}")
        return {
            "up": self._up[node_id],
            "down": self._down[node_id],
            "mem": self._mem[node_id],
        }

    def degrade_node_links(self, node_id: int, factor: float) -> None:
        """Scale a node's up/down NIC capacity by ``factor`` of the fabric's
        nominal bandwidth (link degradation / flap-recovery injection)."""
        links = self.links_of_node(node_id)
        nominal = self.fabric.bandwidth
        for key in ("up", "down"):
            self.network.set_link_capacity(links[key], nominal * factor)

    # --------------------------------------------------------------- transfer
    def transfer(
        self,
        src: Node,
        dst: Node,
        nbytes: float,
        label: Any = "",
        latency: Optional[float] = None,
    ) -> SimEvent:
        """Move ``nbytes`` from ``src`` to ``dst``; returns the delivery event.

        Intra-node messages use the node's memory link; inter-node messages
        share the sender's up-NIC and the receiver's down-NIC max-min fairly
        with every other active flow.
        """
        if src.node_id == dst.node_id:
            route = [self._mem[src.node_id]]
            lat = self.memory_channel.latency if latency is None else latency
        else:
            route = [self._up[src.node_id], self._down[dst.node_id]]
            if self._switch is not None:
                route.insert(1, self._switch)
            lat = self.fabric.latency if latency is None else latency
        return self.network.start_flow(route, nbytes, latency=lat, label=label)

    def uncontended_transfer_time(self, src: Node, dst: Node, nbytes: float) -> float:
        """Analytic best-case message time, for models and sanity checks."""
        spec = self.memory_channel if src.node_id == dst.node_id else self.fabric
        return spec.transfer_time(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Machine {self.n_nodes}x{self.cores_per_node} cores, "
            f"fabric={self.fabric.name}>"
        )
