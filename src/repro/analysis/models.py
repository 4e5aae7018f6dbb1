"""Closed-form performance models of the redistribution methods.

LogGP-flavoured predictions of Stage 2+3 costs, derived from the same
fabric/spawn parameters the simulator uses.  Two purposes:

* **validation** — tests assert the simulator agrees with the closed forms
  in uncontended scenarios (if they diverge, one of the two is wrong);
* **planning** — a user can ask "roughly how long would this
  reconfiguration take?" without running a simulation
  (:func:`predict_reconfiguration`).

The models deliberately ignore CPU oversubscription and cross-traffic —
exactly the effects the simulator adds on top.

Every price is one walk over the overlaps of the plan's two partitions
(:func:`~repro.redistribution.blockdist.range_overlaps`, §3.1: "only the
dimension of vectors and matrices is sufficient"), so pricing builds no
:class:`~repro.redistribution.plan.Transfer` and a plan that is only
priced never builds its transfer index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from ..cluster.fabrics import FabricSpec
from ..redistribution.blockdist import range_overlaps
from ..redistribution.plan import RedistributionPlan
from ..redistribution.session import is_memcpy
from ..smpi.spawn import SpawnModel

__all__ = [
    "message_time",
    "chunk_times",
    "predict_p2p_redistribution",
    "predict_pairwise_alltoallv",
    "predict_rma_redistribution",
    "predict_spawn",
    "predict_reconfiguration",
    "Prediction",
]


def message_time(fabric: FabricSpec, nbytes: float) -> float:
    """One uncontended message: latency + wire + receiver copy.

    Rendezvous messages add one handshake round-trip (RTS + CTS).
    """
    t = fabric.latency + nbytes / fabric.bandwidth
    if fabric.copy_rate > 0:
        t += nbytes / fabric.copy_rate
    if nbytes > fabric.eager_threshold:
        t += 2 * fabric.latency
    return t


def _wire_chunks(
    plan: RedistributionPlan, merge: bool
) -> Iterator[tuple[int, int, int]]:
    """``(src, dst, n_rows)`` of every chunk that crosses the wire, in
    :func:`range_overlaps` order, by the sessions' own memcpy-vs-wire
    decision: a Merge rank ``r`` is source ``r`` and (if ``r < NT``) target
    ``r``, so its overlap stays local; Baseline's source and target groups
    are disjoint processes, so every chunk is wire traffic."""
    nt = plan.n_targets
    for src, dst, lo, hi in range_overlaps(plan.src_offsets, plan.dst_offsets):
        if not is_memcpy(dst, src if merge and src < nt else None):
            yield src, dst, hi - lo


def chunk_times(
    plan: RedistributionPlan, bytes_per_row: float, fabric: FabricSpec,
    merge: bool = True,
) -> dict[tuple[int, int], float]:
    """Uncontended per-chunk times for every (src, dst) wire transfer."""
    return {
        (src, dst): message_time(fabric, rows * bytes_per_row)
        for src, dst, rows in _wire_chunks(plan, merge)
    }


def _bottleneck_bytes(
    plan: RedistributionPlan, bytes_per_row: float, merge: bool
) -> float:
    """The serialisation floor: the busiest endpoint's total traffic."""
    out_bytes: dict[int, float] = {}
    in_bytes: dict[int, float] = {}
    for src, dst, rows in _wire_chunks(plan, merge):
        b = rows * bytes_per_row
        out_bytes[src] = out_bytes.get(src, 0.0) + b
        in_bytes[dst] = in_bytes.get(dst, 0.0) + b
    return max([*out_bytes.values(), *in_bytes.values()], default=0.0)


def predict_p2p_redistribution(
    plan: RedistributionPlan, bytes_per_row: float, fabric: FabricSpec,
    merge: bool = True,
) -> float:
    """Algorithm 1 with all chunks in flight concurrently: the makespan is
    bounded below by the busiest endpoint draining its bytes, plus one
    size-message round and the rendezvous handshake."""
    peak = _bottleneck_bytes(plan, bytes_per_row, merge)
    if peak == 0:
        return 0.0
    t = peak / fabric.bandwidth
    if fabric.copy_rate > 0:
        t += peak / fabric.copy_rate
    # sizes message + data handshake
    t += 3 * fabric.latency + message_time(fabric, 64)
    return t


def predict_pairwise_alltoallv(
    plan: RedistributionPlan, bytes_per_row: float, fabric: FabricSpec,
    merge: bool = True,
) -> float:
    """Algorithm 2's blocking schedule: P serialized phases per rank; each
    phase costs its chunk's message time (empty phases still pay latency).

    Phase i moves pairs (r, (r+i) mod P) and lasts as long as its slowest
    pair.  One pass files every wire chunk under its phase, so the price
    is O(NS + NT)."""
    P = max(plan.n_sources, plan.n_targets)
    slowest: list[Optional[float]] = [None] * P
    for src, dst, rows in _wire_chunks(plan, merge):
        t = message_time(fabric, rows * bytes_per_row)
        i = (dst - src) % P
        m = slowest[i]
        if m is None or t > m:
            slowest[i] = t
    total = 0.0
    for m in slowest:
        total += 2 * fabric.latency if m is None else m
    return total


def predict_rma_redistribution(
    plan: RedistributionPlan, bytes_per_row: float, fabric: FabricSpec,
    merge: bool = True,
) -> float:
    """Passive-target puts with all chunks in flight concurrently.

    Same bandwidth floor as P2P, but the one-sided schedule needs no size
    pre-exchange and no per-chunk rendezvous handshake — its control cost
    is one lock round-trip plus the fire-and-forget unlock release.  On
    non-RDMA fabrics the simulator adds the rendezvous-progress stalls this
    closed form deliberately ignores."""
    peak = _bottleneck_bytes(plan, bytes_per_row, merge)
    if peak == 0:
        return 0.0
    t = peak / fabric.bandwidth
    if fabric.copy_rate > 0:
        t += peak / fabric.copy_rate
    # lock request/grant round-trip + unlock release
    t += 3 * fabric.latency
    return t


def predict_spawn(spawn: SpawnModel, n_procs: int, n_nodes: int) -> float:
    return spawn.cost(n_procs, n_nodes)


@dataclass(frozen=True)
class Prediction:
    """Breakdown of a predicted reconfiguration."""

    spawn: float
    redistribution: float

    @property
    def total(self) -> float:
        return self.spawn + self.redistribution


def predict_reconfiguration(
    plan: RedistributionPlan,
    bytes_per_row: float,
    fabric: FabricSpec,
    spawn: SpawnModel,
    cores_per_node: int,
    method: str = "p2p",
    merge: bool = True,
) -> Prediction:
    """End-to-end Stage 2+3 prediction for a synchronous reconfiguration."""
    ns, nt = plan.n_sources, plan.n_targets
    spawned = nt if not merge else max(0, nt - ns)
    nodes = math.ceil(spawned / cores_per_node) if spawned else 0
    t_spawn = predict_spawn(spawn, spawned, nodes)
    if merge and nt != ns:
        t_spawn += spawn.merge_cost
    if method == "p2p":
        t_redist = predict_p2p_redistribution(plan, bytes_per_row, fabric, merge)
    elif method == "col":
        t_redist = predict_pairwise_alltoallv(plan, bytes_per_row, fabric, merge)
    elif method == "rma":
        t_redist = predict_rma_redistribution(plan, bytes_per_row, fabric, merge)
    else:
        raise ValueError(
            f"unknown method {method!r}; use 'p2p', 'col' or 'rma'"
        )
    return Prediction(spawn=t_spawn, redistribution=t_redist)
