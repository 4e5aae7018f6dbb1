"""Collective algorithms over simulated P2P messaging.

Algorithms mirror MPICH's choices where the paper depends on them:

* ``barrier`` — dissemination (⌈log₂p⌉ rounds);
* ``bcast`` — binomial tree;
* ``allreduce`` — recursive doubling with the standard non-power-of-two fold;
* ``allgatherv`` — ring (p−1 steps), the large-message MPICH schedule (this
  is the per-iteration collective of the emulated CG's SpMV);
* ``alltoall`` — Bruck (⌈log₂p⌉ rounds) on intra-communicators, direct
  non-blocking exchange on inter-communicators;
* ``alltoallv`` (blocking) — **serialized pairwise exchange**, the schedule
  the paper identifies as the reason blocking inter-communicator
  ``MPI_Alltoallv`` (Baseline COL-S) underperforms (§4.4.2);
* ``ialltoallv`` / ``ialltoall`` — post-everything non-blocking variants
  whose rendezvous traffic only advances during progress windows.

Every function is a generator subroutine taking the calling rank's
:class:`~repro.smpi.context.RankCtx` first.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from .communicator import Communicator
from .datatypes import copy_payload
from .requests import MultiRequest

__all__ = [
    "op_sum", "op_max", "op_min", "op_prod",
    "barrier", "bcast", "allreduce", "allgatherv",
    "alltoall", "ialltoall", "alltoallv_pairwise", "ialltoallv",
    "gather", "scatter", "reduce", "exscan",
]


# ----------------------------------------------------------- reduction ops
def op_sum(a, b):
    """Elementwise/scalar sum (MPI_SUM)."""
    return a + b


def op_prod(a, b):
    """Elementwise/scalar product (MPI_PROD)."""
    return a * b


def op_max(a, b):
    """Elementwise/scalar max (MPI_MAX)."""
    import numpy as np

    return np.maximum(a, b) if hasattr(a, "shape") or hasattr(b, "shape") else max(a, b)


def op_min(a, b):
    """Elementwise/scalar min (MPI_MIN)."""
    import numpy as np

    return np.minimum(a, b) if hasattr(a, "shape") or hasattr(b, "shape") else min(a, b)


# ----------------------------------------------------------------- barrier
def barrier(ctx, comm: Communicator):
    """Dissemination barrier: round k exchanges a token at distance 2^k."""
    if comm.is_inter:
        raise ValueError("barrier is only implemented for intra-communicators")
    p = comm.size
    if p == 1:
        return
    r = ctx.rank_in(comm)
    base = ctx.next_coll_tag(comm)
    k = 0
    dist = 1
    while dist < p:
        dst = (r + dist) % p
        src = (r - dist) % p
        yield from ctx.sendrecv(None, dst, src, tag=base - k, comm=comm, nbytes=1)
        dist <<= 1
        k += 1


# ------------------------------------------------------------------- bcast
def bcast(ctx, value: Any, root: int, comm: Communicator):
    """Binomial-tree broadcast; returns the value on every rank."""
    if comm.is_inter:
        raise ValueError("bcast is only implemented for intra-communicators")
    p = comm.size
    r = ctx.rank_in(comm)
    if p == 1:
        return copy_payload(value)
    base = ctx.next_coll_tag(comm)
    vrank = (r - root) % p
    # Receive phase: climb bits until the one where my parent reaches me.
    mask = 1
    while mask < p:
        if vrank & mask:
            src = ((vrank - mask) + root) % p
            value = yield from ctx.recv(source=src, tag=base, comm=comm)
            break
        mask <<= 1
    # Send phase: forward to children at every lower bit position.
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            dst = ((vrank + mask) + root) % p
            yield from ctx.send(value, dst, tag=base, comm=comm)
        mask >>= 1
    return value


# --------------------------------------------------------------- allreduce
def allreduce(ctx, value: Any, op: Callable[[Any, Any], Any], comm: Communicator):
    """Recursive-doubling allreduce; combines in rank order so that
    non-commutative ops are deterministic."""
    if comm.is_inter:
        raise ValueError("allreduce is only implemented for intra-communicators")
    p = comm.size
    r = ctx.rank_in(comm)
    value = copy_payload(value)
    if p == 1:
        return value
    base = ctx.next_coll_tag(comm)
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2

    def combine(my_rank, other_rank, mine, other):
        return op(other, mine) if other_rank < my_rank else op(mine, other)

    newrank = -1
    if r < 2 * rem:
        if r % 2 == 0:
            yield from ctx.send(value, r + 1, tag=base, comm=comm)
        else:
            other = yield from ctx.recv(source=r - 1, tag=base, comm=comm)
            value = combine(r, r - 1, value, other)
            newrank = r // 2
    else:
        newrank = r - rem
    if newrank != -1:
        mask = 1
        phase = 1
        while mask < pof2:
            partner_new = newrank ^ mask
            partner = (
                partner_new * 2 + 1 if partner_new < rem else partner_new + rem
            )
            other = yield from ctx.sendrecv(
                value, partner, partner, tag=base - phase, comm=comm
            )
            value = combine(r, partner, value, other)
            mask <<= 1
            phase += 1
    # Scatter the result back to the folded-out ranks.
    if r < 2 * rem:
        if r % 2 == 0:
            value = yield from ctx.recv(source=r + 1, tag=base - 32, comm=comm)
        else:
            yield from ctx.send(value, r - 1, tag=base - 32, comm=comm)
    return value


# -------------------------------------------------------------- allgatherv
def allgatherv(ctx, block: Any, comm: Communicator):
    """Ring allgatherv; returns the list of every rank's block, by rank.

    p−1 steps; step s forwards block ``(r−s) mod p`` to the right neighbour.
    """
    if comm.is_inter:
        raise ValueError("allgatherv is only implemented for intra-communicators")
    p = comm.size
    r = ctx.rank_in(comm)
    blocks: list[Any] = [None] * p
    blocks[r] = copy_payload(block)
    if p == 1:
        return blocks
    base = ctx.next_coll_tag(comm)
    right = (r + 1) % p
    left = (r - 1) % p
    for s in range(p - 1):
        send_idx = (r - s) % p
        recv_idx = (r - s - 1) % p
        data = yield from ctx.sendrecv(
            blocks[send_idx], right, left, tag=base - s, comm=comm
        )
        blocks[recv_idx] = data
    return blocks


# ---------------------------------------------------------------- alltoall
def alltoall(ctx, sendlist: Sequence[Any], comm: Communicator, algorithm: str = "auto"):
    """All-to-all of one item per peer; returns the received list by source.

    Intra-communicators default to Bruck (⌈log₂p⌉ aggregated rounds, the
    MPICH small-message schedule — this is the size-exchange step of the
    paper's COL redistribution, Algorithm 2).  Inter-communicators and
    ``algorithm="direct"`` post the full non-blocking exchange.
    """
    if len(sendlist) != comm.remote_size:
        raise ValueError(
            f"alltoall needs one item per peer: got {len(sendlist)}, "
            f"expected {comm.remote_size}"
        )
    if algorithm not in ("auto", "bruck", "direct"):
        raise ValueError(f"unknown alltoall algorithm {algorithm!r}")
    if comm.is_inter or algorithm == "direct" or comm.size <= 2:
        result = yield from _alltoall_direct(ctx, sendlist, comm)
        return result
    result = yield from _alltoall_bruck(ctx, sendlist, comm)
    return result


def _alltoall_direct(ctx, sendlist, comm: Communicator):
    base = ctx.next_coll_tag(comm)
    me_as_peer = _self_peer_rank(ctx, comm)
    reqs = []
    recv_reqs = {}
    for peer in range(comm.remote_size):
        if peer == me_as_peer:
            continue
        rreq = yield from ctx.irecv(source=_peer_seen_rank(ctx, comm, peer), tag=base, comm=comm)
        recv_reqs[peer] = rreq
        reqs.append(rreq)
    for peer in range(comm.remote_size):
        if peer == me_as_peer:
            continue
        sreq = yield from ctx.isend(sendlist[peer], peer, tag=base, comm=comm)
        reqs.append(sreq)
    yield from ctx.waitall(reqs)
    result = [None] * comm.remote_size
    for peer, rreq in recv_reqs.items():
        result[rreq.status.source] = rreq.data
    if me_as_peer is not None:
        result[me_as_peer] = copy_payload(sendlist[me_as_peer])
    return result


def _self_peer_rank(ctx, comm: Communicator) -> Optional[int]:
    """My own index in the peer numbering, or None on an inter-comm."""
    if comm.is_inter:
        return None
    return ctx.rank_in(comm)


def _peer_seen_rank(ctx, comm: Communicator, peer: int) -> int:
    """Status.source value messages from ``peer`` will carry.

    Peers stamp their *own local rank*; for both intra and inter comms that
    equals the peer index, so this is the identity — kept as a function to
    document the invariant.
    """
    return peer


def _alltoall_bruck(ctx, sendlist, comm: Communicator):
    p = comm.size
    r = ctx.rank_in(comm)
    base = ctx.next_coll_tag(comm)
    # Phase 1: local rotation — slot j holds data destined to (r+j) % p.
    temp = [copy_payload(sendlist[(r + j) % p]) for j in range(p)]
    # Phase 2: log rounds; round k ships every slot with bit k set.
    dist = 1
    k = 0
    while dist < p:
        slots = [j for j in range(1, p) if j & dist]
        payload = [(j, temp[j]) for j in slots]
        dst = (r + dist) % p
        src = (r - dist) % p
        got = yield from ctx.sendrecv(payload, dst, src, tag=base - k, comm=comm)
        for j, item in got:
            temp[j] = item
        dist <<= 1
        k += 1
    # Phase 3: slot j now holds the block from rank (r - j) % p.
    result = [None] * p
    for j in range(p):
        result[(r - j) % p] = temp[j]
    return result


def ialltoall(ctx, sendlist, comm: Communicator):
    """Non-blocking direct all-to-all; returns ``(MultiRequest, result)``.

    ``result`` is a list that fills in as messages land; read it only after
    the request completes.
    """
    if len(sendlist) != comm.remote_size:
        raise ValueError("ialltoall needs one item per peer")
    base = ctx.next_coll_tag(comm)
    me_as_peer = _self_peer_rank(ctx, comm)
    result: list[Any] = [None] * comm.remote_size
    reqs = []
    for peer in range(comm.remote_size):
        if peer == me_as_peer:
            result[peer] = copy_payload(sendlist[peer])
            continue
        rreq = yield from ctx.irecv(source=peer, tag=base, comm=comm)
        _fill_on_done(result, rreq)
        reqs.append(rreq)
    for peer in range(comm.remote_size):
        if peer == me_as_peer:
            continue
        sreq = yield from ctx.isend(sendlist[peer], peer, tag=base, comm=comm)
        reqs.append(sreq)
    return MultiRequest(ctx.sim, reqs), result


def _fill_on_done(result, rreq) -> None:
    """Store ``rreq``'s payload under its source once it lands.  A failed
    receive has no status; its ``CommFailedError`` belongs to the waiter."""
    def fill(ev) -> None:
        if not ev.failed:
            result[rreq.status.source] = rreq.data

    rreq.done.add_callback(fill)


# --------------------------------------------------------------- alltoallv
def _pairwise_phases(ctx, comm: Communicator) -> tuple[int, int, int]:
    """(my pairwise index, #local indices, #remote indices) for the canonical
    phase schedule shared by both sides of the communicator."""
    r = ctx.rank_in(comm)
    return r, comm.size, comm.remote_size


def alltoallv_pairwise(
    ctx,
    send_map: dict[int, Any],
    recv_from: Sequence[int],
    comm: Communicator,
    nbytes_map: Optional[dict[int, int]] = None,
    label: str = "",
):
    """Blocking vector all-to-all with the serialized pairwise schedule.

    Phase ``i`` (of ``P = max(size, remote_size)``): send to peer
    ``(r+i) % P`` (if that peer exists), receive from ``(r-i) % P``
    (if it exists) — and *wait for both before the next phase*.  Zero-count
    pairs still execute their phase with an empty message, exactly like
    MPICH's pairwise ``MPI_Alltoallv``; this serialisation is what makes the
    blocking inter-communicator collective slow (paper §4.4.2).

    ``send_map`` maps peer rank -> payload (missing peers send empty);
    ``recv_from`` lists peer ranks expected to send non-empty data (used
    only to assemble the return dict — every peer is still synchronised).
    Returns dict ``src peer rank -> payload`` for non-empty receptions.
    """
    base = ctx.next_coll_tag(comm)
    san = ctx.world.sanitizer
    if san is not None:
        san.on_alltoallv(ctx, comm, base, send_map, recv_from)
    r = ctx.rank_in(comm)
    P = max(comm.size, comm.remote_size)
    me_as_peer = _self_peer_rank(ctx, comm)
    expected = set(recv_from)
    result: dict[int, Any] = {}
    for i in range(P):
        send_peer = (r + i) % P
        recv_peer = (r - i) % P
        if me_as_peer is not None and i == 0:
            # Self-exchange is a local memcpy, not a network phase.
            if me_as_peer in send_map:
                result[me_as_peer] = copy_payload(send_map[me_as_peer])
            continue
        reqs = []
        rreq = None
        if send_peer < comm.remote_size:
            payload = send_map.get(send_peer)
            nbytes = None
            if nbytes_map is not None and send_peer in nbytes_map:
                nbytes = nbytes_map[send_peer]
            sreq = yield from ctx.isend(
                payload, send_peer, tag=base - i, comm=comm, nbytes=nbytes, label=label
            )
            reqs.append(sreq)
        if recv_peer < comm.remote_size:
            rreq = yield from ctx.irecv(source=recv_peer, tag=base - i, comm=comm)
            reqs.append(rreq)
        if reqs:
            yield from ctx.waitall(reqs)
        if rreq is not None and rreq.data is not None and recv_peer in expected:
            result[recv_peer] = rreq.data
    return result


def ialltoallv(
    ctx,
    send_map: dict[int, Any],
    recv_from: Sequence[int],
    comm: Communicator,
    nbytes_map: Optional[dict[int, int]] = None,
    label: str = "",
):
    """Non-blocking vector all-to-all: post all sends/recvs at once.

    Returns ``(MultiRequest, results_dict)``.  Rendezvous-sized entries only
    stream while the caller holds progress windows (``testall``/waits) — the
    Algorithm-3 semantics.  Self-exchange is completed immediately.
    """
    base = ctx.next_coll_tag(comm)
    san = ctx.world.sanitizer
    if san is not None:
        san.on_alltoallv(ctx, comm, base, send_map, recv_from)
    me_as_peer = _self_peer_rank(ctx, comm)
    result: dict[int, Any] = {}
    reqs = []
    for src in recv_from:
        if src == me_as_peer:
            continue
        rreq = yield from ctx.irecv(source=src, tag=base, comm=comm)
        _fill_on_done(result, rreq)
        reqs.append(rreq)
    for dest, payload in send_map.items():
        if dest == me_as_peer:
            result[dest] = copy_payload(payload)
            continue
        nbytes = None
        if nbytes_map is not None and dest in nbytes_map:
            nbytes = nbytes_map[dest]
        sreq = yield from ctx.isend(
            payload, dest, tag=base, comm=comm, nbytes=nbytes, label=label
        )
        reqs.append(sreq)
    return MultiRequest(ctx.sim, reqs), result


# ----------------------------------------------------- rooted collectives
def gather(ctx, value: Any, root: int, comm: Communicator):
    """Gather one item per rank to ``root`` (binomial tree, bottom-up).

    Returns the list (by rank) at the root, ``None`` elsewhere.
    """
    if comm.is_inter:
        raise ValueError("gather is only implemented for intra-communicators")
    p = comm.size
    r = ctx.rank_in(comm)
    base = ctx.next_coll_tag(comm)
    vrank = (r - root) % p
    # Each node accumulates its subtree: children are at vrank + 2^k while
    # vrank's low bits are zero.
    bucket: dict[int, Any] = {vrank: copy_payload(value)}
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % p
            yield from ctx.send(bucket, parent, tag=base, comm=comm)
            return None
        child = vrank + mask
        if child < p:
            got = yield from ctx.recv(
                source=(child + root) % p, tag=base, comm=comm
            )
            bucket.update(got)
        mask <<= 1
    # Buckets are keyed by *virtual* rank; translate back to real ranks.
    return [bucket[(i - root) % p] for i in range(p)] if r == root else None


def scatter(ctx, values: Optional[Sequence[Any]], root: int, comm: Communicator):
    """Scatter one item per rank from ``root`` (binomial tree, top-down).

    ``values`` is read at the root only; every rank returns its item.
    """
    if comm.is_inter:
        raise ValueError("scatter is only implemented for intra-communicators")
    p = comm.size
    r = ctx.rank_in(comm)
    if r == root:
        if values is None or len(values) != p:
            raise ValueError(f"scatter root needs exactly {p} values")
    base = ctx.next_coll_tag(comm)
    vrank = (r - root) % p
    if r == root:
        bucket = {i: copy_payload(v) for i, v in enumerate(values)}
    else:
        # Receive my subtree's bucket from my parent.
        mask = 1
        while not (vrank & mask):
            mask <<= 1
        parent = ((vrank & ~mask) + root) % p
        bucket = yield from ctx.recv(source=parent, tag=base, comm=comm)
    # Forward each child its sub-bucket.
    mask = 1
    while mask < p:
        if vrank & mask:
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        child = vrank + mask
        if child < p:
            child_keys = {
                k for k in bucket
                if (k - root) % p >= child and (k - root) % p < child + mask
            }
            sub = {k: bucket.pop(k) for k in child_keys}
            yield from ctx.send(sub, (child + root) % p, tag=base, comm=comm)
        mask >>= 1
    return bucket[r]


def reduce(ctx, value: Any, op: Callable[[Any, Any], Any], root: int,
           comm: Communicator):
    """Reduce to ``root`` (gather + rank-ordered fold; deterministic for
    non-commutative ops).  Returns the result at the root, None elsewhere."""
    items = yield from gather(ctx, value, root, comm)
    if items is None:
        return None
    acc = items[0]
    for item in items[1:]:
        acc = op(acc, item)
    return acc


def exscan(ctx, value: Any, op: Callable[[Any, Any], Any], comm: Communicator):
    """Exclusive prefix reduction: rank r gets op-fold of ranks 0..r-1
    (None at rank 0) — the building block of distributed offsets."""
    if comm.is_inter:
        raise ValueError("exscan is only implemented for intra-communicators")
    p = comm.size
    r = ctx.rank_in(comm)
    base = ctx.next_coll_tag(comm)
    # Simple logarithmic exclusive scan (Hillis-Steele shape).
    acc = None          # fold of ranks [r-dist_covered, r)
    mine = copy_payload(value)
    carried = mine      # fold of ranks [r-dist_covered, r]
    dist = 1
    phase = 0
    while dist < p:
        sreq = None
        if r + dist < p:
            sreq = yield from ctx.isend(carried, r + dist, tag=base - phase, comm=comm)
        if r - dist >= 0:
            got = yield from ctx.recv(source=r - dist, tag=base - phase, comm=comm)
            acc = got if acc is None else op(got, acc)
            carried = op(got, carried)
        if sreq is not None:
            yield from ctx.wait(sreq)
        dist <<= 1
        phase += 1
    return acc
