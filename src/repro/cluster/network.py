"""Flow-level network model with max-min fair bandwidth sharing.

Messages become *flows* over a route of :class:`Link` objects (typically the
sender's NIC-up link and the receiver's NIC-down link; intra-node copies use
the node's memory link).  Whenever the set of active flows changes, rates are
re-allocated with the classic *progressive filling* algorithm, which yields
the max-min fair allocation; flow completions are then rescheduled.

This reproduces the first-order contention behaviour that differentiates the
paper's Ethernet (10 Gb/s) and Infiniband (100 Gb/s) results: concurrent
redistribution and application traffic squeeze each other through the same
NICs, and serialized collective algorithms (pairwise exchange) occupy links
one peer at a time.

Performance notes (PR 1)
------------------------
The allocator is the simulation's hottest path: the seed implementation
recomputed progressive filling over *all* links of the machine on *every*
flow activation and completion.  This version is incremental:

* **Touched-links only.**  :meth:`Network._max_min_allocate` builds compact
  numpy ``remaining``/``counts`` arrays over just the links that carry at
  least one active flow (a machine has ``3 * n_nodes (+1)`` links; an
  allocation typically touches 2-6 of them).
* **Vectorized filling.**  Each progressive-filling round computes the
  per-link fair share, picks the bottleneck and updates remaining capacity
  and flow counts with numpy primitives whose arithmetic *order* mirrors
  the reference loop, so rates are bit-identical to the kept-as-oracle
  :func:`max_min_reference`.
* **Shape fast paths.**  :meth:`_activate`/:meth:`_on_completion` skip the
  allocation entirely when the touched links are private to the
  activating/retiring flows (the flow forms its own max-min component, so
  no other rate can change).  Per-link flow counts are maintained
  incrementally (``Link.nflows``) to make that test O(route length).
* **Batched advance.**  :meth:`_advance` updates ``bytes_left`` through a
  numpy rates/bytes-left view once the active set is large.

Setting ``debug_invariants=True`` re-runs the reference allocator after
every rate update and asserts (a) no link capacity is exceeded and (b) the
incremental rates match the oracle.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Sequence

import numpy as np

from ..simulate.core import Simulator
from ..simulate.events import SimEvent

__all__ = ["Link", "Flow", "Network", "max_min_reference"]

_EPS_BYTES = 1e-6
#: remaining-transfer-time below which a flow counts as finished.  Guards
#: against a float livelock: when ``bytes_left/rate`` drops under the ULP of
#: ``sim.now``, the clock cannot advance and byte-based epsilons alone would
#: respin the completion event forever.
_EPS_SECONDS = 1e-12

#: active-flow count above which :meth:`Network._advance` switches from the
#: per-flow Python loop to the numpy batched update.
_ADVANCE_VECTOR_THRESHOLD = 32


class Link:
    """A unidirectional capacity: ``capacity`` bytes/second."""

    __slots__ = ("link_id", "name", "capacity", "flows", "nflows")

    def __init__(self, link_id: int, name: str, capacity: float):
        if capacity <= 0 or not math.isfinite(capacity):
            raise ValueError(f"link capacity must be finite and > 0, got {capacity}")
        self.link_id = link_id
        self.name = name
        self.capacity = capacity
        self.flows: set["Flow"] = set()
        #: incrementally maintained ``len(self.flows)`` (kept by
        #: :meth:`Network._activate`/:meth:`Network._retire`; used by the
        #: allocation fast paths without touching the set object).
        self.nflows = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.capacity:.3g}B/s nflows={len(self.flows)}>"


class Flow:
    """One in-flight message: ``size`` bytes over ``route`` links."""

    __slots__ = ("flow_id", "route", "bytes_left", "rate", "done", "label")

    _ids = itertools.count()

    def __init__(self, route: Sequence[Link], size: float, done: SimEvent, label: str):
        self.flow_id = next(Flow._ids)
        self.route = tuple(route)
        self.bytes_left = float(size)
        self.rate = 0.0
        self.done = done
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Flow {self.label} left={self.bytes_left:.3g}B rate={self.rate:.3g}>"


def max_min_reference(active, links) -> Dict[Flow, float]:
    """Reference progressive filling (the seed implementation), as an oracle.

    Pure function: returns ``{flow: rate}`` without mutating the flows.
    Iterates *all* ``links`` every round — O(rounds x links x flows) — which
    is exactly why the production allocator is incremental; it is kept
    verbatim for the equivalence property tests and the debug invariant
    mode.
    """
    active = list(active)
    unfrozen = set(active)
    remaining = {l.link_id: l.capacity for l in links}
    counts = {
        l.link_id: sum(1 for f in l.flows if f in unfrozen) for l in links
    }
    by_id = {l.link_id: l for l in links}
    rates: Dict[Flow, float] = {f: 0.0 for f in active}
    while unfrozen:
        bottleneck_id = None
        bottleneck_share = math.inf
        for lid, cnt in counts.items():
            if cnt <= 0:
                continue
            share = remaining[lid] / cnt
            if share < bottleneck_share:
                bottleneck_share = share
                bottleneck_id = lid
        if bottleneck_id is None:
            break
        bottleneck = by_id[bottleneck_id]
        frozen_now = [f for f in bottleneck.flows if f in unfrozen]
        for f in frozen_now:
            rates[f] = bottleneck_share
            unfrozen.discard(f)
            for link in f.route:
                remaining[link.link_id] -= bottleneck_share
                counts[link.link_id] -= 1
        for lid in list(remaining):
            if remaining[lid] < 0:
                remaining[lid] = 0.0
    return rates


class Network:
    """Container for links and active flows; owns rate allocation.

    Parameters
    ----------
    sim:
        The simulator (for time and completion scheduling).
    debug_invariants:
        When True, every rate update is checked against the reference
        allocator (:func:`max_min_reference`) and link-capacity feasibility.
        Slow; meant for tests and debugging, not sweeps.
    """

    def __init__(self, sim: Simulator, debug_invariants: bool = False):
        self.sim = sim
        self._links: dict[int, Link] = {}
        self._link_ids = itertools.count()
        self._active: set[Flow] = set()
        self._last_update = sim.now
        self._completion_item = None
        #: total bytes ever carried, for reporting
        self.bytes_carried = 0.0
        self.debug_invariants = debug_invariants
        #: observability counters: full progressive-filling runs vs. rate
        #: updates resolved by the incremental fast paths.
        self.reallocations = 0
        self.fast_path_hits = 0

    # ----------------------------------------------------------------- links
    def add_link(self, name: str, capacity: float) -> Link:
        link = Link(next(self._link_ids), name, capacity)
        self._links[link.link_id] = link
        return link

    def set_link_capacity(self, link: Link, capacity: float) -> None:
        """Change a link's capacity mid-run (fault layer: degradation/flap).

        Byte accounting of every active flow is settled at the old rates
        first, then the whole allocation is recomputed — capacity changes
        invalidate the incremental fast paths, so this always runs the full
        progressive filling (it is a rare, fault-driven event).
        """
        if link.link_id not in self._links:
            raise ValueError(f"{link!r} does not belong to this network")
        if capacity <= 0 or not math.isfinite(capacity):
            raise ValueError(f"link capacity must be finite and > 0, got {capacity}")
        self._advance()
        link.capacity = capacity
        if self._active:
            self._reallocate_and_reschedule()

    @property
    def links(self) -> list[Link]:
        return list(self._links.values())

    @property
    def active_flows(self) -> list[Flow]:
        return list(self._active)

    # ----------------------------------------------------------------- flows
    def start_flow(
        self,
        route: Sequence[Link],
        size: float,
        latency: float = 0.0,
        label: str = "",
    ) -> SimEvent:
        """Inject a message; returns an event triggered at delivery time.

        ``latency`` is a fixed pipeline delay before the flow starts eating
        bandwidth (wire + protocol latency).  Zero-byte messages complete
        after the latency alone.
        """
        if size < 0 or not math.isfinite(size):
            raise ValueError(f"flow size must be finite and >= 0, got {size}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        for link in route:
            if link.link_id not in self._links:
                raise ValueError(f"{link!r} does not belong to this network")
        done = self.sim.event(name=f"flow:{label or size}")
        self.bytes_carried += size
        if size == 0:
            self.sim.schedule(latency, lambda: done.trigger(None))
            return done
        flow = Flow(route, size, done, label=label or f"flow{Flow._ids}")
        if latency > 0:
            self.sim.schedule(latency, lambda: self._activate(flow))
        else:
            self._activate(flow)
        return done

    def _activate(self, flow: Flow) -> None:
        self._advance()
        # Fast path: the new flow's links carry no other flow, so it forms
        # its own max-min component — every other rate is unchanged and the
        # new flow gets the minimum capacity along its route (exactly what
        # progressive filling would assign).
        fast = all(l.nflows == 0 for l in flow.route)
        self._active.add(flow)
        for link in flow.route:
            link.flows.add(flow)
            link.nflows += 1
        if fast:
            flow.rate = min(l.capacity for l in flow.route)
            self.fast_path_hits += 1
            if self.debug_invariants:
                self._debug_verify("activate-fast")
            self._reschedule_completion()
        else:
            self._reallocate_and_reschedule()

    def _retire(self, flow: Flow) -> None:
        self._active.discard(flow)
        for link in flow.route:
            link.flows.discard(flow)
            link.nflows -= 1

    # ------------------------------------------------------------ allocation
    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            active = self._active
            if len(active) >= _ADVANCE_VECTOR_THRESHOLD:
                flows = list(active)
                n = len(flows)
                bytes_left = np.fromiter(
                    (f.bytes_left for f in flows), dtype=np.float64, count=n
                )
                rates = np.fromiter(
                    (f.rate for f in flows), dtype=np.float64, count=n
                )
                bytes_left -= dt * rates
                for f, b in zip(flows, bytes_left.tolist()):
                    f.bytes_left = b
            else:
                for flow in active:
                    flow.bytes_left -= dt * flow.rate
        self._last_update = now

    def _max_min_allocate(self) -> None:
        """Progressive filling: repeatedly saturate the most-contended link.

        Vectorized over the *touched* links only; numerically identical to
        :func:`max_min_reference` (same bottleneck order, same subtraction
        sequence).
        """
        active = self._active
        if not active:
            return
        self.reallocations += 1
        if len(active) == 1:
            f = next(iter(active))
            # Single component of one flow: reference filling freezes it at
            # the minimum capacity/1 across its route.
            f.rate = min(l.capacity for l in f.route)
            return

        # Flow enumeration order does not need to be canonicalized: within a
        # progressive-filling round every frozen flow subtracts the *same*
        # share value, and repeated subtraction of one value is
        # order-independent in IEEE arithmetic, so the resulting rates are
        # identical for any iteration order over ``active``.  Only the
        # *link* scan order matters (first-min tie-breaking), which is why
        # the touched index below is sorted by link_id — the creation order
        # the reference sees via ``self._links``.
        flows = list(active)
        n = len(flows)
        # Compact index over touched links, in link_id order (matches the
        # reference's all-links dict order for bottleneck tie-breaking).
        touched: dict[int, Link] = {}
        for f in flows:
            for l in f.route:
                touched[l.link_id] = l
        lids = sorted(touched)
        m = len(lids)
        if m <= 128:
            # Few touched links (the common case: contention confined to a
            # node's uplinks) is faster in plain Python than through numpy's
            # per-call dispatch — the per-round cost is O(m) in both paths,
            # and numpy's fixed per-op overhead only amortizes once the
            # bottleneck scan covers hundreds of links.  This path *is* the
            # reference algorithm, restricted to the touched links (links
            # without flows can never be bottlenecks, so the restriction is
            # exact), hence trivially bit-compatible.
            self._allocate_small(touched, lids)
            return
        index = {lid: i for i, lid in enumerate(lids)}
        remaining = np.fromiter(
            (touched[lid].capacity for lid in lids), dtype=np.float64, count=m
        )
        counts = np.zeros(m, dtype=np.int64)
        # Per-flow route indices, stored CSR-style (one flat array + offset
        # table) so a whole round's subtractions batch into two
        # ``np.subtract.at`` calls instead of two per flow.
        flat: list[int] = []
        offsets = [0]
        members: list[list[int]] = [[] for _ in range(m)]
        for fi, f in enumerate(flows):
            idx = [index[l.link_id] for l in f.route]
            flat.extend(idx)
            offsets.append(len(flat))
            # link.flows is a set, so each flow counts once per link even if
            # the route listed it twice (dict.fromkeys: dedup in first-seen
            # order, keeping member iteration deterministic).
            for j in dict.fromkeys(idx):
                members[j].append(fi)
                counts[j] += 1
        flat_idx = np.array(flat, dtype=np.int64)

        rates = [0.0] * n
        unfrozen = [True] * n
        n_unfrozen = n
        inf = math.inf
        shares = np.empty(m, dtype=np.float64)
        while n_unfrozen > 0:
            np.divide(remaining, counts, out=shares, where=counts > 0)
            shares[counts <= 0] = inf
            b = int(np.argmin(shares))
            if shares[b] == inf:
                break
            # Recompute the scalar exactly as the reference does; float()
            # keeps numpy scalars out of the simulation (they would slow
            # every downstream arithmetic and change CSV reprs).
            share = float(remaining[b]) / int(counts[b])
            frozen_now = [fi for fi in members[b] if unfrozen[fi]]
            for fi in frozen_now:
                rates[fi] = share
                unfrozen[fi] = False
            n_unfrozen -= len(frozen_now)
            # One unbuffered scatter for the whole round.  subtract.at
            # applies repeated indices sequentially in list order, i.e. the
            # exact per-route-occurrence subtraction sequence the reference
            # performs flow by flow — bit-identical results.
            if len(frozen_now) == 1:
                fi = frozen_now[0]
                idxcat = flat_idx[offsets[fi]:offsets[fi + 1]]
            else:
                idxcat = np.concatenate(
                    [flat_idx[offsets[fi]:offsets[fi + 1]] for fi in frozen_now]
                )
            np.subtract.at(remaining, idxcat, share)
            np.subtract.at(counts, idxcat, 1)
            np.maximum(remaining, 0.0, out=remaining)
        for fi, f in enumerate(flows):
            f.rate = rates[fi]

    def _allocate_small(self, touched: dict, lids) -> None:
        """Progressive filling over the touched links only, seeded from
        the incrementally maintained per-link flow counts.

        Bit-identical to :func:`max_min_reference` on the restricted link
        set, but sidesteps its two scaling sins (measured at 0.956x vs
        the oracle on saturated 64-link fillings before this rework):

        * **counts init** — the reference recounts membership per link
          with an O(links x flows) scan; every active flow is unfrozen at
          round zero, so ``len(link.flows)`` already *is* that count.
        * **clamping** — the reference rescans all ``remaining`` entries
          after every round; only the entries just subtracted from can
          have gone negative, so clamping inline at the subtraction is
          equivalent (shares are >= 0: once an entry would clamp, both
          paths pin it to 0.0 for every later read) and O(route) instead
          of O(links).

        Links are scanned in link_id (creation) order, matching the
        reference's all-links dict order for bottleneck tie-breaking;
        within a round every frozen flow subtracts the *same* share, so
        the ``link.flows`` set iteration order cannot leak into rates.
        """
        active = self._active
        unfrozen = set(active)
        remaining = {lid: touched[lid].capacity for lid in lids}
        counts = {lid: len(touched[lid].flows) for lid in lids}
        inf = math.inf
        while unfrozen:
            b_lid = -1
            b_share = inf
            for lid in lids:
                cnt = counts[lid]
                if cnt > 0:
                    share = remaining[lid] / cnt
                    if share < b_share:
                        b_share = share
                        b_lid = lid
            if b_lid < 0:
                break
            for f in touched[b_lid].flows:
                if f not in unfrozen:
                    continue
                f.rate = b_share
                unfrozen.discard(f)
                for link in f.route:
                    lid2 = link.link_id
                    r = remaining[lid2] - b_share
                    remaining[lid2] = r if r > 0.0 else 0.0
                    counts[lid2] -= 1
        for f in unfrozen:  # routeless flows: the reference leaves them at 0
            f.rate = 0.0

    def _reallocate_and_reschedule(self) -> None:
        self._max_min_allocate()
        if self.debug_invariants:
            self._debug_verify("reallocate")
        self._reschedule_completion()

    def _reschedule_completion(self) -> None:
        if self._completion_item is not None:
            self._completion_item.cancelled = True
            self._completion_item = None
        if not self._active:
            return
        soonest = math.inf
        for f in self._active:
            if f.rate > 0:
                remaining = f.bytes_left
                if remaining < 0.0:
                    remaining = 0.0
                t = remaining / f.rate
                if t < soonest:
                    soonest = t
        if not math.isfinite(soonest):
            raise RuntimeError(
                "active flows with zero allocated rate: "
                + ", ".join(f.label for f in self._active if f.rate <= 0)
            )
        self._completion_item = self.sim.schedule(soonest, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_item = None
        self._advance()
        # Sorted by flow_id: completion (and therefore waiter-resumption)
        # order must not depend on set iteration order, which hashes object
        # addresses and thus varies with *process history* — run N in a
        # process would otherwise differ from the same run in a fresh
        # process, breaking parallel/sequential sweep equivalence.
        finished = sorted(
            (
                f
                for f in self._active
                if f.bytes_left <= _EPS_BYTES
                or (f.rate > 0 and f.bytes_left / f.rate <= _EPS_SECONDS)
            ),
            key=lambda f: f.flow_id,
        )
        if not finished:
            # Stale wakeup: the flow set (and hence every rate) is
            # unchanged, so a fresh progressive filling would recompute the
            # very same rates — just reschedule.
            self.fast_path_hits += 1
            self._reschedule_completion()
            return
        for f in finished:
            self._retire(f)
        # Fast path: all links the finished flows used are now flow-free, so
        # the survivors' max-min components are untouched and their rates
        # remain valid.
        if all(l.nflows == 0 for f in finished for l in f.route):
            self.fast_path_hits += 1
            if self.debug_invariants:
                self._debug_verify("retire-fast")
            self._reschedule_completion()
        else:
            self._reallocate_and_reschedule()
        for f in finished:
            f.done.trigger(None)

    # ------------------------------------------------------------ invariants
    def _debug_verify(self, where: str) -> None:
        """Assert feasibility + equivalence with the reference allocator."""
        links = list(self._links.values())
        for link in links:
            total = sum(f.rate for f in link.flows)
            if total > link.capacity * (1 + 1e-9):
                raise AssertionError(
                    f"[{where}] link {link.name} over capacity: "
                    f"{total} > {link.capacity}"
                )
            if link.nflows != len(link.flows):
                raise AssertionError(
                    f"[{where}] link {link.name} count drift: "
                    f"nflows={link.nflows} len(flows)={len(link.flows)}"
                )
        oracle = max_min_reference(self._active, links)
        for f, want in oracle.items():
            got = f.rate
            tol = 1e-9 * max(1.0, abs(want))
            if abs(got - want) > tol:
                raise AssertionError(
                    f"[{where}] flow {f.label}: incremental rate {got} != "
                    f"reference {want}"
                )
