"""Flow-level network model with max-min fair bandwidth sharing.

Messages become *flows* over a route of :class:`Link` objects (typically the
sender's NIC-up link and the receiver's NIC-down link; intra-node copies use
the node's memory link).  Whenever the set of active flows changes, rates are
re-allocated with the classic *progressive filling* algorithm, which yields
the max-min fair allocation; the network's one owner-held completion timer
(:meth:`repro.simulate.core.Simulator.set_timer`) is then re-armed for the
earliest-finishing flow.

This reproduces the first-order contention behaviour that differentiates the
paper's Ethernet (10 Gb/s) and Infiniband (100 Gb/s) results: concurrent
redistribution and application traffic squeeze each other through the same
NICs, and serialized collective algorithms (pairwise exchange) occupy links
one peer at a time.

Allocator notes
---------------
The allocator is the simulation's hottest path, so it does the least work
that still yields the reference rates:

* **Touched links only.**  :meth:`Network._max_min_allocate` runs
  progressive filling over just the links that carry at least one active
  flow (a machine has ``3 * n_nodes (+1)`` links; an allocation typically
  touches 2-6 of them, at most 12 on the paper machine).  Links without
  flows can never be bottlenecks, so the restriction is exact.
* **Shape fast paths.**  :meth:`_activate`/:meth:`_on_timer` skip the
  allocation entirely when the touched links are private to the
  activating/retiring flows (the flow forms its own max-min component, so
  no other rate can change).

Setting ``debug_invariants=True`` re-runs the reference allocator
(:func:`max_min_reference`) after every rate update and asserts (a) no link
capacity is exceeded and (b) the production rates match the oracle.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, Sequence

from ..simulate.core import Simulator
from ..simulate.events import SimEvent, label_text

__all__ = ["Link", "Flow", "Network", "max_min_reference"]

_EPS_BYTES = 1e-6
#: remaining-transfer-time below which a flow counts as finished.  Guards
#: against a float livelock: when ``bytes_left/rate`` drops under the ULP of
#: ``sim.now``, the clock cannot advance and byte-based epsilons alone would
#: respin the completion event forever.
_EPS_SECONDS = 1e-12


class Link:
    """A unidirectional capacity: ``capacity`` bytes/second."""

    __slots__ = ("link_id", "name", "capacity", "flows")

    def __init__(self, link_id: int, name: str, capacity: float):
        if capacity <= 0 or not math.isfinite(capacity):
            raise ValueError(f"link capacity must be finite and > 0, got {capacity}")
        self.link_id = link_id
        self.name = name
        self.capacity = capacity
        self.flows: set["Flow"] = set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.capacity:.3g}B/s flows={len(self.flows)}>"


class Flow:
    """One in-flight message: ``size`` bytes over ``route`` links."""

    __slots__ = ("flow_id", "route", "bytes_left", "rate", "done", "_label")

    _ids = itertools.count()

    def __init__(self, route: Sequence[Link], size: float, done: SimEvent, label):
        self.flow_id = next(Flow._ids)
        self.route = tuple(route)
        self.bytes_left = float(size)
        self.rate = 0.0
        self.done = done
        #: raw label (see :func:`repro.simulate.events.label_text`)
        self._label = label or ("flow", self.flow_id)

    @property
    def label(self) -> str:
        return label_text(self._label)

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
        #: owner-timer seq of the pending earliest completion (-1 = none)
        self._timer_seq = -1
        #: total bytes ever carried, for reporting
        self.bytes_carried = 0.0
        self.debug_invariants = debug_invariants
        #: observability counters: full progressive-filling runs vs. rate
        #: updates resolved by the incremental fast paths.
        self.reallocations = 0
        self.fast_path_hits = 0
        #: subscribed :class:`repro.obs.Observer` objects (``on_flow``,
        #: ``on_flow_active``); empty unless one is attached.
        self.observers = ()

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
        label: Any = "",
    ) -> SimEvent:
        """Inject a message; returns an event triggered at delivery time.

        ``latency`` is a fixed pipeline delay before the flow starts eating
        bandwidth (wire + protocol latency).  Zero-byte messages complete
        after the latency alone.  ``label`` is a string or a raw label tuple
        (:func:`repro.simulate.events.label_text`), formatted only when read.
        """
        if size < 0 or not math.isfinite(size):
            raise ValueError(f"flow size must be finite and >= 0, got {size}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        for link in route:
            if link.link_id not in self._links:
                raise ValueError(f"{link!r} does not belong to this network")
        done = SimEvent(self.sim, ("flow:", label or size))
        if self.observers:
            for o in self.observers:
                o.on_flow(route, size, label, done)
        self.bytes_carried += size
        if size == 0:
            self.sim.schedule(latency, lambda: done.trigger(None))
            return done
        flow = Flow(route, size, done, label)
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
        fast = not any(l.flows for l in flow.route)
        self._active.add(flow)
        for link in flow.route:
            link.flows.add(flow)
        if fast:
            flow.rate = min(l.capacity for l in flow.route)
            self.fast_path_hits += 1
            if self.debug_invariants:
                self._debug_verify("activate-fast")
            self._reschedule_completion()
        else:
            self._reallocate_and_reschedule()
        if self.observers:
            for o in self.observers:
                o.on_flow_active(flow)

    def _retire(self, flow: Flow) -> None:
        self._active.discard(flow)
        for link in flow.route:
            link.flows.discard(flow)

    # ------------------------------------------------------------ allocation
    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._active:
                flow.bytes_left -= dt * flow.rate
        self._last_update = now

    def _max_min_allocate(self) -> None:
        """Progressive filling: repeatedly saturate the most-contended link.

        This is :func:`max_min_reference` restricted to the *touched* links
        (links without flows can never be bottlenecks, so the restriction
        is exact) and bit-identical to it, minus its two scaling sins:

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
        reference's all-links dict order for bottleneck first-min
        tie-breaking.  Flow order needs no canonicalizing: within a round
        every frozen flow subtracts the *same* share, and repeated
        subtraction of one value is order-independent in IEEE arithmetic,
        so the ``link.flows`` set iteration order cannot leak into rates.
        """
        active = self._active
        if not active:
            return
        self.reallocations += 1
        touched: dict[int, Link] = {}
        for f in active:
            for l in f.route:
                touched[l.link_id] = l
        lids = sorted(touched)
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
        if not self._active:
            self._timer_seq = -1
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
        self.sim.set_timer(self, soonest)

    def _on_timer(self) -> None:
        """The earliest flow completion is due (owner timer)."""
        self._timer_seq = -1
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
        if not any(l.flows for f in finished for l in f.route):
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
        oracle = max_min_reference(self._active, links)
        for f, want in oracle.items():
            got = f.rate
            tol = 1e-9 * max(1.0, abs(want))
            if abs(got - want) > tol:
                raise AssertionError(
                    f"[{where}] flow {f.label}: incremental rate {got} != "
                    f"reference {want}"
                )
