"""The one observer seam of the stack, and the metrics probe on it.

The flow network, every CPU node and the MPI world carry an ``observers``
tuple, empty by default; each event site tests it once and calls the named
hook on every subscriber (see :class:`Observer` for the events).
:class:`MetricsProbe`, :class:`~repro.trace.Tracer` and
:class:`~repro.sanitize.Sanitizer` subscribe; every metric name the stack
emits is spelled in :class:`MetricsProbe`.  Its ``finalize()`` snapshots
the counters the layers keep always-on (allocator recompute counts,
per-label traffic, per-node busy core-seconds) and, given the run's
:class:`RunStats`, the per-stage reconfiguration breakdown rows and stage
spans (which :meth:`MetricsRegistry.feed_tracer` replays into Perfetto).
"""

from __future__ import annotations

from math import fsum
from typing import Optional

from .registry import MetricsRegistry

__all__ = ["Observer", "MetricsProbe"]


class Observer:
    """Base subscriber: every hook a no-op, one attach/detach pair.

    The events the stack emits, by emitter (arguments are the emitting
    objects; times are simulated seconds):

    * ``Network`` — ``on_flow(route, size, label, done)``: a flow started,
      ``done`` is its delivery event; ``on_flow_active(flow)``: a flow
      began to take bandwidth (rates were just reallocated).
    * ``Node`` — ``on_submit(node, on_done, label)``: compute was
      submitted, also to a failed node or with zero work; returns the
      completion callback the node keeps (a subscriber may wrap it).
      ``on_demand(node)``: after every submit, ``add_poller`` and
      ``remove_poller``.
    * ``MpiWorld``, point to point — ``on_message(msg, eager)`` per
      injected message; ``on_isend(ctx, comm, dest, tag, payload, req)``
      before injection; ``on_irecv(ctx, comm, source, tag, req)`` after
      posting; ``on_block(ctx, command, reqs)`` and ``on_unblock(ctx,
      command, t0)`` around every blocking call; ``on_progress_tick(ctx)``;
      ``on_alltoallv(ctx, comm, tag_base, send_map, recv_from)`` at both
      vector all-to-all entries; ``on_finalize(endpoint)`` when a rank
      closes.
    * ``MpiWorld``, one-sided — ``on_rma(kind)`` per put, get, lock,
      flush and unlock; ``on_rma_deferred()`` when a landing waits
      for its target to enter MPI; ``on_win_put(ctx, win, target_rank,
      payload, done)`` once the put is on the wire; ``on_win_lock(ctx,
      win, target_rank)`` at lock issue; ``on_win_lock_granted(win, t0)``
      when the epoch opens; ``on_win_flush(ctx, win, target_rank)`` after
      a flush wait; ``on_win_unlock(ctx, win, target_rank)`` before the
      epoch closes.
    * ``MpiWorld``, redistribution and recovery —
      ``on_redist_transfer(session, phase, nbytes)``;
      ``on_redist_phase(session, phase, t0)`` when a phase ends;
      ``on_redist_test(session, done)`` per ``test()``;
      ``on_memcpy_begin(session, lo, hi)`` / ``on_memcpy_end(session, lo,
      hi)`` around a self-copy window; ``on_recovery(policy,
      first_failure_at, label)`` when a reconfiguration recovered;
      ``on_fault(kind)`` per injected fault.

    ``attach(machine, world)`` subscribes to the machine's network and
    nodes and/or to the world; ``detach()`` removes this observer by
    identity, so observers may detach in any order.  One emitter carries
    at most one observer of each class.
    """

    machine = None
    world = None
    #: emitters this observer is subscribed to; ``None`` while detached.
    _targets: Optional[list] = None

    def attach(self, machine=None, world=None):
        """Subscribe to ``machine`` (network and nodes) and/or ``world``."""
        kind = type(self)
        if self._targets is not None:
            raise RuntimeError(f"{kind.__name__} already attached")
        targets = []
        if machine is not None:
            targets += [machine.network, *machine.nodes]
        if world is not None:
            targets.append(world)
        for t in targets:
            if any(type(o) is kind for o in t.observers):
                raise RuntimeError(
                    f"{type(t).__name__} already carries a {kind.__name__}"
                )
        for t in targets:
            t.observers += (self,)
        self.machine, self.world, self._targets = machine, world, targets
        return self

    def detach(self):
        """Unsubscribe from every emitter; recorded data is kept."""
        if self._targets is None:
            raise RuntimeError(f"{type(self).__name__} not attached")
        for t in self._targets:
            t.observers = tuple(o for o in t.observers if o is not self)
        self._targets = None
        return self

    # The hooks, in the order of the list above.
    def on_flow(self, route, size, label, done): pass
    def on_flow_active(self, flow): pass
    def on_submit(self, node, on_done, label): return on_done
    def on_demand(self, node): pass
    def on_message(self, msg, eager): pass
    def on_isend(self, ctx, comm, dest, tag, payload, req): pass
    def on_irecv(self, ctx, comm, source, tag, req): pass
    def on_block(self, ctx, command, reqs): pass
    def on_unblock(self, ctx, command, t0): pass
    def on_progress_tick(self, ctx): pass
    def on_alltoallv(self, ctx, comm, tag_base, send_map, recv_from): pass
    def on_finalize(self, endpoint): pass
    def on_rma(self, kind): pass
    def on_rma_deferred(self): pass
    def on_win_put(self, ctx, win, target_rank, payload, done): pass
    def on_win_lock(self, ctx, win, target_rank): pass
    def on_win_lock_granted(self, win, t0): pass
    def on_win_flush(self, ctx, win, target_rank): pass
    def on_win_unlock(self, ctx, win, target_rank): pass
    def on_redist_transfer(self, session, phase, nbytes): pass
    def on_redist_phase(self, session, phase, t0): pass
    def on_redist_test(self, session, done): pass
    def on_memcpy_begin(self, session, lo, hi): pass
    def on_memcpy_end(self, session, lo, hi): pass
    def on_recovery(self, policy, first_failure_at, label): pass
    def on_fault(self, kind): pass


class MetricsProbe(Observer):
    """Records one machine/world's metrics into a registry while attached."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._base: dict[str, float] = {}
        #: node -> (tasks counter, oversubscription gauge), bound at attach.
        self._nodes: dict = {}
        #: per-link, per-communicator and per-rank instruments, bound on
        #: first use so that no zero-valued key reaches ``metrics.json``.
        self._bound: dict = {}

    def attach(self, machine=None, world=None) -> "MetricsProbe":
        """Start recording ``machine`` (and optionally ``world``) metrics."""
        super().attach(machine, world)
        reg = self.registry
        if machine is not None:
            net = machine.network
            self._base = {
                "reallocations": net.reallocations,
                "fast_path_hits": net.fast_path_hits,
                "bytes_carried": net.bytes_carried,
            }
            for node in machine.nodes:
                self._nodes[node] = (
                    reg.counter("cluster.node.tasks", node=node.name),
                    reg.gauge("cluster.node.oversubscription", node=node.name),
                )
        return self

    # -------------------------------------------------------------- cluster
    def on_flow(self, route, size, label, done) -> None:
        bound = self._bound
        for link in route:
            pair = bound.get(("link", link))
            if pair is None:
                reg = self.registry
                pair = bound["link", link] = (
                    reg.counter("cluster.link.bytes", link=link.name),
                    reg.counter("cluster.link.flows", link=link.name),
                )
            pair[0].inc(size)
            pair[1].inc()
        self.registry.histogram("cluster.flow_nbytes").observe(size)

    def on_flow_active(self, flow) -> None:
        # Sampled right after each activation: rates have just been
        # (re)allocated, and a link's utilization only ever *rises* at
        # activations, so the per-link peak is exact.
        now = self.machine.sim.now
        bound = self._bound
        for link in flow.route:
            gauge = bound.get(("util", link))
            if gauge is None:
                gauge = bound["util", link] = self.registry.gauge(
                    "cluster.link.utilization", link=link.name
                )
            # fsum: ``link.flows`` is a set (iteration order follows object
            # addresses, which differ run-shape to run-shape); the exactly
            # rounded sum is permutation-independent, so the sampled
            # utilization stays byte-identical across sequential / fleet /
            # cached runs and kernel lanes.
            gauge.set(fsum(f.rate for f in link.flows) / link.capacity, now)

    def on_submit(self, node, on_done, label):
        self._nodes[node][0].inc()
        return on_done

    def on_demand(self, node) -> None:
        self._nodes[node][1].set(node.demand / node.cores, node.sim.now)

    # ----------------------------------------------------------------- smpi
    def on_message(self, msg, eager: bool) -> None:
        key = ("message", msg.ctx_id, eager)
        pair = self._bound.get(key)
        if pair is None:
            reg = self.registry
            proto = "eager" if eager else "rndv"
            pair = self._bound[key] = (
                reg.counter("smpi.messages", comm=msg.ctx_id, protocol=proto),
                reg.counter("smpi.bytes", comm=msg.ctx_id, protocol=proto),
            )
        pair[0].inc()
        pair[1].inc(msg.nbytes)
        self.registry.histogram("smpi.message_nbytes").observe(msg.nbytes)

    def on_unblock(self, ctx, command, t0: float) -> None:
        key = ("wait", ctx.gid)
        timer = self._bound.get(key)
        if timer is None:
            timer = self._bound[key] = self.registry.timer(
                "smpi.wait_blocked", rank=ctx.gid
            )
        timer.record(t0, ctx.sim.now, label=type(command).__name__)

    def on_progress_tick(self, ctx) -> None:
        key = ("tick", ctx.gid)
        counter = self._bound.get(key)
        if counter is None:
            counter = self._bound[key] = self.registry.counter(
                "smpi.progress_ticks", rank=ctx.gid
            )
        counter.inc()

    # ------------------------------------------------------------------ rma
    def on_rma(self, kind: str) -> None:
        self.registry.counter("rma.ops", kind=kind).inc()

    def on_rma_deferred(self) -> None:
        self.registry.counter("rma.deferred_landings").inc()

    # Every lock is shared; the ``mode`` label stays so the metrics
    # documents keep their schema.
    def on_win_lock_granted(self, win, t0: float) -> None:
        self.registry.timer("rma.lock_wait_seconds", mode="shared").record(
            t0, self.world.sim.now, label=f"win{win.win_id}"
        )

    def on_win_unlock(self, ctx, win, target_rank) -> None:
        dst_gid = win.peer_gid(ctx.gid, target_rank)
        self.registry.timer("rma.epoch_seconds", mode="shared").record(
            win.epoch_t0(ctx.gid, dst_gid), ctx.sim.now,
            label=f"win{win.win_id}",
        )

    # ---------------------------------------------- redistribution, faults
    def on_redist_transfer(self, session, phase: str, nbytes: float) -> None:
        reg = self.registry
        labels = {"method": session.method_name, "phase": phase}
        reg.counter("redist.transfer_bytes", **labels).inc(nbytes)
        reg.counter("redist.transfers", **labels).inc()

    def on_redist_phase(self, session, phase: str, t0: float) -> None:
        self.registry.timer(
            "redist.phase_seconds", method=session.method_name, phase=phase
        ).record(t0, session.ctx.now, label=f"{session.label}:{phase}")

    def on_redist_test(self, session, done: bool) -> None:
        """Async progress timeline: one gauge sample per ``test()`` call."""
        reg = self.registry
        reg.counter("redist.test_calls", method=session.method_name).inc()
        reg.gauge("redist.session_done", label=session.label).set(
            1.0 if done else 0.0, session.ctx.now
        )

    def on_recovery(self, policy: str, first_failure_at, label: str) -> None:
        reg = self.registry
        reg.counter("recoveries", policy=policy).inc()
        if first_failure_at is not None:
            reg.timer("recovery_time").record(
                first_failure_at, self.world.sim.now, label=label
            )

    def on_fault(self, kind: str) -> None:
        self.registry.counter("faults_injected", kind=kind).inc()

    # --------------------------------------------------------------- finalize
    def finalize(self, stats=None) -> MetricsRegistry:
        """Snapshot always-on layer counters and (optionally) the run's
        reconfiguration breakdown into the registry.

        Callable attached or detached; typically invoked once after
        ``sim.run()`` returns.
        """
        reg = self.registry
        machine = self.machine
        if machine is not None:
            net = machine.network
            sim = machine.sim
            reg.counter("cluster.allocator.reallocations").inc(
                net.reallocations - self._base.get("reallocations", 0)
            )
            reg.counter("cluster.allocator.fast_path_hits").inc(
                net.fast_path_hits - self._base.get("fast_path_hits", 0)
            )
            reg.counter("cluster.network.bytes_carried").inc(
                net.bytes_carried - self._base.get("bytes_carried", 0.0)
            )
            elapsed = sim.now
            for node in machine.nodes:
                reg.gauge("cluster.node.busy_coreseconds", node=node.name).set(
                    node.busy_coreseconds, elapsed
                )
                reg.gauge(
                    "cluster.node.peak_oversubscription", node=node.name
                ).set(node.peak_demand / node.cores, elapsed)
        world = self.world
        if world is not None:
            for label in sorted(world.bytes_by_label):
                reg.counter("smpi.bytes_by_label", label=label).inc(
                    world.bytes_by_label[label]
                )
        if stats is not None:
            self._export_reconfig_breakdown(stats)
        return reg

    def _export_reconfig_breakdown(self, stats) -> None:
        reg = self.registry
        for i, rec in enumerate(stats.reconfigs):
            bd = rec.breakdown
            reg.record("reconfigurations", {"index": i, **bd.to_dict()})
            for stage, t0, t1 in rec.stage_spans():
                reg.timer(
                    "malleability.stage_seconds", stage=stage, reconfig=i
                ).record(t0, t1, label=f"reconf{i}:{stage}")
