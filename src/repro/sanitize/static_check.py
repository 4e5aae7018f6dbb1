"""Static plan & protocol verifier (rules ``STA0xx``).

The runtime sanitizer (:mod:`repro.sanitize.runtime`) catches protocol bugs
*while the simulator executes* — so a buggy :class:`RedistributionPlan` or
a lock-order hazard in the RMA arm is only found if a test happens to drive
that exact schedule.  This module proves redistribution schedules correct
from their specification alone, without executing the simulator::

    repro-harness verify-plans                 # sweep the 18-config matrix
    repro-harness verify-plans --extended      # + target-driven/min-move

Three layers, all producing :class:`~repro.sanitize.findings.Finding`
objects with ``STA`` rule codes (:data:`repro.sanitize.findings.STA_RULES`):

* :func:`verify_plan` — row conservation (STA001), gap/overlap-free
  coverage of both layouts (STA002) and source/target range validity
  (STA003) of one :class:`RedistributionPlan`, straight off its transfer
  views.  Rows are the unit of conservation: both sides derive a chunk's
  wire bytes from the same rows, so a row-conserving plan is
  byte-conserving by construction.
* :func:`elaborate` — the per-rank programs the P2P/COL/RMA sessions
  execute (:func:`repro.redistribution.session.lower`), gathered into a
  :class:`CommGraph` over the spawn method's rank topology (Merge:
  persisting dual-role ranks; Baseline: disjoint groups).
* :func:`check_graph` — send/recv tag matching and one-sided-op vs
  notification budgets (STA004), collective membership and alltoallv
  count symmetry (STA005), an abstract execution proving the schedule can
  retire in *some* order — its failure is a static deadlock (STA006) —
  plus RMA exclusive-lock acquisition-order hazards (STA007) and lock
  epochs never unlocked (STA008).

What static can and cannot prove: the verifier sees the *schedule* (who
sends what to whom, in which epochs), so it proves plan/protocol shape for
every config without running anything — but it cannot see data-dependent
behaviour (buffer reuse races SAN001/002, mid-run aborts SAN005, memcpy
overlap SAN007).  Those stay with the runtime sanitizer; the SAN↔STA
coverage map in ``tests/sanitize/test_static_coverage.py`` records the
split rule by rule.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..malleability.config import ALL_CONFIGS, ReconfigConfig, SpawnMethod
from ..redistribution.api import RedistMethod
from ..redistribution.plan import RedistributionPlan
from ..redistribution.session import lower
from .findings import Finding, STA_RULES

__all__ = [
    "RankNode",
    "CommGraph",
    "verify_plan",
    "elaborate",
    "check_graph",
    "verify_config",
    "verify_matrix",
    "add_arguments",
    "run",
]

#: collective op kinds — every comm member must enter these in lockstep.
_COLLECTIVE_OPS = frozenset({"alltoall", "alltoallv", "win_create"})
#: op kinds the abstract execution retires unconditionally.
_IMMEDIATE_OPS = frozenset({"isend", "memcpy", "lock", "unlock", "put", "get"})


# ===================================================================== plans
def _plan_transfers(by_src: list[list], by_dst: list[list]) -> list:
    """Union of both transfer views, deduplicated, in deterministic order."""
    seen = {}
    for view in (by_src, by_dst):
        for trs in view:
            for tr in trs:
                seen[(tr.src, tr.dst, tr.lo, tr.hi)] = tr
    return [seen[k] for k in sorted(seen)]


def _coverage_findings(
    label: str, side: str, rank: int, lo: int, hi: int,
    chunks: list[tuple[int, int]],
) -> list[Finding]:
    """STA002 findings for one rank's chunk list vs its owned range."""
    findings = []

    def emit(kind: int, a: int, b: int) -> None:
        what = "gap" if kind == 0 else "overlap"
        findings.append(Finding(
            rule="STA002",
            message=f"{label}: {side} rank {rank} has a {what} at rows "
                    f"[{a}, {b}) of its range [{lo}, {hi})",
            detail={"side": side, "rank": rank, "kind": what,
                    "lo": a, "hi": b},
        ))

    cursor = lo
    for c_lo, c_hi in sorted(chunks):
        if c_lo > cursor:
            emit(0, cursor, c_lo)
        elif c_lo < cursor:
            emit(1, c_lo, min(cursor, c_hi))
        cursor = max(cursor, c_hi)
    if cursor < hi:
        emit(0, cursor, hi)
    return findings


def verify_plan(plan: RedistributionPlan, *, label: str = "plan") -> list[Finding]:
    """Check one plan for conservation (STA001), coverage (STA002) and
    range validity (STA003); returns sorted findings (empty = proven)."""
    findings: list[Finding] = []
    by_src = [plan.sends_for(s) for s in range(plan.n_sources)]
    by_dst = [plan.recvs_for(d) for d in range(plan.n_targets)]

    # STA001 — row conservation between the two transfer views.
    rows_src = sum(tr.n_rows for trs in by_src for tr in trs)
    rows_dst = sum(tr.n_rows for trs in by_dst for tr in trs)
    if rows_src != rows_dst:
        findings.append(Finding(
            rule="STA001",
            message=f"{label}: sources send {rows_src} rows but targets "
                    f"receive {rows_dst} (plan covers {plan.n_rows})",
            detail={"rows_src": rows_src, "rows_dst": rows_dst,
                    "n_rows": plan.n_rows},
        ))

    # STA003 — every transfer must read inside its source's owned range and
    # land inside its target's owned range, non-empty and non-inverted.
    for tr in _plan_transfers(by_src, by_dst):
        problems = []
        if not 0 <= tr.src < plan.n_sources:
            problems.append(f"source rank {tr.src} out of range "
                            f"0..{plan.n_sources - 1}")
        if not 0 <= tr.dst < plan.n_targets:
            problems.append(f"target rank {tr.dst} out of range "
                            f"0..{plan.n_targets - 1}")
        if tr.lo >= tr.hi:
            problems.append(f"empty/inverted row range [{tr.lo}, {tr.hi})")
        if not problems:
            s_lo, s_hi = plan.src_range(tr.src)
            d_lo, d_hi = plan.dst_range(tr.dst)
            if tr.lo < s_lo or tr.hi > s_hi:
                problems.append(
                    f"reads rows [{tr.lo}, {tr.hi}) outside source {tr.src}'s "
                    f"owned range [{s_lo}, {s_hi})")
            if tr.lo < d_lo or tr.hi > d_hi:
                problems.append(
                    f"lands on rows [{tr.lo}, {tr.hi}) outside target "
                    f"{tr.dst}'s owned range [{d_lo}, {d_hi})")
        for problem in problems:
            findings.append(Finding(
                rule="STA003",
                message=f"{label}: transfer {tr.src}->{tr.dst} "
                        f"[{tr.lo}, {tr.hi}): {problem}",
                detail={"src": tr.src, "dst": tr.dst,
                        "lo": tr.lo, "hi": tr.hi},
            ))

    # STA002 — gap/overlap-free tiling of both layouts.
    for d in range(plan.n_targets):
        d_lo, d_hi = plan.dst_range(d)
        chunks = [(tr.lo, tr.hi) for tr in by_dst[d]]
        findings.extend(
            _coverage_findings(label, "target", d, d_lo, d_hi, chunks))
    for s in range(plan.n_sources):
        s_lo, s_hi = plan.src_range(s)
        chunks = [(tr.lo, tr.hi) for tr in by_src[s]]
        findings.extend(
            _coverage_findings(label, "source", s, s_lo, s_hi, chunks))

    return sorted(findings, key=Finding.sort_key)


# ============================================================== elaboration
@dataclass(frozen=True)
class RankNode:
    """One process in the symbolic communication graph."""

    name: str
    src_rank: Optional[int] = None
    dst_rank: Optional[int] = None


@dataclass
class CommGraph:
    """Per-rank symbolic op lists plus the role-index resolution maps.

    ``ops[node.name]`` holds the op dicts of the rank's lowered program
    (or ones a test handcrafted); ``src_node``/``dst_node`` map role
    indices to node names so peer references resolve to graph nodes.  An op
    may carry ``peer_node`` directly instead of ``peer``/``side`` —
    handcrafted graphs use that form.
    """

    label: str
    nodes: list[RankNode]
    ops: dict[str, list[dict]]
    src_node: dict[int, str] = field(default_factory=dict)
    dst_node: dict[int, str] = field(default_factory=dict)

    @property
    def members(self) -> list[str]:
        return [n.name for n in self.nodes]

    def resolve(self, op: dict) -> Optional[str]:
        """Peer node name of an op, or None when it points nowhere."""
        if "peer_node" in op:
            name = op["peer_node"]
            return name if name in self.ops else None
        table = self.dst_node if op.get("side") == "dst" else self.src_node
        return table.get(op.get("peer"))


def elaborate(
    plan: RedistributionPlan,
    *,
    method: "RedistMethod | str",
    spawn: "SpawnMethod | str",
    variant: str = "origin",
    label: str = "",
) -> CommGraph:
    """Build the symbolic communication graph of one configuration.

    The rank topology follows the spawn method: ``MERGE`` runs
    ``max(NS, NT)`` processes where rank ``r`` is a source iff ``r < NS``
    and a target iff ``r < NT``; ``BASELINE`` runs disjoint source and
    target groups over an inter-communicator, so roles never coincide.
    The strategy axis (S/A/T) changes how schedules are *driven*, not what
    they contain, so one graph covers all three.

    Every rank's ops are its session's own program
    (:func:`repro.redistribution.session.lower`, read from the compiled
    plan programs), so the checks see exactly what ships — a plan-lowering
    bug surfaces as an STA004/STA005 mismatch.
    """
    if isinstance(method, str):
        method = RedistMethod.parse(method)
    if isinstance(spawn, str):
        spawn = SpawnMethod.parse(spawn)

    ns, nt = plan.n_sources, plan.n_targets
    nodes: list[RankNode] = []
    if spawn is SpawnMethod.MERGE:
        for r in range(max(ns, nt)):
            nodes.append(RankNode(
                f"r{r}",
                src_rank=r if r < ns else None,
                dst_rank=r if r < nt else None,
            ))
    else:
        nodes.extend(RankNode(f"s{i}", src_rank=i) for i in range(ns))
        nodes.extend(RankNode(f"t{j}", dst_rank=j) for j in range(nt))

    return CommGraph(
        label=label or f"{spawn.value}-{method.value} "
                       f"{ns}->{nt} rows={plan.n_rows}",
        nodes=nodes,
        ops={node.name: lower(plan, method.value, node.src_rank,
                              node.dst_rank, variant)
             for node in nodes},
        src_node={n.src_rank: n.name for n in nodes if n.src_rank is not None},
        dst_node={n.dst_rank: n.name for n in nodes if n.dst_rank is not None},
    )


# ============================================================ graph checks
def _check_matching(graph: CommGraph) -> list[Finding]:
    """STA004: two-sided tag matching + one-sided ops vs notify budgets."""
    findings: list[Finding] = []
    sends: Counter = Counter()
    recvs: Counter = Counter()
    arrived: Counter = Counter()
    thresholds: Counter = Counter()
    exposing: set[str] = set()
    for node in graph.nodes:
        for op in graph.ops[node.name]:
            kind = op["op"]
            if kind in ("isend", "send"):
                peer = graph.resolve(op)
                if peer is None:
                    findings.append(Finding(
                        rule="STA004",
                        message=f"{graph.label}: {node.name} sends tag "
                                f"{op.get('tag')} to nonexistent peer "
                                f"{op.get('peer')!r}",
                        tag=op.get("tag"),
                    ))
                    continue
                sends[(node.name, peer, op.get("tag"))] += 1
            elif kind in ("irecv", "recv"):
                peer = graph.resolve(op)
                if peer is None:
                    findings.append(Finding(
                        rule="STA004",
                        message=f"{graph.label}: {node.name} receives tag "
                                f"{op.get('tag')} from nonexistent peer "
                                f"{op.get('peer')!r}",
                        tag=op.get("tag"),
                    ))
                    continue
                recvs[(peer, node.name, op.get("tag"))] += 1
            elif kind in ("put", "get"):
                peer = graph.resolve(op)
                if peer is None:
                    findings.append(Finding(
                        rule="STA004",
                        message=f"{graph.label}: {node.name} issues a {kind} "
                                f"at nonexistent peer {op.get('peer')!r}",
                    ))
                    continue
                arrived[peer] += 1
            elif kind == "notify_wait":
                thresholds[node.name] += op["threshold"]
                exposing.add(node.name)
    for key in sorted(set(sends) | set(recvs)):
        n_send, n_recv = sends[key], recvs[key]
        if n_send != n_recv:
            src, dst, tag = key
            findings.append(Finding(
                rule="STA004",
                message=f"{graph.label}: {src} sends {n_send} message(s) "
                        f"tag {tag} to {dst} but {dst} posts {n_recv} "
                        f"matching receive(s)",
                tag=tag,
                detail={"src": src, "dst": dst,
                        "sends": n_send, "recvs": n_recv},
            ))
    for name in sorted(set(arrived) | exposing):
        n_ops, budget = arrived[name], thresholds[name]
        if n_ops != budget:
            findings.append(Finding(
                rule="STA004",
                message=f"{graph.label}: {n_ops} one-sided op(s) land at "
                        f"{name} but its notification threshold expects "
                        f"{budget}",
                detail={"node": name, "ops": n_ops, "threshold": budget},
            ))
    return findings


def _check_collectives(graph: CommGraph) -> list[Finding]:
    """STA005: membership lockstep + alltoallv count symmetry."""
    findings: list[Finding] = []
    sequences = {
        name: [op for op in graph.ops[name] if op["op"] in _COLLECTIVE_OPS]
        for name in graph.members
    }
    kind_seqs = {name: [op["op"] for op in seq]
                 for name, seq in sequences.items()}
    reference = max(kind_seqs.values(), key=len, default=[])
    consistent = True
    for name in graph.members:
        if kind_seqs[name] != reference:
            consistent = False
            findings.append(Finding(
                rule="STA005",
                message=f"{graph.label}: {name} enters collectives "
                        f"{kind_seqs[name]} while the group enters "
                        f"{reference} — every member must enter every "
                        f"collective",
                detail={"node": name, "entered": kind_seqs[name],
                        "expected": reference},
            ))
    if not consistent:
        return findings

    # Pairing symmetry of each alltoallv slot: A declares a send to B iff
    # B declares a receive from A.
    for slot, kind in enumerate(reference):
        if kind != "alltoallv":
            continue
        declared_send: set[tuple[str, str]] = set()
        declared_recv: set[tuple[str, str]] = set()
        for name in graph.members:
            op = sequences[name][slot]
            for dst_idx in op.get("send_to", {}):
                peer = graph.dst_node.get(dst_idx)
                if peer is None:
                    findings.append(Finding(
                        rule="STA005",
                        message=f"{graph.label}: {name} declares an "
                                f"alltoallv send to nonexistent target "
                                f"{dst_idx}",
                    ))
                    continue
                declared_send.add((name, peer))
            for src_idx in op.get("recv_from", []):
                peer = graph.src_node.get(src_idx)
                if peer is None:
                    findings.append(Finding(
                        rule="STA005",
                        message=f"{graph.label}: {name} declares an "
                                f"alltoallv receive from nonexistent "
                                f"source {src_idx}",
                    ))
                    continue
                declared_recv.add((peer, name))
        for src, dst in sorted(declared_send - declared_recv):
            findings.append(Finding(
                rule="STA005",
                message=f"{graph.label}: {src} declares an alltoallv send "
                        f"to {dst} but {dst} does not list {src} as a "
                        f"receive source",
                detail={"src": src, "dst": dst, "direction": "send"},
            ))
        for src, dst in sorted(declared_recv - declared_send):
            findings.append(Finding(
                rule="STA005",
                message=f"{graph.label}: {dst} expects an alltoallv "
                        f"receive from {src} but {src} declares no "
                        f"matching send",
                detail={"src": src, "dst": dst, "direction": "recv"},
            ))
    return findings


def _check_progress(graph: CommGraph) -> list[Finding]:
    """STA006: abstract execution — prove the schedule retires in *some*
    order.  A fixpoint where unfinished nodes remain is a static deadlock:
    no interleaving the runtime could choose retires those ops."""
    pc = {name: 0 for name in graph.members}
    sent: Counter = Counter()       # (src, dst, tag) -> messages issued
    posted: Counter = Counter()     # (src, dst, tag) -> receives posted
    send_claims: Counter = Counter()
    recv_claims: Counter = Counter()
    landed: Counter = Counter()     # node -> one-sided ops arrived/served
    coll_idx = {name: 0 for name in graph.members}
    posted_once: set[tuple[str, int]] = set()  # blocking recvs already posted

    def blocked_op(name: str) -> Optional[dict]:
        i = pc[name]
        ops = graph.ops[name]
        return ops[i] if i < len(ops) else None

    def try_retire(name: str, op: dict) -> bool:
        """Retire one non-collective op if its precondition holds."""
        kind = op["op"]
        peer = graph.resolve(op) if ("peer" in op or "peer_node" in op) else None
        if kind in _IMMEDIATE_OPS:
            if kind == "isend" and peer is not None:
                sent[(name, peer, op.get("tag"))] += 1
            elif kind in ("put", "get") and peer is not None:
                landed[peer] += 1
            return True
        if kind == "irecv":
            if peer is None:
                return True  # dangling peer: reported by STA004, not here
            key = (peer, name, op.get("tag"))
            if "after_tag" in op:
                # Deferred post (plain-mode tag-88): only after the
                # triggering message was issued.
                if sent[(peer, name, op["after_tag"])] < 1:
                    return False
            posted[key] += 1
            return True
        if kind == "recv":
            if peer is None:
                return True
            key = (peer, name, op.get("tag"))
            # A blocking recv posts the moment it is reached (unblocking a
            # rendezvous send on the peer), then waits for the message.
            if (name, pc[name]) not in posted_once:
                posted_once.add((name, pc[name]))
                posted[key] += 1
            if sent[key] <= recv_claims[key]:
                return False  # blocks until a matching send is issued
            recv_claims[key] += 1
            return True
        if kind == "send":
            if peer is None:
                return True
            key = (name, peer, op.get("tag"))
            # Rendezvous: completes only once the peer posted the receive.
            if posted[key] <= send_claims[key]:
                return False
            send_claims[key] += 1
            sent[key] += 1
            return True
        if kind == "notify_wait":
            return landed[name] >= op["threshold"]
        raise ValueError(f"unknown symbolic op kind {kind!r}")

    progress = True
    while progress:
        progress = False
        n_posted = len(posted_once)
        # Run every node to its next block.
        for name in graph.members:
            while True:
                op = blocked_op(name)
                if op is None or op["op"] in _COLLECTIVE_OPS:
                    break
                if not try_retire(name, op):
                    break
                pc[name] += 1
                progress = True
        if len(posted_once) > n_posted:
            progress = True  # a blocking recv posted: peers may now advance
        # Collectives retire for everyone at once, in lockstep order.
        waiting = {name: blocked_op(name) for name in graph.members}
        if waiting and all(
            op is not None and op["op"] in _COLLECTIVE_OPS
            for op in waiting.values()
        ):
            kinds = {op["op"] for op in waiting.values()}
            indices = set(coll_idx.values())
            if len(kinds) == 1 and len(indices) == 1:
                for name in graph.members:
                    pc[name] += 1
                    coll_idx[name] += 1
                progress = True

    stuck = {name: blocked_op(name) for name in graph.members
             if pc[name] < len(graph.ops[name])}
    if not stuck:
        return []
    parts = []
    for name in sorted(stuck):
        op = stuck[name]
        where = graph.resolve(op) if op else None
        desc = f"{op['op']}" + (f"->{where}" if where else "")
        if op and "tag" in op:
            desc += f" tag {op['tag']}"
        parts.append(f"{name} blocked in {desc}")
    return [Finding(
        rule="STA006",
        message=f"{graph.label}: schedule cannot retire in any order "
                f"(static deadlock): " + "; ".join(parts[:6]),
        detail={"stuck": sorted(stuck)},
    )]


def _check_locks(graph: CommGraph) -> list[Finding]:
    """STA007 (exclusive acquisition-order hazards) + STA008 (epoch leaks)."""
    findings: list[Finding] = []
    # Per-node held-before-or-with relation over exclusive locks.
    relations: dict[str, set[tuple[str, str]]] = {}
    for node in graph.nodes:
        name = node.name
        locks: Counter = Counter()
        unlocks: Counter = Counter()
        sequential: list[str] = []       # exclusive, in acquisition order
        concurrent: list[str] = []       # exclusive, acquired as one AllOf
        for op in graph.ops[name]:
            if op["op"] == "lock":
                peer = graph.resolve(op)
                if peer is None:
                    continue
                locks[peer] += 1
                if op.get("mode") == "exclusive":
                    if op.get("concurrent"):
                        concurrent.append(peer)
                    else:
                        sequential.append(peer)
            elif op["op"] == "unlock":
                peer = graph.resolve(op)
                if peer is not None:
                    unlocks[peer] += 1
        for peer in sorted(set(locks) | set(unlocks)):
            n_lock, n_unlock = locks[peer], unlocks[peer]
            if n_lock > n_unlock:
                findings.append(Finding(
                    rule="STA008",
                    message=f"{graph.label}: {name} opens {n_lock} lock "
                            f"epoch(s) on {peer} but closes {n_unlock} — "
                            f"epoch still open at finish",
                    detail={"node": name, "peer": peer,
                            "locks": n_lock, "unlocks": n_unlock},
                ))
            elif n_unlock > n_lock:
                findings.append(Finding(
                    rule="STA008",
                    message=f"{graph.label}: {name} unlocks {peer} "
                            f"{n_unlock} time(s) with only {n_lock} open "
                            f"epoch(s)",
                    detail={"node": name, "peer": peer,
                            "locks": n_lock, "unlocks": n_unlock},
                ))
        rel: set[tuple[str, str]] = set()
        for i, a in enumerate(sequential):
            for b in sequential[i + 1:]:
                if a != b:
                    rel.add((a, b))  # b acquired while a is held
        for a in concurrent:
            for b in concurrent:
                if a != b:
                    rel.add((a, b))  # unordered: either may be held first
            for s in sequential:
                if s != a:
                    rel.add((s, a))
        if rel:
            relations[name] = rel

    # Pairwise inversion: node A holds x while acquiring y, node B holds y
    # while acquiring x -> the interleaving where each got its first lock
    # deadlocks.  (Pairwise analysis; longer cycles reduce to an inverted
    # pair somewhere along the chain for the schedules we elaborate.)
    reported: set[frozenset] = set()
    names = sorted(relations)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for x, y in sorted(relations[a]):
                if (y, x) in relations[b]:
                    key = frozenset((a, b, x, y))
                    if key in reported:
                        continue
                    reported.add(key)
                    findings.append(Finding(
                        rule="STA007",
                        message=f"{graph.label}: exclusive lock order "
                                f"inverted — {a} acquires {y} while "
                                f"holding {x}, {b} acquires {x} while "
                                f"holding {y}",
                        detail={"nodes": sorted((a, b)),
                                "locks": sorted((x, y))},
                    ))
    return findings


def check_graph(graph: CommGraph) -> list[Finding]:
    """All protocol checks (STA004–STA008) over one elaborated graph."""
    findings = _check_matching(graph)
    findings += _check_collectives(graph)
    findings += _check_progress(graph)
    findings += _check_locks(graph)
    return sorted(findings, key=Finding.sort_key)


# ==================================================================== sweep
def verify_config(
    config: "ReconfigConfig | str",
    n_rows: int,
    n_sources: int,
    n_targets: int,
    *,
    variant: str = "origin",
    plan: Optional[RedistributionPlan] = None,
) -> list[Finding]:
    """Verify one configuration's plan + elaborated schedule end to end."""
    if isinstance(config, str):
        config = ReconfigConfig.parse(config)
    if plan is None:
        plan = RedistributionPlan.block(n_rows, n_sources, n_targets)
    suffix = ""
    if config.redist is RedistMethod.RMA and variant != "origin":
        suffix = f" [{variant}]"
    label = (f"{config.key} {n_sources}->{n_targets} "
             f"rows={n_rows}{suffix}")
    findings = verify_plan(plan, label=label)
    graph = elaborate(
        plan,
        method=config.redist,
        spawn=config.spawn,
        variant=variant,
        label=label,
    )
    findings += check_graph(graph)
    return sorted(findings, key=Finding.sort_key)


def verify_matrix(
    rows: Sequence[int] = (96, 1000, 4096),
    resizes: Sequence[tuple[int, int]] = ((4, 8), (8, 4), (6, 6)),
    configs: Sequence[ReconfigConfig] = ALL_CONFIGS,
    *,
    extended: bool = False,
) -> tuple[list[Finding], int]:
    """Sweep the config matrix over a size grid; returns (findings, n).

    The default sweep covers the 18 shipped configurations with their
    shipped session options (origin-driven RMA) across grow/shrink/equal
    resizes.  ``extended=True`` additionally verifies the target-driven RMA
    variant and the movement-minimising plans.
    """
    findings: list[Finding] = []
    n_checked = 0
    for config in configs:
        for n_rows in rows:
            for ns, nt in resizes:
                variants = ["origin"]
                if extended and config.redist is RedistMethod.RMA:
                    variants.append("target")
                plans = [RedistributionPlan.block(n_rows, ns, nt)]
                if extended:
                    plans.append(
                        RedistributionPlan.movement_minimizing(n_rows, ns, nt))
                for plan in plans:
                    for variant in variants:
                        findings.extend(verify_config(
                            config, n_rows, ns, nt, plan=plan, variant=variant))
                        n_checked += 1
    return sorted(findings, key=Finding.sort_key), n_checked


# ====================================================================== CLI
def _parse_rows(text: str) -> list[int]:
    try:
        return [int(r) for r in text.split(",") if r.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"rows must be comma-separated integers, not {text!r}") from None


def _parse_resizes(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            ns, nt = part.split(":")
            out.append((int(ns), int(nt)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"resizes must look like '4:8,8:4', not {text!r}") from None
    return out


def _parse_configs(text: str) -> list[ReconfigConfig]:
    if text.strip().lower() == "all":
        return list(ALL_CONFIGS)
    return [ReconfigConfig.parse(part)
            for part in text.split(",") if part.strip()]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the verifier's options on ``parser`` (the ``repro-harness
    verify-plans`` subcommand); :func:`run` consumes the parsed result."""
    parser.add_argument(
        "--rows", type=_parse_rows, default=[96, 1000, 4096],
        metavar="N,N,...", help="row-count grid (default: 96,1000,4096)")
    parser.add_argument(
        "--resizes", type=_parse_resizes, default=[(4, 8), (8, 4), (6, 6)],
        metavar="NS:NT,...",
        help="grow/shrink/equal resizes (default: 4:8,8:4,6:6)")
    parser.add_argument(
        "--configs", type=_parse_configs, default=list(ALL_CONFIGS),
        metavar="KEYS", help="comma-separated config keys, or 'all'")
    parser.add_argument(
        "--extended", action="store_true",
        help="also verify target-driven RMA and movement-minimising plans")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--max-wall", type=float, default=None, metavar="SECONDS",
        help="fail if the sweep takes longer than this (CI budget gate)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the STA rule catalog and exit")


def run(args: argparse.Namespace) -> int:
    """Run the sweep :func:`add_arguments` describes; exit code 1 when
    findings exist or the wall budget is exceeded."""
    if args.list_rules:
        for code, doc in STA_RULES.items():
            print(f"{code}  {doc}")
        return 0

    import time
    t0 = time.monotonic()  # repro: noqa[REP001] - host-side CI wall budget, not simulated time
    findings, n_checked = verify_matrix(
        args.rows, args.resizes, args.configs, extended=args.extended)
    elapsed = time.monotonic() - t0  # repro: noqa[REP001] - host-side CI wall budget, not simulated time

    if args.format == "json":
        print(json.dumps({
            "checked": n_checked,
            "elapsed_s": round(elapsed, 3),
            "findings": [f.to_dict() for f in findings],
        }, indent=2, sort_keys=True))
    else:
        for f in findings:
            print(f.format())
        n = len(findings)
        status = f"{n} finding(s)" if n else "clean: no findings"
        print(f"verified {n_checked} schedule(s) across "
              f"{len(args.configs)} config(s) in {elapsed:.2f}s — {status}")
    if args.max_wall is not None and elapsed > args.max_wall:
        print(f"wall budget exceeded: {elapsed:.2f}s > {args.max_wall:.2f}s",
              file=sys.stderr)
        return 1
    return 1 if findings else 0
