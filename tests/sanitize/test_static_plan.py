"""Static plan & protocol verifier (STA0xx) tests.

Mutation-style: every STA rule gets a seeded bug that it — and it alone,
where isolation is achievable — must catch, plus clean fixtures proving
the shipped matrix verifies finding-free.

Plans under mutation are built through the *direct* constructor (never
``RedistributionPlan.block``): the factory is lru-cached and shared, so
tampering with a cached instance would poison every other test.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.cli import main as harness_main
from repro.malleability.config import ALL_CONFIGS
from repro.redistribution.blockdist import block_offsets
from repro.redistribution.plan import RedistributionPlan, Transfer
from repro.sanitize.static_check import (
    CommGraph,
    RankNode,
    check_graph,
    elaborate,
    verify_config,
    verify_matrix,
    verify_plan,
)


def fresh_plan(n_rows=10, ns=2, nt=2):
    """An uncached, tamper-safe plan instance."""
    return RedistributionPlan(
        block_offsets(n_rows, ns), block_offsets(n_rows, nt)
    )


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ===================================================================== plans
class TestVerifyPlan:
    @pytest.mark.parametrize("ns,nt", [(4, 8), (8, 4), (6, 6), (1, 7), (5, 1)])
    def test_block_plans_are_clean(self, ns, nt):
        assert verify_plan(fresh_plan(1000, ns, nt)) == []

    @pytest.mark.parametrize("ns,nt", [(4, 8), (8, 4)])
    def test_movement_minimizing_plans_are_clean(self, ns, nt):
        plan = RedistributionPlan.movement_minimizing(1000, ns, nt)
        assert verify_plan(plan) == []

    def test_sta001_lost_rows(self):
        # Targets receive 9 of the 10 rows the sources send.
        plan = fresh_plan()
        plan._by_dst[1] = [Transfer(1, 1, 5, 9)]
        findings = verify_plan(plan)
        assert "STA001" in rules_of(findings)
        assert "lost" not in ""  # guard against silent pass
        msg = next(f for f in findings if f.rule == "STA001").message
        assert "10" in msg and "9" in msg

    def test_sta002_gap_and_overlap_isolated(self):
        # Conserving mutation: target 0 loses [4, 5) while target 1 double-
        # receives [9, 10) — total rows still balance, so STA001 must stay
        # silent and STA002 alone reports the gap and the overlap.
        plan = fresh_plan()
        plan._by_dst[0] = [Transfer(0, 0, 0, 4)]
        plan._by_dst[1] = [Transfer(1, 1, 5, 10), Transfer(1, 1, 9, 10)]
        findings = verify_plan(plan)
        assert "STA002" in rules_of(findings)
        assert "STA001" not in rules_of(findings)
        kinds = {f.detail["kind"] for f in findings if f.rule == "STA002"}
        assert kinds == {"gap", "overlap"}

    def test_sta003_out_of_range_read(self):
        # Source 0 owns rows [0, 5) but a transfer claims to read [7, 9).
        plan = fresh_plan()
        plan._by_src[0] = plan._by_src[0] + [Transfer(0, 1, 7, 9)]
        findings = verify_plan(plan)
        assert "STA003" in rules_of(findings)
        msg = next(f for f in findings if f.rule == "STA003").message
        assert "outside source 0" in msg

    def test_sta003_inverted_range(self):
        plan = fresh_plan()
        plan._by_src[0] = plan._by_src[0] + [Transfer(0, 0, 4, 4)]
        findings = verify_plan(plan)
        assert "STA003" in rules_of(findings)
        assert any("empty/inverted" in f.message for f in findings)

    def test_sta003_unknown_rank(self):
        plan = fresh_plan()
        plan._by_src[0] = plan._by_src[0] + [Transfer(0, 9, 0, 5)]
        findings = verify_plan(plan)
        assert any(f.rule == "STA003" and "target rank 9" in f.message
                   for f in findings)


# ============================================================== elaboration
class TestElaborate:
    def test_merge_topology_roles(self):
        graph = elaborate(fresh_plan(96, 4, 8), method="p2p", spawn="merge")
        assert graph.members == [f"r{i}" for i in range(8)]
        assert graph.src_node == {i: f"r{i}" for i in range(4)}
        assert graph.dst_node == {i: f"r{i}" for i in range(8)}

    def test_baseline_topology_roles(self):
        graph = elaborate(fresh_plan(96, 4, 8), method="col", spawn="baseline")
        assert graph.members == [f"s{i}" for i in range(4)] + [
            f"t{j}" for j in range(8)]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="valid choices"):
            elaborate(fresh_plan(), method="rma", spawn="merge",
                      variant="bogus")

    @pytest.mark.parametrize("method", ["p2p", "col", "rma"])
    @pytest.mark.parametrize("spawn", ["merge", "baseline"])
    def test_all_method_spawn_graphs_clean(self, method, spawn):
        graph = elaborate(fresh_plan(96, 4, 8), method=method, spawn=spawn)
        assert check_graph(graph) == []

    def test_target_driven_rma_clean(self):
        graph = elaborate(fresh_plan(96, 4, 8), method="rma", spawn="merge",
                          variant="target")
        assert check_graph(graph) == []

    @pytest.mark.parametrize("movement_minimizing", [False, True])
    @pytest.mark.parametrize(
        "n_rows,ns,nt",
        [(96, 4, 8), (96, 8, 4), (96, 6, 6), (1000, 8, 4), (1001, 7, 3),
         (97, 3, 5)],
    )
    def test_compiled_view_matches_plan_transfers(
            self, n_rows, ns, nt, movement_minimizing):
        # The compiled plan programs the sessions (and ``elaborate``) lower
        # from must reproduce the plan's transfer lists entry for entry —
        # peers, row ranges, order — over grow/shrink/equal/non-divisible
        # shapes.
        if movement_minimizing:
            plan = RedistributionPlan.movement_minimizing(n_rows, ns, nt)
        else:
            plan = fresh_plan(n_rows, ns, nt)

        def rows(prog):
            return list(zip(prog.peers.tolist(), prog.los.tolist(),
                            prog.his.tolist()))

        for s in range(ns):
            assert rows(plan.compiled_sends(s)) == [
                (tr.dst, tr.lo, tr.hi) for tr in plan.sends_for(s)]
        for d in range(nt):
            assert rows(plan.compiled_recvs(d)) == [
                (tr.src, tr.lo, tr.hi) for tr in plan.recvs_for(d)]

    def test_batched_lowering_bug_is_caught(self):
        # Corrupt one compiled program entry (a peer index off by one):
        # STA004/STA005 must flag the elaborated schedule even though the
        # plan's own transfer lists verify clean.
        plan = fresh_plan(96, 4, 8)
        prog = plan.compiled_sends(0)
        peers = prog.peers.copy()
        peers[0] = (peers[0] + 1) % plan.n_targets
        prog.peers = peers
        assert verify_plan(plan) == []
        graph = elaborate(plan, method="p2p", spawn="merge")
        findings = check_graph(graph)
        assert findings != []
        assert {"STA004"} <= set(rules_of(findings))


# ============================================================= graph checks
class TestMatching:
    def test_sta004_dropped_receive(self):
        # Remove one tag-77 irecv from a P2P target: the matching source
        # isend now has no receiver.
        graph = elaborate(fresh_plan(96, 4, 8), method="p2p", spawn="merge")
        victim = graph.ops["r7"]
        idx = next(i for i, op in enumerate(victim) if op["op"] == "irecv")
        del victim[idx]
        findings = check_graph(graph)
        assert "STA004" in rules_of(findings)

    def test_sta004_notification_budget_mismatch(self):
        # Inflate an exposing target's notify threshold: fewer puts land
        # than the wait demands.
        graph = elaborate(fresh_plan(96, 4, 8), method="rma", spawn="merge")
        wait = next(op for op in graph.ops["r7"] if op["op"] == "notify_wait")
        wait["threshold"] += 1
        findings = check_graph(graph)
        assert "STA004" in rules_of(findings)
        assert any("notification threshold" in f.message for f in findings)

    def test_sta004_send_to_nonexistent_peer(self):
        graph = CommGraph(
            label="handcrafted",
            nodes=[RankNode("a"), RankNode("b")],
            ops={
                "a": [{"op": "isend", "peer_node": "ghost", "tag": 3}],
                "b": [],
            },
        )
        findings = check_graph(graph)
        assert rules_of(findings) == ["STA004"]
        assert "nonexistent peer" in findings[0].message


class TestCollectives:
    def test_sta005_truncated_recv_list(self):
        # A COL target drops one source from its alltoallv recv_from: the
        # source still declares the send.
        graph = elaborate(fresh_plan(96, 4, 8), method="col",
                          spawn="baseline")
        vop = next(op for op in graph.ops["t7"] if op["op"] == "alltoallv")
        assert vop["recv_from"], "fixture needs a non-empty receive list"
        vop["recv_from"] = vop["recv_from"][:-1]
        findings = check_graph(graph)
        assert "STA005" in rules_of(findings)
        assert any("does not list" in f.message for f in findings)

    def test_sta005_member_skips_collective(self):
        graph = elaborate(fresh_plan(96, 4, 8), method="col", spawn="merge")
        graph.ops["r3"] = [op for op in graph.ops["r3"]
                           if op["op"] != "alltoall"]
        findings = check_graph(graph)
        assert "STA005" in rules_of(findings)
        assert any("every member must enter" in f.message for f in findings)


class TestProgress:
    def test_sta006_head_to_head_blocking_receives(self):
        # Classic deadlock: both sides post a blocking recv before their
        # send.  Counts match (STA004-clean) yet no order can retire it.
        graph = CommGraph(
            label="handcrafted",
            nodes=[RankNode("a"), RankNode("b")],
            ops={
                "a": [{"op": "recv", "peer_node": "b", "tag": 5},
                      {"op": "send", "peer_node": "b", "tag": 5}],
                "b": [{"op": "recv", "peer_node": "a", "tag": 5},
                      {"op": "send", "peer_node": "a", "tag": 5}],
            },
        )
        findings = check_graph(graph)
        assert rules_of(findings) == ["STA006"]
        assert "static deadlock" in findings[0].message

    def test_ordered_blocking_exchange_is_clean(self):
        # The textbook fix — one side sends first — must verify clean.
        graph = CommGraph(
            label="handcrafted",
            nodes=[RankNode("a"), RankNode("b")],
            ops={
                "a": [{"op": "send", "peer_node": "b", "tag": 5},
                      {"op": "recv", "peer_node": "b", "tag": 5}],
                "b": [{"op": "recv", "peer_node": "a", "tag": 5},
                      {"op": "send", "peer_node": "a", "tag": 5}],
            },
        )
        assert check_graph(graph) == []

    def test_sta006_deferred_post_never_triggered(self):
        # An irecv gated on a tag that is never sent blocks forever, and
        # the peer's blocking send on the gated tag can then never match.
        graph = CommGraph(
            label="handcrafted",
            nodes=[RankNode("a"), RankNode("b")],
            ops={
                "a": [{"op": "irecv", "peer_node": "b", "tag": 88,
                       "after_tag": 77}],
                "b": [{"op": "send", "peer_node": "a", "tag": 88}],
            },
        )
        findings = check_graph(graph)
        assert "STA006" in rules_of(findings)


class TestLocks:
    @staticmethod
    def _lock(peer, order=0, mode="exclusive", concurrent=False):
        return {"op": "lock", "peer_node": peer, "mode": mode,
                "concurrent": concurrent, "order": order}

    @staticmethod
    def _unlock(peer):
        return {"op": "unlock", "peer_node": peer}

    def test_sta007_inverted_exclusive_order(self):
        # a holds x while acquiring y; b holds y while acquiring x.
        graph = CommGraph(
            label="handcrafted",
            nodes=[RankNode(n) for n in ("a", "b", "x", "y")],
            ops={
                "a": [self._lock("x", 0), self._lock("y", 1),
                      self._unlock("y"), self._unlock("x")],
                "b": [self._lock("y", 0), self._lock("x", 1),
                      self._unlock("x"), self._unlock("y")],
                "x": [], "y": [],
            },
        )
        findings = check_graph(graph)
        assert rules_of(findings) == ["STA007"]
        assert "inverted" in findings[0].message

    def test_consistent_exclusive_order_is_clean(self):
        graph = CommGraph(
            label="handcrafted",
            nodes=[RankNode(n) for n in ("a", "b", "x", "y")],
            ops={
                "a": [self._lock("x", 0), self._lock("y", 1),
                      self._unlock("y"), self._unlock("x")],
                "b": [self._lock("x", 0), self._lock("y", 1),
                      self._unlock("y"), self._unlock("x")],
                "x": [], "y": [],
            },
        )
        assert check_graph(graph) == []

    def test_shared_concurrent_locks_are_not_sta007(self):
        # The shipped RMA arm opens *shared* epochs concurrently — that is
        # by construction not an exclusive-order hazard.
        graph = elaborate(fresh_plan(96, 4, 8), method="rma", spawn="merge")
        assert all(op.get("mode") == "shared"
                   for ops in graph.ops.values()
                   for op in ops if op["op"] == "lock")
        assert check_graph(graph) == []

    def test_sta008_leaked_epoch(self):
        # Drop one unlock from a driving source: the epoch never closes.
        graph = elaborate(fresh_plan(96, 4, 8), method="rma", spawn="merge")
        victim = graph.ops["r0"]
        idx = next(i for i, op in enumerate(victim) if op["op"] == "unlock")
        del victim[idx]
        findings = check_graph(graph)
        assert "STA008" in rules_of(findings)
        assert any("still open at finish" in f.message for f in findings)

    def test_sta008_excess_unlock(self):
        graph = elaborate(fresh_plan(96, 4, 8), method="rma", spawn="merge")
        victim = graph.ops["r0"]
        unlock = next(op for op in victim if op["op"] == "unlock")
        victim.append(dict(unlock))
        findings = check_graph(graph)
        assert "STA008" in rules_of(findings)


# ==================================================================== sweep
class TestSweep:
    def test_verify_config_accepts_keys(self):
        assert verify_config("merge-p2p-s", 96, 4, 8) == []

    def test_all_18_configs_clean_default(self):
        findings, n = verify_matrix(rows=(96,), resizes=((4, 8), (8, 4)))
        assert findings == []
        assert n == len(ALL_CONFIGS) * 2

    def test_extended_sweep_clean(self):
        findings, n = verify_matrix(rows=(96,), resizes=((6, 6),),
                                    extended=True)
        assert findings == []
        # 18 configs x 2 plans, plus the target-driven variant of the 6
        # RMA configs x 2 plans.
        assert n == len(ALL_CONFIGS) * 2 + 6 * 2

    def test_matrix_reports_seeded_bug(self):
        # A tampered plan threaded through verify_config must surface.
        plan = fresh_plan(96, 4, 8)
        plan._by_dst[7] = [Transfer(3, 7, 84, 90)]
        findings = verify_config("merge-p2p-s", 96, 4, 8, plan=plan)
        assert findings != []


# ====================================================================== CLI
def verify_plans(argv):
    """The ``repro-harness verify-plans`` subcommand, in process."""
    return harness_main(["verify-plans", *argv])


class TestCli:
    def test_clean_sweep_exit_zero(self, capsys):
        assert verify_plans(["--rows", "96", "--resizes", "4:8"]) == 0
        out = capsys.readouterr().out
        assert "clean: no findings" in out
        assert "verified 18 schedule(s)" in out

    def test_json_format(self, capsys):
        assert verify_plans(["--rows", "96", "--resizes", "4:8",
                             "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checked"] == 18
        assert doc["findings"] == []

    def test_config_subset(self, capsys):
        assert verify_plans(["--rows", "96", "--resizes", "4:8",
                             "--configs", "merge-rma-a,baseline-col-s"]) == 0
        assert "across 2 config(s)" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert verify_plans(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("STA001", "STA008"):
            assert code in out

    def test_wall_budget_overrun_fails(self, capsys):
        assert verify_plans(["--rows", "96", "--resizes", "4:8",
                             "--max-wall", "0"]) == 1
        assert "wall budget exceeded" in capsys.readouterr().err

    def test_harness_verify_plans_forwarder(self, capsys):
        assert harness_main(["verify-plans", "--rows", "96",
                             "--resizes", "4:8"]) == 0
        assert "clean: no findings" in capsys.readouterr().out
