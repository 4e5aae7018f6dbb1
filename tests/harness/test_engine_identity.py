"""Golden outputs of the engine lane, captured at the parent of PR 20.

PR 20 changed what a rate update in ``cluster/network.py`` *costs* (one
progressive filling, no numpy, no second copy of the per-link flow count)
and removed a wire format no run used; it must not change a single
simulated second.  Every value below was produced by the unmodified parent
commit (``67eadf4``) and may only change together with a deliberate
modelling change that says so.

Two regimes, because the tiny grid alone never holds many flows at once:

* the 18-config tiny sweep on both fabrics, one shrink and one expand pair,
  pinned by the sha256 of its CSV;
* two cells on the paper machine (8 x 20 cores, 20 <-> 80 ranks), assembled
  the way ``examples/`` and the ``wide_reconfig`` benchmark workload do.
  They hold up to 80 and 84 concurrent flows, the regime in which
  ``Network._advance`` used to switch to a numpy update, and no other
  tier-1 value check reaches it.

Compute-stage jitter is drawn from the machine's seeded generator, so the
runs are deterministic; everything else is plain float arithmetic.

Re-captured once since, by the declared modelling change of ISSUE 24 (a
source with no iterations left blocks instead of spinning on the stop
agreement, docs/modeling.md "When the iterations run out"): of the 72 sweep
rows the 7 whose budget ends mid-reconfiguration moved — ``8->4``
``baseline-{p2p,col,rma}-a`` on both fabrics and ``ethernet 8->4
merge-col-t``, ``reconfig_time`` down by 1.3-9.7 % (``infiniband 8->4
baseline-p2p-a`` 0.03436 -> 0.03104 s) — so ``SWEEP_SHA256`` is the
change's.  The two synchronous paper cells did not move; the two draining
ones were added then (their parents read 3.4691035298811266 and
1.0175545724604929 s) so the tail is pinned at width too.

Re-captured once more when processor sharing moved to virtual time (one
service counter and finish tags per node, docs/modeling.md "CPU:
egalitarian processor sharing"), which rounds differently; no event moved
across another.  Of the 72 sweep rows 54 are byte-identical and the other
18 differ in the last bits only: largest relative move 3.5e-15, none
beyond 1e-9, integer columns identical.  The paper cells moved by at most
6.4e-15 relative (``ethernet 20->80 baseline-col-t`` ``app_time``
3.7181429286139567 -> 3.7181429286139345 s); ``infiniband 20->80
merge-col-a`` did not move.

Re-captured once more by the declared modelling change that gives S one
reconfiguration protocol, faulted or not: every S reconfiguration walks the
recovery ladder, whose commit agreement (a one-scalar allreduce over the
sources) now sits between Stage 3 and Stage 4 in fault-free runs too.  Of
the 72 sweep rows exactly the 24 S rows moved, ``reconfig_time``
x1.000003-1.045 (median x1.001; ``ethernet 8->4 baseline-p2p-s`` the
largest) and ``app_time`` x1.000001-1.018; every A/T row is byte-identical.
Of the paper cells only the two S ones moved: ``ethernet 20->80
merge-col-s`` ``reconfig_time`` 3.5067172248086664 -> 3.506728728142 s,
``app_time`` 4.312333606931347 -> 4.312345110264678 s; ``infiniband 80->20
merge-p2p-s`` ``reconfig_time`` 0.24866143556720147 -> 0.24867246140053487
s, ``app_time`` 1.1630648452952077 -> 1.1577558924220803 s (x0.9954: the
shifted event order hands the seeded compute jitter out differently).
"""

import dataclasses
import hashlib

import pytest

from repro.cluster import Machine
from repro.cluster.fabrics import fabric_by_name
from repro.harness.runner import run_sweep
from repro.malleability import ALL_CONFIGS, ReconfigConfig, ReconfigRequest
from repro.simulate import Simulator
from repro.smpi import MpiWorld, SpawnModel
from repro.synthetic.application import launch_synthetic
from repro.synthetic.presets import SCALES, cg_emulation_config

SWEEP_SHA256 = "ff8ed55fd7c973ae68d773e6109c08800020e45b9fedee530b40287a1475ba56"

ITERATIONS = 12
RECONFIGURE_AT = 3

#: (fabric, NS, NT, config) -> repr((reconfiguration_time, app_time,
#: overlapped_iterations)).
PAPER_CELLS = {
    ("ethernet", 20, 80, "merge-col-s"):
        "(3.506728728142, 4.312345110264678, 0)",
    ("infiniband", 80, 20, "merge-p2p-s"):
        "(0.24867246140053487, 1.1577558924220803, 0)",
    # budget ends inside the redistribution: the sources drain (T joins its
    # thread, A waits on the session) and agree once.
    ("ethernet", 20, 80, "baseline-col-t"):
        "(3.467425498030753, 3.7181429286139345, 8)",
    ("infiniband", 20, 80, "merge-col-a"):
        "(1.004026631584436, 1.2511154490609495, 8)",
}


def test_tiny_sweep_csv_is_the_parents():
    csv = run_sweep(
        [(2, 4), (8, 4)],
        [c.key for c in ALL_CONFIGS],
        ["ethernet", "infiniband"],
        scale="tiny",
        repetitions=1,
    ).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == SWEEP_SHA256


@pytest.mark.parametrize("cell", PAPER_CELLS, ids=lambda c: "-".join(map(str, c)))
def test_paper_width_cell_is_the_parents(cell):
    fabric, ns, nt, key = cell
    preset = SCALES["paper"]
    sim = Simulator()
    machine = Machine(
        sim, preset.n_nodes, preset.cores_per_node, fabric_by_name(fabric), seed=0
    )
    world = MpiWorld(machine, spawn_model=SpawnModel())
    config = dataclasses.replace(cg_emulation_config("paper"), iterations=ITERATIONS)
    stats = launch_synthetic(
        world,
        config.with_reconfigurations([ReconfigRequest(RECONFIGURE_AT, nt)]),
        ReconfigConfig.parse(key),
        n_initial=ns,
    )
    sim.run()
    assert stats.total_iterations() == ITERATIONS
    rec = stats.last_reconfig
    outcome = (rec.reconfiguration_time, stats.app_time, rec.overlapped_iterations)
    assert repr(outcome) == PAPER_CELLS[cell]
