"""The plan-walk cost models: the oracle of ``repro.analysis.models``.

These are the redistribution prices as they were computed before pricing
became one fold over the two partitions: every price re-walks the plan's
``Transfer`` objects (source by source, in each source's chunk order), the
COL price makes P passes over every chunk.  Kept verbatim in substance so
``test_models_fold.py`` can demand that each fold price is ``==`` to the
walk's on random draws — the same float operations in the same order.
"""

from __future__ import annotations

from repro.analysis.models import message_time
from repro.redistribution.plan import RedistributionPlan, Transfer
from repro.redistribution.session import is_memcpy


def all_transfers(plan: RedistributionPlan) -> list[Transfer]:
    """Every chunk, source by source, through the per-rank queries."""
    return [tr for s in range(plan.n_sources) for tr in plan.sends_for(s)]


def wire_transfers(plan: RedistributionPlan, merge: bool) -> list[Transfer]:
    nt = plan.n_targets
    return [
        tr for tr in all_transfers(plan)
        if not is_memcpy(tr.dst, tr.src if merge and tr.src < nt else None)
    ]


def chunk_times(plan, bytes_per_row, fabric, merge=True):
    return {
        (tr.src, tr.dst): message_time(fabric, tr.n_rows * bytes_per_row)
        for tr in wire_transfers(plan, merge)
    }


def bottleneck_bytes(plan, bytes_per_row, merge):
    out_bytes: dict[int, float] = {}
    in_bytes: dict[int, float] = {}
    for tr in wire_transfers(plan, merge):
        b = tr.n_rows * bytes_per_row
        out_bytes[tr.src] = out_bytes.get(tr.src, 0.0) + b
        in_bytes[tr.dst] = in_bytes.get(tr.dst, 0.0) + b
    return max([*out_bytes.values(), *in_bytes.values()], default=0.0)


def predict_p2p_redistribution(plan, bytes_per_row, fabric, merge=True):
    peak = bottleneck_bytes(plan, bytes_per_row, merge)
    if peak == 0:
        return 0.0
    t = peak / fabric.bandwidth
    if fabric.copy_rate > 0:
        t += peak / fabric.copy_rate
    t += 3 * fabric.latency + message_time(fabric, 64)
    return t


def predict_pairwise_alltoallv(plan, bytes_per_row, fabric, merge=True):
    P = max(plan.n_sources, plan.n_targets)
    times = chunk_times(plan, bytes_per_row, fabric, merge)
    total = 0.0
    for i in range(P):
        phase = [
            t for (src, dst), t in times.items() if (dst - src) % P == i
        ]
        total += max(phase) if phase else 2 * fabric.latency
    return total


def predict_rma_redistribution(plan, bytes_per_row, fabric, merge=True):
    peak = bottleneck_bytes(plan, bytes_per_row, merge)
    if peak == 0:
        return 0.0
    t = peak / fabric.bandwidth
    if fabric.copy_rate > 0:
        t += peak / fabric.copy_rate
    t += 3 * fabric.latency
    return t


PREDICT = {
    "p2p": predict_p2p_redistribution,
    "col": predict_pairwise_alltoallv,
    "rma": predict_rma_redistribution,
}
