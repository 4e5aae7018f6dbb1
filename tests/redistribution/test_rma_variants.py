"""RMA variant axis: origin-driven puts vs target-driven gets.

Both directions must deliver bit-identical data over both layouts; the
factory owns the variant vocabulary (aliases, golden errors).
"""

import numpy as np
import pytest

from repro.redistribution import RedistributionPlan, make_session
from repro.redistribution.rma import RMA_VARIANTS, RmaRedistribution
from repro.smpi import run_spmd

from .test_sessions import (
    N_ROWS,
    check_target,
    source_dataset,
    target_dataset,
)


def merge_style_main(mpi, variant, ns, nt, driving):
    plan = RedistributionPlan.block(N_ROWS, ns, nt)
    r = mpi.rank
    src_rank = r if r < ns else None
    dst_rank = r if r < nt else None
    if src_rank is None and dst_rank is None:
        return "idle"
    session = make_session(
        "rma",
        mpi,
        mpi.comm_world,
        plan,
        names=["A", "x", "blob"],
        src_rank=src_rank,
        dst_rank=dst_rank,
        src_dataset=source_dataset(plan, src_rank) if src_rank is not None else None,
        dst_dataset=target_dataset(plan, dst_rank) if dst_rank is not None else None,
        variant=variant,
    )
    if driving == "blocking":
        yield from session.run_blocking()
    else:
        yield from session.start()
        while not (yield from session.test()):
            yield from mpi.compute(1e-4)
    if dst_rank is not None:
        check_target(session.dst_dataset, plan, dst_rank)
        return "target-ok"
    return "source-done"


@pytest.mark.parametrize("variant", RMA_VARIANTS)
@pytest.mark.parametrize("ns,nt", [(4, 2), (2, 4), (3, 3), (1, 4), (4, 1)])
def test_both_variants_deliver_merge_style(variant, ns, nt):
    p = max(ns, nt)
    results, _ = run_spmd(
        merge_style_main, p, args=(variant, ns, nt, "blocking"),
        n_nodes=4, cores_per_node=2,
    )
    assert results.count("target-ok") == nt


@pytest.mark.parametrize("variant", RMA_VARIANTS)
@pytest.mark.parametrize("ns,nt", [(4, 2), (2, 4)])
def test_both_variants_deliver_test_driven(variant, ns, nt):
    p = max(ns, nt)
    results, _ = run_spmd(
        merge_style_main, p, args=(variant, ns, nt, "testing"),
        n_nodes=4, cores_per_node=2,
    )
    assert results.count("target-ok") == nt


def test_variants_move_same_rows_opposite_drivers():
    """The observable difference is who issues ops, not what arrives: both
    variants leave every target holding the same bytes."""
    ns, nt = 3, 2

    def run(variant):
        results, sim = run_spmd(
            merge_style_main, max(ns, nt), args=(variant, ns, nt, "blocking"),
            n_nodes=3, cores_per_node=2,
        )
        return results

    assert run("origin") == run("target")


# ----------------------------------------------------------------- factory
PLAN = RedistributionPlan.block(64, 2, 4)
DATA = object()


def build(**kw):
    kw.setdefault("src_rank", 0)
    kw.setdefault("src_dataset", DATA)
    return make_session("rma", ctx=None, comm=None, plan=PLAN, names=["x"], **kw)


@pytest.mark.parametrize(
    "text,want",
    [
        ("origin", "origin"),
        ("Origin-Driven", "origin"),
        ("PUT", "origin"),
        ("target", "target"),
        ("target_driven", "target"),
        ("get", "target"),
    ],
)
def test_variant_aliases(text, want):
    session = build(variant=text)
    assert type(session) is RmaRedistribution
    assert session.variant == want


def test_default_variant_is_origin():
    assert build().variant == "origin"


def test_unknown_variant_golden_error():
    with pytest.raises(
        ValueError,
        match=r"unknown RMA variant 'sideways'; valid choices: "
              r"origin, target \(aliases: origin-driven, put, "
              r"target-driven, get\)",
    ):
        build(variant="sideways")


def test_variant_rejected_for_two_sided_methods():
    with pytest.raises(
        ValueError, match=r"variant='target' only applies to the RMA method, not COL"
    ):
        make_session(
            "col", None, None, PLAN, ["x"],
            src_rank=0, src_dataset=DATA, variant="target",
        )
