"""Golden schedules of the trace lane, captured at the parent of PR 16.

PR 16 changed what a ``TraceScheduler`` pass *costs* (free count kept as
state, slot holdings as runs, resize scans that skip jobs that cannot act)
and must not change what it *decides*.  Every value below was produced by
the unmodified parent commit (``e0aa158``) and may only change together
with a deliberate modelling change that says so.

Two hashes per run: the canonical summary JSON (what ``sim_digest`` in
``benchmarks/e2e`` is built from) and a per-job record digest that also
pins *placement* -- ``record.base`` is the first slot a job was handed and
``size_history`` every width it ran at.  Seeds 0 and 1 run at the default
0.85 load; seed 2 runs at load 0.97, where the queue is rarely empty, so
the queue-blocked shrink path and the EASY backfill scan carry the run.

``n_backfills`` was always 0 at the parent because ``EasyBackfillPolicy``
never told ``start`` that a start was a backfill; the counts pinned here
are the parent's starts of a job that was not the queue head, observed
from outside, and the counter now reports them.
"""

import hashlib

import pytest

from repro.analysis import schedule_summary, summary_json
from repro.rmsim import TraceConfig, TraceScheduler, generate_trace, policy_by_name

SLOTS = 64 * 16
N_JOBS = 400

#: (seed, load, policy) -> (summary sha256, records sha256,
#: (n_events, n_starts, n_backfills, n_grows, n_shrinks)).
GOLDEN = {
    (0, 0.85, "fifo"): (
        "35693dc17be3097e98594b2a071278186f479c70ba6a8f13263c6ae358e1a55e",
        "5a01a367a31d0f93071fa4c7f679251c1ee4e5e5ce4865cd37ed62c495b9a8fb",
        (5426, 400, 0, 1151, 962),
    ),
    (0, 0.85, "priority"): (
        "ea8f8c98f2815b0085510fe564fe1db1e3efa51f2c518ad907b6e8925823aedd",
        "4adc50e1fa7b10dcc9e116ada7b463297e037e0a4fa751d231482a3aa01d3305",
        (5160, 400, 0, 1073, 907),
    ),
    (0, 0.85, "easy"): (
        "fb9d1cfa9d3a20784c18e13c03624b24c8c85b4b6a0712189b8669c6c5a264f4",
        "3e117b60613fcf50b7650e3692921176b0c75651ec7a0151d9cf2e865881c204",
        (6342, 400, 12, 1401, 1170),
    ),
    (0, 0.85, "malleable"): (
        "a68a60dfa7478b769b7db7454662affc30f88467ee346344b93b5cdf8ebf141d",
        "307b0c66c30451d4d44cfefbd289a3f25740d455495c518d7d3ad31be21d48f7",
        (1562, 400, 5, 104, 77),
    ),
    (1, 0.85, "fifo"): (
        "cd13736eb346a9794a7ed0176d6e9cf20e3fec3cd4bfb2a75889ddb4e585dc99",
        "b2d5b02dd149aeabbe1ae89f15f324d685885831548adcb7f23604ef73c5212a",
        (4406, 400, 0, 880, 723),
    ),
    (1, 0.85, "priority"): (
        "4ce854f760f51b9bd9c2160c7f6ce5bf34bc59ee9f01cf83cd84a66823602ba8",
        "8bd46d3cae83bc069f33d004dd462f775d31e11a90942329215a80263e6d78da",
        (4468, 400, 0, 900, 734),
    ),
    (1, 0.85, "easy"): (
        "95f3471b6d4c741d3a87358ad5b1e636224c3b5d86b05a0a478d5191ac424f36",
        "a22fdda86b1153f6fc028c70d96b285d1c8fb719de313701e887e25195ba56a4",
        (4466, 400, 36, 905, 728),
    ),
    (1, 0.85, "malleable"): (
        "45d50e2dc89b00a50b9e3efa112b4b776bc522414d7d6b79485ba1454a02c3a0",
        "66a6155472de194018e0eec79d42b0dd1f420c9c270f646e73023031d1df820e",
        (1674, 400, 27, 133, 104),
    ),
    (2, 0.97, "fifo"): (
        "fb1c9b0fb5edd232cb86d8709246a207a6e5d440f9d2ebcd593e79042504b515",
        "e46b9c3be70cc047a2beafd40003ffa9f9c43239b7bdf4d49ef2eddc30bbec68",
        (6906, 400, 0, 1603, 1250),
    ),
    (2, 0.97, "priority"): (
        "e0a6d0a11f116e6b51a33cc89e9e9b18c5dee807aa58ae5bd901bc4ec9a48bc6",
        "281cb0501df5a91b09e19a276aeff076ae52f5b4c7f455d79ae36235e16336db",
        (6960, 400, 0, 1638, 1242),
    ),
    (2, 0.97, "easy"): (
        "51be1a1e5e4b97ceb493dd2f8b984819cfacd4f493faa37b7aba9d805ba59e3d",
        "cfb5a5a944a41a52ea244361bc9db63a3bc7ca58818a60ae5ab72f6f9b33d651",
        (6910, 400, 43, 1608, 1247),
    ),
    (2, 0.97, "malleable"): (
        "26353d627c0d81cff067eed80f2dce652caa66cfd4cc446ad1bafcc7ccf09f63",
        "624c2f234dcf0a661b81aa00b0eb17eba7379d5c74c08e93964ebda7e8fad76f",
        (2464, 400, 28, 365, 267),
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def traces():
    return {
        (seed, load): generate_trace(
            TraceConfig.sized(SLOTS, N_JOBS, seed, load=load)
        ).jobs
        for seed, load in {key[:2] for key in GOLDEN}
    }


@pytest.mark.parametrize("seed,load,policy", GOLDEN, ids=str)
def test_schedule_identical_to_parent(traces, seed, load, policy):
    summary_sha, records_sha, counts = GOLDEN[seed, load, policy]
    sched = TraceScheduler(
        SLOTS, traces[seed, load], policy=policy_by_name(policy)
    )
    res = sched.run()
    assert (
        res.n_events,
        sched.n_starts,
        sched.n_backfills,
        res.n_grows,
        res.n_shrinks,
    ) == counts
    assert _sha(summary_json(schedule_summary(res))) == summary_sha
    records = [
        (name, r.started_at, r.finished_at, r.base, r.size_history)
        for name, r in sorted(res.records.items())
    ]
    assert _sha(repr(records)) == records_sha
    assert sched.pool.free_slots == SLOTS


def test_high_load_trace_exercises_blocked_queue_paths():
    """The 0.97-load rows are only worth pinning if they backfill and
    shrink for a blocked head; guard the fixture against drifting idle."""
    for policy in ("easy", "malleable"):
        counts = GOLDEN[2, 0.97, policy][2]
        assert counts[2] > 0 and counts[4] > 0
