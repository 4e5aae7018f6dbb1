"""One deliberately-buggy fixture + one clean fixture per runtime rule.

Every positive fixture asserts *exactly* its expected rule code fires (no
collateral findings), and every clean twin asserts zero findings — the
sanitizer must neither miss the seeded bug nor cry wolf on correct MPI.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.redistribution import Dataset, FieldSpec
from repro.sanitize import Sanitizer, SanitizerError
from repro.simulate import DeadlockError
from repro.smpi.collectives import alltoallv_pairwise

from .conftest import run_sanitized

#: well past the 64 KiB Ethernet eager threshold -> rendezvous protocol,
#: i.e. a real in-flight window during which buffer mutation is a race.
BIG = 20_000  # float64 rows -> 160 kB


def rules_of(san: Sanitizer) -> list[str]:
    return sorted({f.rule for f in san.findings})


# ------------------------------------------------------------------ SAN001
def test_san001_send_buffer_race_detected():
    def main(mpi):
        if mpi.rank == 0:
            buf = np.ones(BIG)
            req = yield from mpi.isend(buf, dest=1)
            buf[0] = -1.0  # BUG: mutates the origin buffer mid-flight
            yield from mpi.wait(req)
        else:
            yield from mpi.recv(source=0)

    san, err = run_sanitized(main, 2)
    assert err is None
    assert rules_of(san) == ["SAN001"]
    (f,) = san.findings
    assert f.rank == 0 and f.detail["peer"] == 1


def test_san001_clean_when_mutated_after_wait():
    def main(mpi):
        if mpi.rank == 0:
            buf = np.ones(BIG)
            req = yield from mpi.isend(buf, dest=1)
            yield from mpi.wait(req)
            buf[0] = -1.0  # fine: the operation completed locally
        else:
            yield from mpi.recv(source=0)

    san, err = run_sanitized(main, 2)
    assert err is None and san.findings == []


# ------------------------------------------------------------------ SAN002
def test_san002_pending_recv_data_read_detected():
    def main(mpi):
        if mpi.rank == 0:
            yield from mpi.sleep(0.01)
            yield from mpi.send(np.arange(4.0), dest=1)
        else:
            req = yield from mpi.irecv(source=0)
            _ = req.data  # BUG: undefined before wait/test under real MPI
            yield from mpi.wait(req)

    san, err = run_sanitized(main, 2)
    assert err is None
    assert rules_of(san) == ["SAN002"]


def test_san002_clean_when_read_after_wait():
    def main(mpi):
        if mpi.rank == 0:
            yield from mpi.send(np.arange(4.0), dest=1)
        else:
            req = yield from mpi.irecv(source=0)
            yield from mpi.wait(req)
            assert req.data is not None

    san, err = run_sanitized(main, 2)
    assert err is None and san.findings == []


# ------------------------------------------------------------------ SAN003
def test_san003_request_leak_detected():
    def main(mpi):
        if mpi.rank == 1:
            # BUG: posts a receive that never matches and never waits on it.
            yield from mpi.irecv(source=0, tag=9)  # repro: noqa[REP006] - deliberate fixture
            mpi.finalize()
        else:
            yield from mpi.sleep(0.001)

    san, err = run_sanitized(main, 2)
    assert err is not None  # the hard finalize check also fires
    assert rules_of(san) == ["SAN003"]
    (f,) = san.findings
    assert f.rank == 1 and f.detail["kind"] == "recv"


def test_san003_clean_when_request_completed():
    def main(mpi):
        if mpi.rank == 1:
            req = yield from mpi.irecv(source=0, tag=9)
            yield from mpi.wait(req)
        else:
            yield from mpi.send(1.5, dest=1, tag=9)
        mpi.finalize()

    san, err = run_sanitized(main, 2)
    assert err is None and san.findings == []


# ------------------------------------------------------------------ SAN004
def test_san004_unmatched_message_detected():
    def main(mpi):
        if mpi.rank == 0:
            # Eager send completes at injection, so rank 0 exits cleanly...
            req = yield from mpi.isend(np.arange(8.0), dest=1)
            yield from mpi.wait(req)
        else:
            yield from mpi.sleep(0.01)  # BUG: never posts the receive
        mpi.finalize()

    san, err = run_sanitized(main, 2)
    assert err is not None  # rank 1 finalizes with pending traffic
    assert rules_of(san) == ["SAN004"]
    (f,) = san.findings
    assert f.rank == 1 and f.detail["src_gid"] == 0


def test_san004_clean_when_consumed():
    def main(mpi):
        if mpi.rank == 0:
            req = yield from mpi.isend(np.arange(8.0), dest=1)
            yield from mpi.wait(req)
        else:
            yield from mpi.recv(source=0)
        mpi.finalize()

    san, err = run_sanitized(main, 2)
    assert err is None and san.findings == []


# ------------------------------------------------------------------ SAN005
def test_san005_use_after_abort_detected():
    def main(mpi):
        if mpi.rank == 0:
            mpi.world.abort_comm(mpi.comm_world)
            # BUG: traffic on a communicator a recovery policy abandoned.
            yield from mpi.isend(1.0, dest=1)
        yield from mpi.sleep(0.001)

    san, err = run_sanitized(main, 2)
    assert err is None
    assert rules_of(san) == ["SAN005"]
    assert san.findings[0].rank == 0


def test_san005_clean_on_live_communicator():
    def main(mpi):
        if mpi.rank == 0:
            req = yield from mpi.isend(1.0, dest=1)
            yield from mpi.wait(req)
        else:
            yield from mpi.recv(source=0)

    san, err = run_sanitized(main, 2)
    assert err is None and san.findings == []


# ------------------------------------------------------------------ SAN006
def test_san006_alltoallv_mismatch_detected():
    def main(mpi):
        if mpi.rank == 0:
            # BUG: sends to peer 1, but peer 1 does not list rank 0.
            yield from alltoallv_pairwise(
                mpi, {1: np.arange(4.0)}, [], mpi.comm_world
            )
        else:
            yield from alltoallv_pairwise(mpi, {}, [], mpi.comm_world)

    san, err = run_sanitized(main, 2)
    assert err is None
    assert rules_of(san) == ["SAN006"]
    assert san.findings[0].detail["direction"] == "send"


def test_san006_clean_when_pairings_agree():
    def main(mpi):
        if mpi.rank == 0:
            out = yield from alltoallv_pairwise(
                mpi, {1: np.arange(4.0)}, [], mpi.comm_world
            )
            assert out == {}
        else:
            out = yield from alltoallv_pairwise(
                mpi, {}, [0], mpi.comm_world
            )
            np.testing.assert_array_equal(out[0], np.arange(4.0))

    san, err = run_sanitized(main, 2)
    assert err is None and san.findings == []


def test_san006_member_never_entering_detected_at_detach():
    def main(mpi):
        if mpi.rank == 0:
            # BUG: only rank 0 enters the collective.  The non-blocking
            # variant posts nothing for empty maps, so the run completes
            # and only the detach-time membership pass can catch it.
            yield from mpi.ialltoallv({}, [])
        yield from mpi.sleep(0.001)

    san, err = run_sanitized(main, 2)
    assert err is None
    assert rules_of(san) == ["SAN006"]
    assert "not by gids [1]" in san.findings[0].message


# ------------------------------------------------------------------ SAN007
def _dataset():
    specs = (FieldSpec("x", "dense", constant=True),)
    return Dataset.create(
        8, specs, 0, 8, data={"x": np.arange(8.0)}
    )


class _Session:
    """The session fields the self-copy hooks read."""

    def __init__(self, ds):
        self.ctx = type("Ctx", (), {"gid": 0})()
        self.src_dataset = ds
        self.names = ["x"]


def test_san007_memcpy_overlap_race_detected():
    san = Sanitizer()
    ds = _dataset()
    session = _Session(ds)
    san.on_memcpy_begin(session, 0, 4)
    ds.stores["x"].data[1] = 99.0  # BUG: source mutated inside the window
    san.on_memcpy_end(session, 0, 4)
    assert rules_of(san) == ["SAN007"]
    assert san.findings[0].detail == {"lo": 0, "hi": 4, "names": ["x"]}


def test_san007_clean_when_source_untouched():
    san = Sanitizer()
    ds = _dataset()
    session = _Session(ds)
    san.on_memcpy_begin(session, 0, 4)
    ds.stores["x"].data[6] = 99.0  # outside the copy window's rows
    san.on_memcpy_end(session, 0, 4)
    assert san.findings == []


# ------------------------------------------------------------------ SAN008
def test_san008_deadlock_emits_wait_for_graph():
    def main(mpi):
        # BUG: classic head-to-head blocking receives, nobody sends.
        peer = 1 - mpi.rank
        yield from mpi.recv(source=peer, tag=5)

    san, err = run_sanitized(main, 2)
    assert isinstance(err, DeadlockError)
    assert rules_of(san) == ["SAN008"]
    assert {f.rank for f in san.findings} == {0, 1}
    # The error message itself carries the rank -> peer/tag explanation.
    text = str(err)
    assert "wait-for graph" in text
    assert "recv(src=1, tag=5" in text and "recv(src=0, tag=5" in text
    assert "wait cycle: gid 0 -> gid 1 -> gid 0" in text
    # And the structured details survive on the exception object.
    assert any("gid 0: blocked in" in line for line in err.details)


def test_san008_clean_run_has_no_deadlock_details():
    def main(mpi):
        peer = 1 - mpi.rank
        if mpi.rank == 0:
            yield from mpi.send(1.0, dest=peer, tag=5)
            yield from mpi.recv(source=peer, tag=6)
        else:
            yield from mpi.recv(source=peer, tag=5)
            yield from mpi.send(2.0, dest=peer, tag=6)

    san, err = run_sanitized(main, 2)
    assert err is None and san.findings == []


# --------------------------------------------------------------- reporting
def test_report_flush_and_assert_clean():
    def main(mpi):
        if mpi.rank == 1:
            yield from mpi.irecv(source=0, tag=9)  # repro: noqa[REP006] - deliberate fixture
            mpi.finalize()
        else:
            yield from mpi.sleep(0.001)

    san, _err = run_sanitized(main, 2)
    assert "SAN003" in san.report()
    with pytest.raises(SanitizerError) as exc:
        san.assert_clean()
    assert exc.value.findings == san.findings

    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    san.flush_to(reg)
    doc = reg.to_dict()
    assert doc["counters"]["sanitizer_findings{rule=SAN003}"] == 1
    (rec,) = doc["records"]["sanitizer_findings"]
    assert rec["rule"] == "SAN003" and rec["rank"] == 1


def _bare_world():
    from repro.cluster import ETHERNET_10G, Machine
    from repro.simulate import Simulator
    from repro.smpi import MpiWorld

    machine = Machine(Simulator(), 2, 1, ETHERNET_10G, seed=0)
    return MpiWorld(machine)


def test_detached_world_has_no_sanitizer_hooks():
    """Attach/detach symmetry: detach unsubscribes from every emitter."""
    world = _bare_world()
    machine, sim = world.machine, world.sim
    san = Sanitizer().attach(world=world)
    assert world.observers == (san,)
    # world hooks only: the cluster hot paths stay unobserved
    assert machine.network.observers == ()
    assert all(n.observers == () for n in machine.nodes)
    assert san._deadlock_details in sim.diagnostics
    san.detach()
    assert world.observers == ()
    assert sim.diagnostics == []
    with pytest.raises(RuntimeError):
        san.detach()


def test_sanitizers_are_per_world():
    """Two worlds in one process each carry their own sanitizer, and a
    pending-receive read in one world reaches only that world's."""
    world_a, world_b = _bare_world(), _bare_world()
    san_a = Sanitizer().attach(world=world_a)
    san_b = Sanitizer().attach(world=world_b)

    def main(mpi):
        if mpi.rank == 0:
            yield from mpi.sleep(0.01)
            yield from mpi.send(np.arange(4.0), dest=1)
        else:
            req = yield from mpi.irecv(source=0)
            _ = req.data  # BUG: undefined before wait/test under real MPI
            yield from mpi.wait(req)

    world_b.launch(main, slots=range(2))
    world_b.sim.run()
    san_a.detach()
    san_b.detach()
    assert san_a.findings == []
    assert rules_of(san_b) == ["SAN002"]
