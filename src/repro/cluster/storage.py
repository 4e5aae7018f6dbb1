"""Parallel file system model — the substrate of checkpoint/restart.

The paper's Background (§2) contrasts in-memory redistribution with the
traditional on-disk C/R approach whose "low performance [is] because of the
costly disk access".  To make that comparison measurable, this module
models a shared PFS: one write and one read channel of fixed aggregate
bandwidth, fair-shared (max-min) among concurrent I/O operations, with
every transfer also traversing the client node's NIC — so checkpoint
traffic and application/redistribution traffic contend realistically.

Stored bytes optionally carry real payloads (per row-range segments), so a
restart can reconstruct datasets exactly, mirroring how the simulated MPI
carries real data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..simulate.events import SimEvent
from .cpu import Node
from .machine import Machine

__all__ = ["FileSegment", "ParallelFileSystem"]


@dataclass(frozen=True)
class FileSegment:
    """One contiguous row-range of one field inside a checkpoint file."""

    field_name: str
    lo: int
    hi: int
    nbytes: int
    payload: Any = None


class ParallelFileSystem:
    """A shared storage target attached to a :class:`Machine`.

    Parameters are deliberately HPC-typical: aggregate write bandwidth a
    few GB/s shared by all writers (far below the sum of NIC bandwidths),
    read bandwidth slightly higher, and a per-operation latency for
    metadata/seek costs.
    """

    def __init__(
        self,
        machine: Machine,
        write_bandwidth: float = 2.0e9,
        read_bandwidth: float = 3.0e9,
        op_latency: float = 2e-3,
    ):
        if write_bandwidth <= 0 or read_bandwidth <= 0:
            raise ValueError("PFS bandwidths must be > 0")
        if op_latency < 0:
            raise ValueError("PFS latency must be >= 0")
        self.machine = machine
        self.op_latency = op_latency
        net = machine.network
        self._write_link = net.add_link("pfs.write", write_bandwidth)
        self._read_link = net.add_link("pfs.read", read_bandwidth)
        #: file name -> list of segments, in write order.
        self._files: dict[str, list[FileSegment]] = {}
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    # ------------------------------------------------------------------- I/O
    def write(
        self, node: Node, name: str, segments: list[FileSegment]
    ) -> SimEvent:
        """Write segments as one file; returns the completion event.

        The transfer shares the writer's up-NIC and the PFS write channel.
        The file becomes visible only at completion (atomic rename
        semantics, like real checkpoint libraries).
        """
        nbytes = sum(s.nbytes for s in segments)
        route = [self.machine._up[node.node_id], self._write_link]
        ev = self.machine.network.start_flow(
            route, nbytes, latency=self.op_latency, label=f"pfs-write:{name}"
        )
        self.bytes_written += nbytes

        def commit(_ev):
            self._files[name] = list(segments)

        ev.add_callback(commit)
        return ev

    def read(
        self, node: Node, name: str, segments: Optional[list[FileSegment]] = None
    ) -> SimEvent:
        """Read a file (or a subset of its segments); completion event
        carries the list of segments read."""
        stored = self._files.get(name)
        if stored is None:
            raise FileNotFoundError(f"PFS has no file {name!r}")
        wanted = stored if segments is None else segments
        nbytes = sum(s.nbytes for s in wanted)
        route = [self._read_link, self.machine._down[node.node_id]]
        ev = self.machine.network.start_flow(
            route, nbytes, latency=self.op_latency, label=f"pfs-read:{name}"
        )
        self.bytes_read += nbytes
        done = self.machine.sim.event(name=f"pfs-read-done:{name}")
        ev.add_callback(lambda _ev: done.trigger(list(wanted)))
        return done

    # ---------------------------------------------------------------- lookup
    def exists(self, name: str) -> bool:
        return name in self._files

    def segments_of(self, name: str) -> list[FileSegment]:
        if name not in self._files:
            raise FileNotFoundError(f"PFS has no file {name!r}")
        return list(self._files[name])

    def files(self) -> list[str]:
        return sorted(self._files)
