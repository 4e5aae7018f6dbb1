"""Network fabric presets.

The two fabrics evaluated in the paper (§4.3):

* Ethernet 10 Gb/s (MPICH 3.4.1, CH3:Nemesis netmod),
* Infiniband EDR 100 Gb/s (MPICH 4.0.3, CH4:OFI netmod).

Parameters follow a LogGP-flavoured decomposition: per-message wire+protocol
latency, NIC bandwidth, per-message CPU overhead at each endpoint, and the
eager/rendezvous threshold that decides whether a message needs both sides
inside the MPI progress engine before the payload moves (see
``repro.smpi.progress``).

Absolute values are representative, not measured on the authors' cluster;
the reproduction targets result *shape* (orderings, crossovers), which is
governed by the bandwidth/latency ratio between the fabrics rather than the
exact constants.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FabricSpec", "ETHERNET_10G", "INFINIBAND_EDR", "MEMORY_CHANNEL", "fabric_by_name"]


@dataclass(frozen=True)
class FabricSpec:
    """Timing parameters of one interconnect."""

    name: str
    #: NIC bandwidth, bytes/second (full duplex: one up + one down link each).
    bandwidth: float
    #: per-message one-way latency, seconds.
    latency: float
    #: CPU time charged to each endpoint per message (LogP 'o'), seconds.
    cpu_overhead: float
    #: messages strictly larger than this use the rendezvous protocol.
    eager_threshold: int
    #: receiver-side payload processing rate, bytes/second of *CPU work*
    #: (0 disables).  Models the touch-copy cost of TCP-style transports:
    #: on Ethernet the receiving process burns CPU proportional to the
    #: message size, so oversubscribed nodes also communicate slower —
    #: the coupling behind the paper's thread-strategy (T) penalties.
    #: RDMA fabrics bypass the CPU, hence a much higher rate.
    copy_rate: float = 0.0
    #: hardware one-sided support: RMA ops complete without target-side
    #: progress.  Non-RDMA fabrics run passive-target RMA through a
    #: software agent, so large (rendezvous-sized) one-sided payloads only
    #: land while the target is inside an MPI call — the same progress
    #: artifact that shapes the two-sided asynchronous strategies.
    rdma: bool = False

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"{self.name}: bandwidth must be > 0")
        if self.latency < 0 or self.cpu_overhead < 0:
            raise ValueError(f"{self.name}: latency/overhead must be >= 0")
        if self.eager_threshold < 0:
            raise ValueError(f"{self.name}: eager threshold must be >= 0")

    def transfer_time(self, nbytes: float) -> float:
        """Uncontended wire time of one message (latency + serialisation)."""
        return self.latency + nbytes / self.bandwidth


#: 10 Gb/s Ethernet: high latency, modest bandwidth (1.25 GB/s), and a
#: CPU-bound TCP receive path (copies cost real cycles).
ETHERNET_10G = FabricSpec(
    name="ethernet",
    bandwidth=1.25e9,
    latency=50e-6,
    cpu_overhead=5e-6,
    eager_threshold=64 * 1024,
    copy_rate=3.0e9,
)

#: EDR Infiniband: 100 Gb/s (12.5 GB/s), ~1.5 us latency, RDMA receive path
#: (near-zero CPU per byte).
INFINIBAND_EDR = FabricSpec(
    name="infiniband",
    bandwidth=12.5e9,
    latency=1.5e-6,
    cpu_overhead=0.5e-6,
    eager_threshold=16 * 1024,
    copy_rate=60.0e9,
    rdma=True,
)

#: Intra-node shared-memory channel (per-copy bandwidth of one memcpy
#: stream; the copy itself is the transfer, so no extra CPU charge).
MEMORY_CHANNEL = FabricSpec(
    name="memory",
    bandwidth=12.0e9,
    latency=0.3e-6,
    cpu_overhead=0.2e-6,
    eager_threshold=1 << 30,
    copy_rate=0.0,
    rdma=True,
)

_BY_NAME = {
    "ethernet": ETHERNET_10G,
    "infiniband": INFINIBAND_EDR,
    "memory": MEMORY_CHANNEL,
}


def fabric_by_name(name: str) -> FabricSpec:
    """Look up a preset by name (``ethernet`` / ``infiniband``)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown fabric {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None
