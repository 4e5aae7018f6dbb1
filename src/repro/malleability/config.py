"""The 18-configuration reconfiguration matrix.

A configuration is ``(spawn method, redistribution method, strategy)``:
``{Baseline, Merge} x {P2P, COL, RMA} x {S, A, T}``.  The paper's
evaluation (§4.3) covers the 12 two-sided cells; the RMA arm is its §5
future-work extension, promoted to a first-class method with the same
strategy axis.  Figure legends name them e.g. "Merge COLS", "Baseline
P2PA", "Merge RMAT" — :attr:`ReconfigConfig.name` matches that convention
so harness output lines up with the paper's plots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..redistribution.api import RedistMethod, Strategy, parse_choice

__all__ = ["SpawnMethod", "ReconfigConfig", "ALL_CONFIGS", "PAPER_CONFIGS",
           "SYNC_CONFIGS", "ASYNC_CONFIGS"]


class SpawnMethod(enum.Enum):
    """Stage-2 process-management method (companion paper [16]).

    * ``BASELINE`` — always spawn NT new processes; all NS sources finalize
      after the redistribution (inter-communicator data path).
    * ``MERGE`` — spawn only ``max(0, NT-NS)`` processes; persisting sources
      become the low-rank targets (merged intra-communicator data path).
    """

    BASELINE = "baseline"
    MERGE = "merge"

    @classmethod
    def parse(cls, text: str) -> "SpawnMethod":
        return parse_choice(
            text,
            {"baseline": cls.BASELINE, "merge": cls.MERGE},
            "spawn method",
            ("Baseline", "Merge"),
        )


@dataclass(frozen=True)
class ReconfigConfig:
    """One of the evaluated reconfiguration configurations."""

    spawn: SpawnMethod
    redist: RedistMethod
    strategy: Strategy

    @property
    def name(self) -> str:
        """Paper-style legend name, e.g. ``Merge COLS``, ``Baseline P2PA``."""
        return (
            f"{self.spawn.value.capitalize()} "
            f"{self.redist.value.upper()}{self.strategy.value}"
        )

    @property
    def key(self) -> str:
        """Stable machine-friendly id, e.g. ``merge-col-s``."""
        return f"{self.spawn.value}-{self.redist.value}-{self.strategy.value.lower()}"

    @classmethod
    def parse(cls, text: str) -> "ReconfigConfig":
        """Parse ``merge-col-s`` / ``Baseline P2PA`` style strings."""
        norm = text.replace("_", "-").replace(" ", "-").lower()
        parts = [p for p in norm.split("-") if p]
        if len(parts) == 2 and len(parts[1]) >= 4:
            # "Merge COLS" -> ["merge", "cols"]: split trailing strategy letter.
            parts = [parts[0], parts[1][:-1], parts[1][-1]]
        if len(parts) != 3:
            raise ValueError(f"cannot parse configuration {text!r}")
        return cls(
            SpawnMethod.parse(parts[0]),
            RedistMethod.parse(parts[1]),
            Strategy.parse(parts[2]),
        )

    def __str__(self) -> str:
        return self.name


def _all_configs() -> tuple[ReconfigConfig, ...]:
    return tuple(
        ReconfigConfig(sp, rd, st)
        for sp in (SpawnMethod.BASELINE, SpawnMethod.MERGE)
        for rd in (RedistMethod.P2P, RedistMethod.COL, RedistMethod.RMA)
        for st in (Strategy.SYNC, Strategy.ASYNC_NONBLOCKING, Strategy.ASYNC_THREAD)
    )


#: the 18 configurations (paper's 12 + the RMA arm), in a stable order.
ALL_CONFIGS: tuple[ReconfigConfig, ...] = _all_configs()
#: the paper's 12 two-sided configurations, the scope of its claims.
PAPER_CONFIGS = tuple(c for c in ALL_CONFIGS if c.redist is not RedistMethod.RMA)
#: the 6 synchronous ones (Figures 2 and 3 use their two-sided subset).
SYNC_CONFIGS = tuple(c for c in ALL_CONFIGS if c.strategy is Strategy.SYNC)
#: the 12 asynchronous ones (Figures 4 and 5 use their two-sided subset).
ASYNC_CONFIGS = tuple(c for c in ALL_CONFIGS if c.strategy is not Strategy.SYNC)
