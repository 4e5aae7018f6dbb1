"""Deterministic fault injection and recovery for the malleability stack.

The paper's premise is that malleability lets jobs ride out resource
changes without touching disk; its companion work motivates shrink-on-demand
as the reaction to *cluster events* — node failures, degraded links,
straggling hosts.  This package makes those events first-class:

* :class:`FaultSchedule` — a parsed, seeded, fully deterministic list of
  fault events (``crash@12.5:node=1;straggler@3:node=0,factor=0.5``);
* :class:`FaultInjector` — replays a schedule against one simulation
  (``Node.fail``/``Link`` degradation/``kill_now`` + dead-rank marking).

See ``docs/faults.md`` for the spec grammar and the malleability manager's
recovery ladder: retries, then shrink, then checkpoint/restart.
"""

from .injector import FaultInjector
from .schedule import FaultEvent, FaultSchedule

__all__ = ["FaultEvent", "FaultSchedule", "FaultInjector"]
