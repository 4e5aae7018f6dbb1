"""Live RMS decisions for running jobs.

The core engine's :class:`~repro.malleability.rms.ScriptedRMS` reads a
job's decisions from one shared list; a :class:`DecisionBoard` is that list
made live: a scheduler appends reconfiguration decisions while the job
runs, and every rank's view sees them at its next checkpoint.  The safety
rule: a decision may only fire at an iteration no rank has checkpointed
yet, otherwise part of the group would enter the collective
reconfiguration and the rest would not (deadlock).  The board therefore
targets ``latest_checked_iteration + margin``.
"""

from __future__ import annotations

from typing import Optional

from ..malleability.rms import ReconfigRequest
from ..malleability.stats import RunStats

__all__ = ["DecisionBoard"]


class DecisionBoard:
    """Shared, append-only list of reconfiguration decisions for one job."""

    #: iterations of headroom between the latest checkpoint any rank has
    #: passed and a new decision's firing point.
    SAFETY_MARGIN = 2

    def __init__(self, stats: RunStats):
        self.stats = stats
        self.decisions: list[ReconfigRequest] = []

    def post(self, n_targets: int) -> Optional[ReconfigRequest]:
        """Schedule a resize to ``n_targets`` at the earliest safe iteration.

        Returns the request, or ``None`` if the previous decision has not
        fired yet (one in-flight reconfiguration at a time — the paper's
        engine serialises reconfigurations anyway).
        """
        at = self.stats.latest_checked_iteration + self.SAFETY_MARGIN
        if self.decisions:
            last = self.decisions[-1]
            if len(self.stats.reconfigs) < len(self.decisions) or (
                self.stats.reconfigs
                and self.stats.reconfigs[-1].data_complete_at is None
                and len(self.stats.reconfigs) == len(self.decisions)
            ):
                return None  # previous decision still in flight
            at = max(at, last.at_iteration + 1)
        req = ReconfigRequest(at_iteration=at, n_targets=n_targets)
        self.decisions.append(req)
        return req
