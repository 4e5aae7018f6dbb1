"""Scripted Resource Management System stub.

The paper's synthetic tool "emulates the RMS demands" (§4.1): the decision
of *when* and *to how many processes* a job reconfigures is read from the
configuration file, not negotiated with a live Slurm.  :class:`ScriptedRMS`
plays that role; talking to a real RMS is the paper's own future work (§5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ReconfigRequest", "ScriptedRMS"]


@dataclass(frozen=True)
class ReconfigRequest:
    """Reconfigure to ``n_targets`` processes at iteration ``at_iteration``."""

    at_iteration: int
    n_targets: int

    def __post_init__(self):
        if self.at_iteration < 0:
            raise ValueError("at_iteration must be >= 0")
        if self.n_targets < 1:
            raise ValueError("n_targets must be >= 1")


class ScriptedRMS:
    """Replays a schedule of reconfiguration decisions with a per-rank cursor.

    ``check(iteration)`` is the checkpoint's "contact the RMS" call: it
    returns the pending :class:`ReconfigRequest` when the application has
    reached (or passed) its iteration, else ``None``.  Each request fires
    exactly once per view.

    ``requests`` is read in place, not copied, so every rank's view of one
    job shares one list: a scripted schedule, or a list that a live RMS
    appends to in increasing iteration order (``repro.rmsim``'s
    :class:`~repro.rmsim.board.DecisionBoard`).  A scripted schedule given
    out of order is sorted into a copy; two requests at one iteration are
    rejected.  ``consumed`` counts the requests fired so far; ``skip``
    starts it past those a group's ancestors already consumed.
    """

    def __init__(self, requests: list[ReconfigRequest], skip: int = 0):
        ats = [r.at_iteration for r in requests]
        if ats != sorted(ats):
            requests = sorted(requests, key=lambda r: r.at_iteration)
            ats.sort()
        for a, b in zip(ats, ats[1:]):
            if a == b:
                raise ValueError(f"two reconfigurations scheduled at iteration {a}")
        self.requests = requests
        self.consumed = skip

    def check(self, iteration: int) -> Optional[ReconfigRequest]:
        """The checkpoint protocol: has the RMS decided to reconfigure us?"""
        if self.consumed < len(self.requests):
            req = self.requests[self.consumed]
            if iteration >= req.at_iteration:
                self.consumed += 1
                return req
        return None

    @property
    def exhausted(self) -> bool:
        return self.consumed >= len(self.requests)
