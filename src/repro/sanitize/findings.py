"""Finding objects and the rule catalog shared by the runtime sanitizer
(`SAN0xx`, :mod:`repro.sanitize.runtime`), the static determinism lint
(`REP0xx`, :mod:`repro.sanitize.lint`) and the static plan/protocol
verifier (`STA0xx`, :mod:`repro.sanitize.static_check`).

Every finding carries a stable rule code, a human message, and — for the
runtime rules — rank/ctx/tag provenance plus the simulated time at which
the hazard was observed.  Findings are plain data: deterministic ordering
(:meth:`Finding.sort_key`) and JSON round-tripping (:meth:`Finding.to_dict`)
are what let them flow into the obs registry as
``sanitizer_findings{rule=...}`` counters and ``sanitizer_findings``
records without disturbing the byte-identical-exports invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "Finding",
    "SAN_RULES",
    "REP_RULES",
    "STA_RULES",
    "ALL_RULES",
]


#: runtime rules — detected by :class:`repro.sanitize.runtime.Sanitizer`
#: attached to a live :class:`~repro.smpi.world.MpiWorld`.
SAN_RULES: dict[str, str] = {
    "SAN001": "send-buffer race: origin buffer of a pending isend/win_put "
              "was modified before the operation completed locally",
    "SAN002": "recv-buffer race: req.data of a receive was read while the "
              "request was still pending",
    "SAN003": "request leak: a request was still pending when its rank "
              "finalized",
    "SAN004": "unmatched message: traffic arrived at a rank and was never "
              "consumed by a matching receive before finalize",
    "SAN005": "communicator use-after-abort: an operation was issued on a "
              "communicator a recovery policy already abandoned",
    "SAN006": "alltoallv count mismatch: members of one collective call "
              "declared inconsistent send/recv pairings",
    "SAN007": "memcpy overlap race: the local source range of a "
              "redistribution self-copy was modified during the copy window",
    "SAN008": "deadlock: rank blocked forever on a peer (see the wait-for "
              "graph in the finding message)",
    "SAN009": "RMA epoch leak: a passive-target lock epoch (win_lock) was "
              "still open when its origin rank finalized",
}

#: static rules — detected by ``python -m repro.sanitize.lint`` over source.
REP_RULES: dict[str, str] = {
    "REP001": "wall-clock call (time.time/monotonic/perf_counter, "
              "datetime.now/utcnow) in simulation code; use sim.now",
    "REP002": "unseeded randomness (random.* module functions or the "
              "np.random global generator); use np.random.default_rng(seed)",
    "REP003": "iteration over a bare set expression: set order is not a "
              "deterministic contract; sort it or use dict.fromkeys",
    "REP004": "bare 'except:' swallows everything including ProcessKilled; "
              "name the exceptions",
    "REP005": "hot-path class without __slots__ (kernel commands, "
              "requests, messages are allocated at very high rates)",
    "REP006": "isend/irecv result discarded or never waited/tested: the "
              "request can never be completed-checked (leak at finalize)",
    "REP008": "dict-iteration order leaked into a wire/CSV record: sort the "
              "view (or use an explicit ordering) before serialising",
    "REP009": "unseeded randomness reachable through a local call chain "
              "from this call site; thread a seeded Generator instead",
    "REP010": "mutable default argument ([]/{} /set()) in a hot-path "
              "module: defaults are shared across calls",
}

#: static plan/protocol rules — detected by
#: ``repro-harness verify-plans`` without executing the simulator.
STA_RULES: dict[str, str] = {
    "STA001": "plan conservation violation: bytes/rows sent by sources do "
              "not equal bytes/rows received by targets",
    "STA002": "plan coverage violation: target layout has a gap or overlap "
              "(some row is delivered zero or more than one time)",
    "STA003": "plan range violation: a transfer reads rows outside its "
              "source rank's owned range (or is empty/inverted)",
    "STA004": "unmatched traffic: a symbolic send/put has no matching "
              "receive/notification budget on the peer (or vice versa)",
    "STA005": "collective asymmetry: members of one collective disagree on "
              "participation or alltoallv count pairings",
    "STA006": "blocking-dependency cycle: the symbolic schedule cannot be "
              "retired in any order (static deadlock)",
    "STA007": "RMA lock-order hazard: exclusive lock acquisition order is "
              "inconsistent (or concurrent) across origins sharing targets",
    "STA008": "RMA epoch leak: a lock epoch opened in the schedule is never "
              "unlocked before finish",
}

ALL_RULES: dict[str, str] = {**SAN_RULES, **REP_RULES, **STA_RULES}


@dataclass
class Finding:
    """One sanitizer/lint observation.

    Runtime findings fill the provenance fields (``rank`` is the MPI gid,
    ``ctx`` the communicator context id, ``tag`` the message tag, ``t`` the
    simulated time); lint findings fill ``path``/``line``/``col`` instead.
    """

    rule: str
    message: str
    rank: Optional[int] = None
    ctx: Optional[int] = None
    tag: Optional[int] = None
    t: Optional[float] = None
    path: Optional[str] = None
    line: Optional[int] = None
    col: Optional[int] = None
    #: free-form extras (peer gid, request kind, ...), JSON-serialisable.
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rule not in ALL_RULES:
            raise ValueError(f"unknown sanitizer rule code {self.rule!r}")

    # -------------------------------------------------------------- exports
    def sort_key(self) -> tuple:
        """Deterministic ordering: code, then provenance, then message."""
        return (
            self.rule,
            self.path or "",
            self.line if self.line is not None else -1,
            self.col if self.col is not None else -1,
            self.t if self.t is not None else -1.0,
            self.rank if self.rank is not None else -1,
            self.ctx if self.ctx is not None else -1,
            self.tag if self.tag is not None else 0,
            self.message,
        )

    def to_dict(self) -> dict:
        out: dict = {"rule": self.rule, "message": self.message}
        for key in ("rank", "ctx", "tag", "t", "path", "line", "col"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.detail:
            out["detail"] = dict(self.detail)
        return out

    def format(self) -> str:
        """Render one line: provenance prefix + code + message."""
        if self.path is not None:
            where = f"{self.path}:{self.line}:{self.col}"
        else:
            bits = []
            if self.t is not None:
                bits.append(f"t={self.t:.6f}")
            if self.rank is not None:
                bits.append(f"gid={self.rank}")
            if self.ctx is not None:
                bits.append(f"ctx={self.ctx}")
            if self.tag is not None:
                bits.append(f"tag={self.tag}")
            where = "[" + " ".join(bits) + "]" if bits else "[run]"
        return f"{where} {self.rule} {self.message}"
