"""`repro.sanitize` — MPI-correctness sanitizer + determinism lint +
static plan/protocol verifier.

Three complementary checkers for the simulated stack:

* :class:`Sanitizer` (runtime, rules ``SAN0xx``): subscribes to a live
  :class:`~repro.smpi.world.MpiWorld`'s observers, like the Tracer and
  MetricsProbe (one empty-tuple test per event detached), and observes
  buffer races, request leaks, unmatched traffic, aborted-communicator
  use, inconsistent vector collectives and deadlock wait-for-graphs.
* :mod:`repro.sanitize.lint` (static, rules ``REP0xx``): a symbol-table
  AST lint over ``src/`` run as ``python -m repro.sanitize.lint`` that
  enforces the repo's determinism invariants (no wall-clock, no unseeded
  randomness — direct or via local call chains, no bare-set iteration,
  no bare ``except``, ``__slots__`` and immutable defaults on hot-path
  classes, no dropped isend/irecv requests, dict-ordering discipline at
  the wire boundary).
* :mod:`repro.sanitize.static_check` (static, rules ``STA0xx``): the
  plan & protocol verifier, run as ``repro-harness verify-plans``.  It
  proves redistribution plans
  conserve bytes and tile both layouts, then takes the op programs the
  P2P/COL/RMA sessions execute and checks tag matching, collective
  symmetry, deadlock freedom and RMA epoch discipline — before any
  simulation runs.  (Not imported here: it pulls in the redistribution
  stack, which the lint and runtime sanitizer must not depend on.)

All three produce :class:`~repro.sanitize.findings.Finding` objects with
stable rule codes; runtime findings export into an obs registry as
``sanitizer_findings{rule=...}``.
"""

from .findings import ALL_RULES, Finding, REP_RULES, SAN_RULES, STA_RULES
from .runtime import Sanitizer, SanitizerError, fingerprint_payload

__all__ = [
    "ALL_RULES",
    "Finding",
    "REP_RULES",
    "SAN_RULES",
    "STA_RULES",
    "Sanitizer",
    "SanitizerError",
    "fingerprint_payload",
]
