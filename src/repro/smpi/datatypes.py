"""Payload handling and MPI-style constants for the simulated MPI layer.

Payloads are real Python objects (numpy arrays, scalars, tuples...) carried
through the simulated network, so correctness of redistribution and of the
distributed solvers can be asserted on actual data, not just on timings.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["ANY_SOURCE", "ANY_TAG", "Blob", "BufferPayload", "payload_nbytes",
           "copy_payload"]

#: wildcard source rank for receives (mirrors MPI_ANY_SOURCE).
ANY_SOURCE = -1
#: wildcard tag for receives (mirrors MPI_ANY_TAG).
ANY_TAG = -1


class Blob:
    """A payload that *is* only its wire size.

    The synthetic application moves gigabytes it never materialises; a Blob
    carries the declared size through the timing model without allocating.
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: float):
        if nbytes < 0:
            raise ValueError("Blob size must be >= 0")
        self.nbytes = float(nbytes)

    @property
    def __sim_nbytes__(self) -> float:
        return self.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Blob {self.nbytes:.3g}B>"


class BufferPayload:
    """Base of payload types made of array buffers (the stores' ``CsrPiece``):
    :func:`copy_payload` snapshots them with their own ``copy()``."""

    __slots__ = ()


def payload_nbytes(payload: Any) -> int:
    """Best-effort wire size of a payload, in bytes.

    Objects may declare their size via a ``__sim_nbytes__`` attribute
    (:class:`Blob`); numpy arrays report their true buffer size; python
    scalars count as one 8-byte word; containers are the sum of their items
    plus a small header.  Callers that know better (e.g. sparse structures)
    pass ``nbytes=`` explicitly to the send calls.
    """
    declared = getattr(payload, "__sim_nbytes__", None)
    if declared is not None:
        return int(declared)
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, np.generic):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (int, float, complex, bool)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, (tuple, list)):
        return 16 + sum(payload_nbytes(x) for x in payload)
    if isinstance(payload, dict):
        return 16 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
        )
    # Opaque object: charge a pickled-pointer-ish token size.
    return 64


def copy_payload(payload: Any) -> Any:
    """Snapshot a payload at send time (MPI buffer-copy semantics).

    Without this, a sender mutating its array after ``isend`` would corrupt
    in-flight data — precisely the bug class MPI's semantics rule out.
    This is the one sender-side copy: payloads may be read-only views of
    the sender's buffers.  A :class:`BufferPayload`, scipy sparse matrix or
    sparse array holds buffers too and copies itself.  Immutable objects are
    returned as-is.
    """
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, (list,)):
        return [copy_payload(x) for x in payload]
    if isinstance(payload, dict):
        return {k: copy_payload(v) for k, v in payload.items()}
    if isinstance(payload, tuple):
        return tuple(copy_payload(x) for x in payload)
    if isinstance(payload, BufferPayload):
        return payload.copy()
    # Any scipy sparse matrix or array, recognised without importing scipy.
    if type(payload).__module__.startswith("scipy.sparse"):
        return payload.copy()
    return payload
