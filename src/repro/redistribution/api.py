"""Public façade of the redistribution package: enums + factory.

The paper's configuration space (§4.3) is the cross product of

* Stage-2 spawn method: ``BASELINE`` | ``MERGE`` (from [16]),
* Stage-3 redistribution method: ``P2P`` | ``COL`` (this paper's §3.1)
  | ``RMA`` (one-sided passive-target sessions, the §5 arm),
* overlap strategy: ``S`` synchronous | ``A`` non-blocking | ``T`` threads
  (§3.2),

giving the 18 configurations of the evaluation matrix.  This module owns
the Stage-3 axes; the spawn method lives in :mod:`repro.malleability`.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional, Sequence, TypeVar

from .collective import ColRedistribution
from .p2p import P2PRedistribution
from .plan import RedistributionPlan
from .session import RedistributionSession
from .stores import Dataset

__all__ = ["RedistMethod", "Strategy", "make_session", "parse_choice"]

_T = TypeVar("_T")


def _norm(text: str) -> str:
    """Canonical token: lowercase, separators (``-_ .``) stripped."""
    norm = str(text).strip().lower()
    for ch in "-_ .":
        norm = norm.replace(ch, "")
    return norm


def parse_choice(
    text: str,
    choices: Mapping[str, _T],
    kind: str,
    valid: Sequence[str],
    aliases: Sequence[str] = (),
) -> _T:
    """The one case/separator-tolerant parser behind every harness enum.

    ``choices`` maps *normalized* tokens (see :func:`_norm`) to values;
    ``valid`` is the human-facing spelling list used in the error message
    and ``aliases`` the accepted long forms, listed uniformly across
    :class:`RedistMethod`, :class:`Strategy` and
    :class:`~repro.malleability.SpawnMethod`::

        unknown <kind> '<text>'; valid choices: A, B, C (aliases: x, y)
    """
    try:
        return choices[_norm(text)]
    except KeyError:
        hint = f" (aliases: {', '.join(aliases)})" if aliases else ""
        raise ValueError(
            f"unknown {kind} {text!r}; valid choices: {', '.join(valid)}{hint}"
        ) from None


class RedistMethod(enum.Enum):
    """How Stage 3 moves the bytes (paper §3.1)."""

    P2P = "p2p"
    COL = "col"
    #: the paper's §5 extension, first-class since the 18-config matrix:
    #: passive-target one-sided puts/gets.
    RMA = "rma"

    @classmethod
    def parse(cls, text: str) -> "RedistMethod":
        return parse_choice(
            text,
            {
                "p2p": cls.P2P,
                "pointtopoint": cls.P2P,
                "col": cls.COL,
                "collective": cls.COL,
                "rma": cls.RMA,
                "onesided": cls.RMA,
            },
            "redistribution method",
            ("P2P", "COL", "RMA"),
            aliases=("point-to-point", "collective", "one-sided"),
        )


class Strategy(enum.Enum):
    """Whether/how Stage 2+3 overlap the application (paper §3.2).

    Figure legends use the suffix letters: ``S`` synchronous, ``A``
    asynchronous via non-blocking MPI, ``T`` asynchronous via aux threads.
    """

    SYNC = "S"
    ASYNC_NONBLOCKING = "A"
    ASYNC_THREAD = "T"

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        return parse_choice(
            text,
            {
                "s": cls.SYNC,
                "sync": cls.SYNC,
                "synchronous": cls.SYNC,
                "a": cls.ASYNC_NONBLOCKING,
                "async": cls.ASYNC_NONBLOCKING,
                "nonblocking": cls.ASYNC_NONBLOCKING,
                "asyncnonblocking": cls.ASYNC_NONBLOCKING,
                "t": cls.ASYNC_THREAD,
                "thread": cls.ASYNC_THREAD,
                "threads": cls.ASYNC_THREAD,
                "asyncthread": cls.ASYNC_THREAD,
            },
            "strategy",
            ("S", "A", "T"),
            aliases=("sync", "async", "non-blocking", "thread"),
        )

    @property
    def is_async(self) -> bool:
        return self is not Strategy.SYNC


def make_session(
    method: "RedistMethod | str",
    ctx,
    comm,
    plan: RedistributionPlan,
    names: list[str],
    *,
    src_rank: Optional[int] = None,
    dst_rank: Optional[int] = None,
    src_dataset: Optional[Dataset] = None,
    dst_dataset: Optional[Dataset] = None,
    label: str = "redist",
    variant: Optional[str] = None,
) -> RedistributionSession:
    """Build this rank's Stage-3 session for the chosen method.

    The single validated construction path of the whole stack: the
    manager, the thread/async drivers and the tests all come through here,
    so every option is checked once, with a uniform error vocabulary.

    ``method`` may be a :class:`RedistMethod` or any string its tolerant
    parser accepts (``"RMA"``, ``"col"``, ``"one-sided"``...).  Unknown
    methods fail *at the factory* with the choice list; role/dataset
    mismatches fail in the session constructor with a named-argument
    message, instead of deep inside the manager.

    ``variant`` selects the RMA data-movement direction:
    ``"origin"``/``"put"`` (sources drive; the default) or
    ``"target"``/``"get"`` (targets drive).  Setting it for P2P/COL is an
    error — those methods have no direction to choose.
    """
    if isinstance(method, str):
        method = RedistMethod.parse(method)
    kwargs = dict(
        src_rank=src_rank,
        dst_rank=dst_rank,
        src_dataset=src_dataset,
        dst_dataset=dst_dataset,
        label=label,
    )
    if method is RedistMethod.RMA:
        from .rma import RmaRedistribution

        if variant is not None:
            kwargs["variant"] = parse_choice(
                variant,
                {
                    "origin": "origin",
                    "origindriven": "origin",
                    "put": "origin",
                    "target": "target",
                    "targetdriven": "target",
                    "get": "target",
                },
                "RMA variant",
                ("origin", "target"),
                aliases=("origin-driven", "put", "target-driven", "get"),
            )
        return RmaRedistribution(ctx, comm, plan, names, **kwargs)
    if variant is not None:
        raise ValueError(
            f"variant={variant!r} only applies to the RMA method, "
            f"not {method.name}"
        )
    cls = P2PRedistribution if method is RedistMethod.P2P else ColRedistribution
    return cls(ctx, comm, plan, names, **kwargs)
