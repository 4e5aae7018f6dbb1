"""Communicators: intra- and inter-, with the semantics malleability needs.

A communicator is identified by a *context id* shared by every process using
it (and by both sides of an inter-communicator) — the matching engine keys
envelopes on ``(ctx_id, sender, tag)`` exactly like a real MPI.

The spawn methods of the paper map onto the two flavours:

* **Baseline** reconfigurations talk through the *inter-communicator*
  returned by ``Comm_spawn`` (sources = local group, targets = remote group);
* **Merge** reconfigurations first merge it into an *intra-communicator*
  (``Intercomm_merge``) where sources occupy the low ranks.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["Communicator"]


class Communicator:
    """One side's view of a communicator.

    ``group`` is the tuple of *global process ids* (gids) of the local group;
    ``remote_group`` is set only for inter-communicators.  P2P destination
    ranks index the remote group on an inter-communicator and the local
    group on an intra-communicator, mirroring MPI.
    """

    def __init__(
        self,
        ctx_id: int,
        group: Sequence[int],
        remote_group: Optional[Sequence[int]] = None,
        name: str = "",
    ):
        if len(set(group)) != len(group):
            raise ValueError("communicator group has duplicate members")
        if remote_group is not None:
            if len(set(remote_group)) != len(remote_group):
                raise ValueError("remote group has duplicate members")
            if set(group) & set(remote_group):
                raise ValueError(
                    "inter-communicator local and remote groups must be disjoint"
                )
            if len(remote_group) == 0:
                raise ValueError("remote group may not be empty")
        if len(group) == 0:
            raise ValueError("communicator group may not be empty")
        self.ctx_id = ctx_id
        self.group = tuple(group)
        self.remote_group = tuple(remote_group) if remote_group is not None else None
        #: every gid of both groups (the local group of an intra-communicator).
        self.members = self.group + (self.remote_group or ())
        self.name = name or f"comm{ctx_id}"
        self._local_index = {gid: i for i, gid in enumerate(self.group)}

    # ------------------------------------------------------------------ shape
    @property
    def is_inter(self) -> bool:
        return self.remote_group is not None

    @property
    def size(self) -> int:
        """Local group size (MPI_Comm_size semantics)."""
        return len(self.group)

    @property
    def remote_size(self) -> int:
        """Remote group size; equals :attr:`size` on an intra-communicator,
        so P2P/collective code can be written once for both flavours."""
        return len(self.remote_group) if self.is_inter else len(self.group)

    # ---------------------------------------------------------------- lookups
    def rank_of_gid(self, gid: int) -> int:
        """Local rank of a member gid (raises if not a member)."""
        try:
            return self._local_index[gid]
        except KeyError:
            raise KeyError(f"gid {gid} not in local group of {self.name}") from None

    def contains_gid(self, gid: int) -> bool:
        return gid in self._local_index

    def peer_gid(self, rank: int) -> int:
        """gid of P2P peer ``rank``: remote group if inter, local if intra."""
        table = self.remote_group if self.is_inter else self.group
        if not 0 <= rank < len(table):
            raise IndexError(
                f"{self.name}: peer rank {rank} out of range 0..{len(table) - 1}"
            )
        return table[rank]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "inter" if self.is_inter else "intra"
        return f"<Communicator {self.name} {kind} {self.size}{'+' + str(self.remote_size) if self.is_inter else ''}>"
