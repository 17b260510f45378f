"""Lustre File Identifiers (FIDs).

A FID is the cluster-wide unique identifier of a Lustre object, printed
as ``[0x200000402:0xa046:0x0]`` — a 64-bit *sequence*, a 32-bit *object
id* within the sequence and a 32-bit *version*.  Sequence ranges are
granted to servers by the sequence controller, so each MDT allocates
from its own disjoint range — which is how we model DNE: a FID's
sequence identifies the MDT that owns the object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import LustreError

#: First sequence usable for normal (client-visible) objects; lower
#: sequences are reserved (matches Lustre's FID_SEQ_NORMAL = 0x200000400).
FID_SEQ_NORMAL = 0x200000400

#: Width of the sequence range granted to each MDT in this model.
SEQUENCE_RANGE_PER_MDT = 0x10000

#: The well-known FID of the filesystem root (Lustre uses a fixed root FID).
ROOT_FID_SEQ = 0x200000007

_FID_RE = re.compile(
    r"^\[?(0x[0-9a-fA-F]+|\d+):(0x[0-9a-fA-F]+|\d+):(0x[0-9a-fA-F]+|\d+)\]?$"
)


@dataclass(frozen=True, order=True, slots=True)
class Fid:
    """An immutable Lustre FID: (sequence, oid, version)."""

    seq: int
    oid: int
    ver: int = 0

    def __str__(self) -> str:
        return f"[{self.seq:#x}:{self.oid:#x}:{self.ver:#x}]"

    def short(self) -> str:
        """Compact form without brackets, used in message payloads."""
        return f"{self.seq:#x}:{self.oid:#x}:{self.ver:#x}"

    @classmethod
    def parse(cls, text: str) -> "Fid":
        """Parse ``[0x...:0x...:0x...]`` (brackets optional).

        >>> Fid.parse('[0x200000402:0xa046:0x0]')
        Fid(seq=8589935618, oid=41030, ver=0)
        """
        match = _FID_RE.match(text.strip())
        if match is None:
            raise LustreError(f"malformed FID: {text!r}")
        seq, oid, ver = (int(group, 0) for group in match.groups())
        return cls(seq, oid, ver)

    @property
    def is_root(self) -> bool:
        """True for the well-known root FID."""
        return self.seq == ROOT_FID_SEQ and self.oid == 1


#: The filesystem root object.
ROOT_FID = Fid(ROOT_FID_SEQ, 1, 0)


class FidSequenceAllocator:
    """Allocates FIDs from the sequence range owned by one MDT.

    MDT *i* owns sequences ``[FID_SEQ_NORMAL + i*RANGE, ... + (i+1)*RANGE)``
    and hands out object ids densely within the current sequence, rolling
    to the next sequence when one fills (we model a generous 2**32 - 1
    objects per sequence, so rollover is rare but supported).
    """

    OIDS_PER_SEQUENCE = 2**32 - 1

    def __init__(self, mdt_index: int) -> None:
        if mdt_index < 0:
            raise LustreError(f"negative MDT index: {mdt_index}")
        self.mdt_index = mdt_index
        self._base_seq = FID_SEQ_NORMAL + mdt_index * SEQUENCE_RANGE_PER_MDT
        self._seq_offset = 0
        self._next_oid = 1
        self.allocated = 0

    def next_fid(self) -> Fid:
        """Allocate and return the next FID for this MDT."""
        if self._next_oid > self.OIDS_PER_SEQUENCE:
            self._seq_offset += 1
            if self._seq_offset >= SEQUENCE_RANGE_PER_MDT:
                raise LustreError(
                    f"MDT {self.mdt_index} exhausted its FID sequence range"
                )
            self._next_oid = 1
        fid = Fid(self._base_seq + self._seq_offset, self._next_oid, 0)
        self._next_oid += 1
        self.allocated += 1
        return fid

    def owns(self, fid: Fid) -> bool:
        """True if *fid* belongs to this MDT's sequence range."""
        return (
            self._base_seq
            <= fid.seq
            < FID_SEQ_NORMAL + (self.mdt_index + 1) * SEQUENCE_RANGE_PER_MDT
        )


def mdt_index_of(fid: Fid) -> int:
    """Derive the owning MDT index from a normal FID's sequence.

    Raises :class:`LustreError` for reserved FIDs (e.g. the root, which
    lives on MDT 0 by convention but uses a reserved sequence).
    """
    if fid.is_root:
        return 0
    if fid.seq < FID_SEQ_NORMAL:
        raise LustreError(f"FID {fid} is in a reserved sequence")
    return (fid.seq - FID_SEQ_NORMAL) // SEQUENCE_RANGE_PER_MDT
