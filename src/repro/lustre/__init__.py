"""An in-memory model of the Lustre filesystem.

This substrate reproduces the pieces of Lustre the paper's monitor
depends on:

* :class:`Fid` — Lustre File Identifiers (``[seq:oid:ver]``), allocated
  from per-MDT sequence ranges.
* :class:`ChangeLog` — the per-MDT metadata catalog: an append-only log
  of namespace mutations with registered reader ids and purge pointers
  (``lctl changelog_clear`` semantics).
* :class:`MetadataServer` / :class:`MetadataTarget` — MDS hosts serving
  one or more MDTs; DNE (Distributed NamEspace) placement policies
  spread directories across MDTs.
* :class:`ObjectStorageServer` / OSTs with round-robin striping.
* :class:`LustreFilesystem` — the client-visible API (mkdir, create,
  write, unlink, rename, setattr, ...) that drives changelog records
  into the owning MDT, exactly as client RPCs do.
* :class:`FidResolver` — the ``fid2path`` tool used by the monitor's
  processing step, with invocation accounting so experiments can model
  its cost (the paper's measured bottleneck).

The names are re-exported lazily: the monitor's shard children need
``changelog`` and ``fid`` (for event types), not the filesystem model.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "Fid": ".fid",
    "FidSequenceAllocator": ".fid",
    "ChangeLog": ".changelog",
    "ChangelogFlag": ".changelog",
    "ChangelogRecord": ".changelog",
    "RecordType": ".changelog",
    "DnePolicy": ".mds",
    "MetadataServer": ".mds",
    "MetadataTarget": ".mds",
    "ObjectStorageServer": ".oss",
    "ObjectStorageTarget": ".oss",
    "StripeLayout": ".oss",
    "LustreFilesystem": ".filesystem",
    "FidResolver": ".fid2path",
    "LctlAdmin": ".lctl",
    "LfsClient": ".lctl",
})

__all__ = [
    "LctlAdmin",
    "LfsClient",
    "Fid",
    "FidSequenceAllocator",
    "ChangeLog",
    "ChangelogRecord",
    "RecordType",
    "ChangelogFlag",
    "MetadataServer",
    "MetadataTarget",
    "DnePolicy",
    "ObjectStorageServer",
    "ObjectStorageTarget",
    "StripeLayout",
    "LustreFilesystem",
    "FidResolver",
]
