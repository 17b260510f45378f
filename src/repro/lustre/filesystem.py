"""The client-visible Lustre filesystem API.

:class:`LustreFilesystem` ties the substrate together: a namespace of
FID-identified entries served by an :class:`MdtCluster` (each metadata
operation appends a record to the owning MDT's ChangeLog) and file data
striped over an :class:`OstPool`.

The API mirrors what the paper's event-generation script exercised —
create, modify (write), delete — plus the rest of the namespace
operations a ChangeLog can record (mkdir/rmdir/rename/setattr/hardlink/
symlink), so the monitor sees a realistic record-type mix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidPath,
    IsADirectory,
    NotADirectory,
    UnknownFid,
)
from repro.lustre.changelog import ChangelogFlag, ChangelogRecord, RecordType
from repro.lustre.fid import Fid, ROOT_FID
from repro.lustre.mds import DnePolicy, MdtCluster, MetadataTarget
from repro.lustre.oss import DEFAULT_STRIPE_SIZE, OstPool, StripeLayout
from repro.util.clock import Clock, WallClock
from repro.util.paths import is_ancestor, normalize, split_components


@dataclass(slots=True)
class _Entry:
    """One namespace object (file, directory or symlink)."""

    fid: Fid
    kind: str  # 'file' | 'dir' | 'symlink'
    parent: Optional[Fid]
    name: str
    mdt_index: int
    mode: int
    mtime: float
    ctime: float
    size: int = 0
    nlink: int = 1
    children: Dict[str, Fid] = field(default_factory=dict)
    layout: Optional[StripeLayout] = None
    symlink_target: Optional[str] = None
    #: Directory default stripe count (lfs setstripe on a directory);
    #: None inherits from the parent chain / filesystem default.
    default_stripe_count: Optional[int] = None


@dataclass(frozen=True)
class LustreStat:
    """Result of :meth:`LustreFilesystem.stat`."""

    fid: Fid
    kind: str
    size: int
    mode: int
    mtime: float
    ctime: float
    nlink: int
    mdt_index: int

    @property
    def is_dir(self) -> bool:
        return self.kind == "dir"

    @property
    def is_file(self) -> bool:
        return self.kind == "file"


class LustreFilesystem:
    """An in-memory Lustre filesystem.

    Parameters
    ----------
    num_mds, mdts_per_mds:
        Metadata topology.  The paper's AWS testbed is ``num_mds=1``;
        Iota has four MDS but ran with one active.
    dne_policy:
        Directory placement across MDTs (``SINGLE`` reproduces the
        paper's configuration).
    num_oss, osts_per_oss, default_stripe_count:
        Data topology.
    changelog_capacity:
        Optional bound on retained ChangeLog records per MDT.
    """

    def __init__(
        self,
        num_mds: int = 1,
        mdts_per_mds: int = 1,
        dne_policy: DnePolicy = DnePolicy.SINGLE,
        num_oss: int = 1,
        osts_per_oss: int = 1,
        default_stripe_count: int = 1,
        stripe_size: int = DEFAULT_STRIPE_SIZE,
        ost_capacity_bytes: Optional[int] = None,
        changelog_capacity: Optional[int] = None,
        clock: Clock | None = None,
    ) -> None:
        self.clock = clock or WallClock()
        self.cluster = MdtCluster.build(
            num_mds=num_mds,
            mdts_per_mds=mdts_per_mds,
            policy=dne_policy,
            clock=self.clock,
            changelog_capacity=changelog_capacity,
        )
        self.osts = OstPool.build(
            num_oss=num_oss,
            osts_per_oss=osts_per_oss,
            ost_capacity_bytes=ost_capacity_bytes,
        )
        self.default_stripe_count = default_stripe_count
        self.stripe_size = stripe_size
        self._lock = threading.RLock()
        now = self.clock.now()
        root = _Entry(
            fid=ROOT_FID,
            kind="dir",
            parent=None,
            name="",
            mdt_index=0,
            mode=0o755,
            mtime=now,
            ctime=now,
            nlink=2,
        )
        self._entries: Dict[Fid, _Entry] = {ROOT_FID: root}
        #: JobID attached to subsequent operations (Lustre jobstats).
        self._job_context: Optional[str] = None

    # ------------------------------------------------------------------
    # Job context (jobstats)
    # ------------------------------------------------------------------

    def set_job(self, jobid: Optional[str]) -> None:
        """Tag subsequent operations with *jobid* (None clears it)."""
        with self._lock:
            self._job_context = jobid

    def job(self, jobid: str):
        """Context manager scoping a job id over a block of operations.

        >>> fs = LustreFilesystem()
        >>> with fs.job("train.1234"):
        ...     _ = fs.create("/model.ckpt")
        """
        import contextlib

        @contextlib.contextmanager
        def _scope():
            previous = self._job_context
            self.set_job(jobid)
            try:
                yield self
            finally:
                self.set_job(previous)

        return _scope()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def _entry(self, fid: Fid) -> _Entry:
        entry = self._entries.get(fid)
        if entry is None:
            raise UnknownFid(f"no entry for FID {fid}")
        return entry

    def _resolve(self, path: str) -> _Entry:
        entry = self._entries[ROOT_FID]
        walked = "/"
        for component in split_components(path):
            if entry.kind != "dir":
                raise NotADirectory(walked)
            child_fid = entry.children.get(component)
            if child_fid is None:
                raise FileNotFound(normalize(path))
            entry = self._entries[child_fid]
            walked = walked.rstrip("/") + "/" + component
        return entry

    def _resolve_parent(self, path: str) -> tuple[_Entry, str]:
        components = split_components(path)
        if not components:
            raise InvalidPath(path, "operation not permitted on the root")
        parent = self._resolve("/" + "/".join(components[:-1]))
        if parent.kind != "dir":
            raise NotADirectory(path)
        return parent, components[-1]

    def path_of(self, fid: Fid) -> str:
        """Reconstruct the absolute path of *fid* by walking parents.

        This is the primitive the ``fid2path`` tool exposes; the
        monitor's processing stage calls it through
        :class:`~repro.lustre.fid2path.FidResolver`, which adds
        invocation accounting and caching.
        """
        with self._lock:
            entry = self._entry(fid)
            parts: list[str] = []
            while entry.parent is not None:
                parts.append(entry.name)
                entry = self._entry(entry.parent)
            return "/" + "/".join(reversed(parts))

    def fid_of(self, path: str) -> Fid:
        """The FID at *path* (raises FileNotFound)."""
        with self._lock:
            return self._resolve(path).fid

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def exists(self, path: str) -> bool:
        """True if *path* resolves."""
        with self._lock:
            try:
                self._resolve(path)
                return True
            except (FileNotFound, NotADirectory):
                return False

    def stat(self, path: str) -> LustreStat:
        """Metadata for *path*."""
        with self._lock:
            entry = self._resolve(path)
            return LustreStat(
                fid=entry.fid,
                kind=entry.kind,
                size=entry.size,
                mode=entry.mode,
                mtime=entry.mtime,
                ctime=entry.ctime,
                nlink=entry.nlink,
                mdt_index=entry.mdt_index,
            )

    def listdir(self, path: str) -> list[str]:
        """Sorted names in directory *path*."""
        with self._lock:
            entry = self._resolve(path)
            if entry.kind != "dir":
                raise NotADirectory(normalize(path))
            return sorted(entry.children)

    def walk(self, top: str = "/") -> Iterator[tuple[str, list[str], list[str]]]:
        """Depth-first traversal like :func:`os.walk`."""
        top = normalize(top)
        with self._lock:
            entry = self._resolve(top)
            if entry.kind != "dir":
                raise NotADirectory(top)
            names = sorted(entry.children.items())
            dirnames = [
                n for n, f in names if self._entries[f].kind == "dir"
            ]
            filenames = [
                n for n, f in names if self._entries[f].kind != "dir"
            ]
        yield top, dirnames, filenames
        for name in dirnames:
            child = top.rstrip("/") + "/" + name
            try:
                yield from self.walk(child)
            except (FileNotFound, NotADirectory):
                continue

    @property
    def entry_count(self) -> int:
        """Total namespace entries including the root."""
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _mdt_for_entry(self, entry: _Entry) -> MetadataTarget:
        return self.cluster.mdt(entry.mdt_index)

    def _record(
        self,
        mdt: MetadataTarget,
        rec_type: RecordType,
        target: Fid,
        parent: Fid,
        name: str,
        flags: ChangelogFlag = ChangelogFlag.NONE,
        source_parent: Optional[Fid] = None,
        source_name: Optional[str] = None,
    ) -> Optional[ChangelogRecord]:
        return mdt.changelog.append(
            rec_type,
            target,
            parent,
            name,
            flags=flags,
            source_parent_fid=source_parent,
            source_name=source_name,
            jobid=self._job_context,
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755) -> Fid:
        """Create a directory; returns its FID.  Appends ``02MKDIR``."""
        with self._lock:
            parent, name = self._resolve_parent(path)
            if name in parent.children:
                raise FileExists(normalize(path))
            mdt_index = self.cluster.place_directory(parent.mdt_index, name)
            mdt = self.cluster.mdt(mdt_index)
            fid = mdt.allocator.next_fid()
            now = self.clock.now()
            entry = _Entry(
                fid=fid,
                kind="dir",
                parent=parent.fid,
                name=name,
                mdt_index=mdt_index,
                mode=mode,
                mtime=now,
                ctime=now,
                nlink=2,
            )
            self._entries[fid] = entry
            parent.children[name] = fid
            parent.nlink += 1
            parent.mtime = now
            mdt.stats.mkdirs += 1
            # The mkdir is served by (and logged on) the MDT that owns the
            # new directory; the parent may live elsewhere under DNE.
            self._record(mdt, RecordType.MKDIR, fid, parent.fid, name)
            return fid

    def makedirs(self, path: str, exist_ok: bool = True) -> None:
        """Create *path* and any missing ancestors."""
        current = ""
        for component in split_components(path):
            current += "/" + component
            with self._lock:
                if self.exists(current):
                    entry = self._resolve(current)
                    if entry.kind != "dir":
                        raise NotADirectory(current)
                    continue
                self.mkdir(current)

    def set_stripe(self, path: str, stripe_count: int) -> None:
        """Set a directory's default stripe count (``lfs setstripe``).

        Files created under it (without an explicit count) use it;
        subdirectories inherit through the parent chain.
        """
        if stripe_count < 1:
            raise ValueError(f"stripe_count must be >= 1: {stripe_count}")
        with self._lock:
            entry = self._resolve(path)
            if entry.kind != "dir":
                raise NotADirectory(normalize(path))
            entry.default_stripe_count = stripe_count

    def get_stripe(self, path: str) -> int:
        """Effective stripe count for new files under directory *path*."""
        with self._lock:
            entry = self._resolve(path)
            return self._effective_stripe(entry)

    def _effective_stripe(self, entry: _Entry) -> int:
        while entry is not None:
            if entry.default_stripe_count is not None:
                return entry.default_stripe_count
            if entry.parent is None:
                break
            entry = self._entries[entry.parent]
        return self.default_stripe_count

    def create(
        self,
        path: str,
        size: int = 0,
        mode: int = 0o644,
        stripe_count: Optional[int] = None,
    ) -> Fid:
        """Create a regular file; returns its FID.  Appends ``01CREAT``.

        *stripe_count* overrides the directory default for this file.
        """
        if size < 0:
            raise ValueError(f"negative size: {size}")
        with self._lock:
            parent, name = self._resolve_parent(path)
            if name in parent.children:
                raise FileExists(normalize(path))
            mdt_index = self.cluster.place_file(parent.mdt_index)
            mdt = self.cluster.mdt(mdt_index)
            fid = mdt.allocator.next_fid()
            now = self.clock.now()
            layout = self.osts.allocate_layout(
                stripe_count=(
                    stripe_count
                    if stripe_count is not None
                    else self._effective_stripe(parent)
                ),
                stripe_size=self.stripe_size,
            )
            entry = _Entry(
                fid=fid,
                kind="file",
                parent=parent.fid,
                name=name,
                mdt_index=mdt_index,
                mode=mode,
                mtime=now,
                ctime=now,
                layout=layout,
            )
            self._entries[fid] = entry
            parent.children[name] = fid
            parent.mtime = now
            mdt.stats.creates += 1
            self._record(mdt, RecordType.CREAT, fid, parent.fid, name)
            if size:
                self.write(path, size)
            return fid

    def write(self, path: str, size: int) -> None:
        """Set the file's size (a full rewrite).  Appends ``13TRUNC``-free
        ``17MTIME``-style modification via CLOSE: Lustre logs data
        modification as a CLOSE (or MTIME) record; we use ``11CLOSE``.
        """
        if size < 0:
            raise ValueError(f"negative size: {size}")
        with self._lock:
            entry = self._resolve(path)
            if entry.kind == "dir":
                raise IsADirectory(normalize(path))
            assert entry.layout is not None
            self.osts.write_layout(entry.layout, size)
            now = self.clock.now()
            entry.size = size
            entry.mtime = now
            mdt = self._mdt_for_entry(entry)
            mdt.stats.writes += 1
            parent_fid = entry.parent if entry.parent is not None else ROOT_FID
            self._record(mdt, RecordType.CLOSE, entry.fid, parent_fid, entry.name)

    def truncate(self, path: str, size: int = 0) -> None:
        """Truncate the file to *size*.  Appends ``13TRUNC``."""
        if size < 0:
            raise ValueError(f"negative size: {size}")
        with self._lock:
            entry = self._resolve(path)
            if entry.kind == "dir":
                raise IsADirectory(normalize(path))
            assert entry.layout is not None
            self.osts.write_layout(entry.layout, size)
            now = self.clock.now()
            entry.size = size
            entry.mtime = now
            mdt = self._mdt_for_entry(entry)
            mdt.stats.writes += 1
            parent_fid = entry.parent if entry.parent is not None else ROOT_FID
            self._record(mdt, RecordType.TRUNC, entry.fid, parent_fid, entry.name)

    def setattr(self, path: str, mode: Optional[int] = None) -> None:
        """Change attributes.  Appends ``14SATTR``."""
        with self._lock:
            entry = self._resolve(path)
            now = self.clock.now()
            if mode is not None:
                entry.mode = mode
            entry.ctime = now
            mdt = self._mdt_for_entry(entry)
            mdt.stats.setattrs += 1
            parent_fid = entry.parent if entry.parent is not None else ROOT_FID
            self._record(mdt, RecordType.SATTR, entry.fid, parent_fid, entry.name)

    def unlink(self, path: str) -> None:
        """Remove a file.  Appends ``06UNLNK`` with UNLINK_LAST when the
        last link goes away (flag 0x1, as in the paper's Table 1)."""
        with self._lock:
            parent, name = self._resolve_parent(path)
            fid = parent.children.get(name)
            if fid is None:
                raise FileNotFound(normalize(path))
            entry = self._entries[fid]
            if entry.kind == "dir":
                raise IsADirectory(normalize(path))
            now = self.clock.now()
            del parent.children[name]
            parent.mtime = now
            entry.nlink -= 1
            flags = ChangelogFlag.NONE
            if entry.nlink <= 0:
                if entry.layout is not None:
                    self.osts.destroy_layout(entry.layout)
                del self._entries[fid]
                flags = ChangelogFlag.UNLINK_LAST
            mdt = self._mdt_for_entry(parent)
            mdt.stats.unlinks += 1
            self._record(
                mdt, RecordType.UNLNK, fid, parent.fid, name, flags=flags
            )

    def rmdir(self, path: str) -> None:
        """Remove an empty directory.  Appends ``07RMDIR``."""
        with self._lock:
            parent, name = self._resolve_parent(path)
            fid = parent.children.get(name)
            if fid is None:
                raise FileNotFound(normalize(path))
            entry = self._entries[fid]
            if entry.kind != "dir":
                raise NotADirectory(normalize(path))
            if entry.children:
                raise DirectoryNotEmpty(normalize(path))
            now = self.clock.now()
            del parent.children[name]
            del self._entries[fid]
            parent.nlink -= 1
            parent.mtime = now
            mdt = self._mdt_for_entry(entry)
            mdt.stats.rmdirs += 1
            self._record(mdt, RecordType.RMDIR, fid, parent.fid, name)

    def rename(self, src: str, dst: str) -> None:
        """Move *src* to *dst*.  Appends ``08RENME`` on the source parent's
        MDT (with the destination recorded) and, when the destination
        parent is served by a different MDT, a companion ``09RNMTO``
        there — mirroring Lustre's two-record cross-MDT renames."""
        with self._lock:
            src_norm, dst_norm = normalize(src), normalize(dst)
            src_parent, src_name = self._resolve_parent(src)
            fid = src_parent.children.get(src_name)
            if fid is None:
                raise FileNotFound(src_norm)
            entry = self._entries[fid]
            if entry.kind == "dir" and is_ancestor(src_norm, dst_norm):
                raise InvalidPath(dst, "cannot move a directory into itself")
            dst_parent, dst_name = self._resolve_parent(dst)
            flags = ChangelogFlag.NONE
            existing_fid = dst_parent.children.get(dst_name)
            if existing_fid is not None:
                existing = self._entries[existing_fid]
                if existing.kind == "dir":
                    if entry.kind != "dir":
                        raise IsADirectory(dst_norm)
                    if existing.children:
                        raise DirectoryNotEmpty(dst_norm)
                    del self._entries[existing_fid]
                    dst_parent.nlink -= 1
                else:
                    if entry.kind == "dir":
                        raise NotADirectory(dst_norm)
                    if existing.layout is not None:
                        self.osts.destroy_layout(existing.layout)
                    del self._entries[existing_fid]
                flags = ChangelogFlag.RENAME_OVERWRITE
            now = self.clock.now()
            del src_parent.children[src_name]
            dst_parent.children[dst_name] = fid
            if entry.kind == "dir":
                src_parent.nlink -= 1
                dst_parent.nlink += 1
            entry.parent = dst_parent.fid
            entry.name = dst_name
            entry.ctime = now
            src_parent.mtime = now
            dst_parent.mtime = now
            src_mdt = self._mdt_for_entry(src_parent)
            src_mdt.stats.renames += 1
            self._record(
                src_mdt,
                RecordType.RENME,
                fid,
                dst_parent.fid,
                dst_name,
                flags=flags,
                source_parent=src_parent.fid,
                source_name=src_name,
            )
            if dst_parent.mdt_index != src_parent.mdt_index:
                dst_mdt = self._mdt_for_entry(dst_parent)
                self._record(
                    dst_mdt,
                    RecordType.RNMTO,
                    fid,
                    dst_parent.fid,
                    dst_name,
                    flags=flags,
                    source_parent=src_parent.fid,
                    source_name=src_name,
                )

    def hardlink(self, existing: str, link_path: str) -> None:
        """Create a hard link.  Appends ``03HLINK``."""
        with self._lock:
            entry = self._resolve(existing)
            if entry.kind == "dir":
                raise IsADirectory(normalize(existing))
            parent, name = self._resolve_parent(link_path)
            if name in parent.children:
                raise FileExists(normalize(link_path))
            now = self.clock.now()
            parent.children[name] = entry.fid
            entry.nlink += 1
            parent.mtime = now
            mdt = self._mdt_for_entry(parent)
            self._record(mdt, RecordType.HLINK, entry.fid, parent.fid, name)

    def symlink(self, target: str, link_path: str) -> Fid:
        """Create a symbolic link.  Appends ``04SLINK``."""
        with self._lock:
            parent, name = self._resolve_parent(link_path)
            if name in parent.children:
                raise FileExists(normalize(link_path))
            mdt_index = self.cluster.place_file(parent.mdt_index)
            mdt = self.cluster.mdt(mdt_index)
            fid = mdt.allocator.next_fid()
            now = self.clock.now()
            entry = _Entry(
                fid=fid,
                kind="symlink",
                parent=parent.fid,
                name=name,
                mdt_index=mdt_index,
                mode=0o777,
                mtime=now,
                ctime=now,
                symlink_target=target,
            )
            self._entries[fid] = entry
            parent.children[name] = fid
            parent.mtime = now
            self._record(mdt, RecordType.SLINK, fid, parent.fid, name)
            return fid

    def readlink(self, path: str) -> str:
        """Return the target string of symlink *path*."""
        with self._lock:
            entry = self._resolve(path)
            if entry.kind != "symlink":
                raise InvalidPath(normalize(path), "not a symbolic link")
            assert entry.symlink_target is not None
            return entry.symlink_target

    def rmtree(self, path: str) -> None:
        """Recursively remove *path*."""
        with self._lock:
            entry = self._resolve(path)
            if entry.kind != "dir":
                self.unlink(path)
                return
            for name in list(entry.children):
                self.rmtree(normalize(path).rstrip("/") + "/" + name)
            if normalize(path) != "/":
                self.rmdir(path)

    # ------------------------------------------------------------------
    # Changelog access (what the monitor consumes)
    # ------------------------------------------------------------------

    def changelogs(self):
        """The ChangeLog of every MDT, ordered by MDT index."""
        return [mdt.changelog for mdt in self.cluster.all_mdts()]

    def total_changelog_records(self) -> int:
        """Records ever appended across all MDTs."""
        return sum(mdt.changelog.total_appended for mdt in self.cluster.all_mdts())
