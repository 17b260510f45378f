"""Frame pipes: the one-way OS pipes between a shard bridge and its child.

Each direction of the multiproc transport is one one-way
``multiprocessing.Pipe``; a frame is one ``send_bytes`` of a marshal
tuple.  A full pipe blocks its writer, so a writer that must not block
asks :class:`_FramePipe` whether a frame fits first.

Both sides import this module — the parent's
:class:`~repro.msgq.multiproc.ProcessShardBridge` and the spawned
shard child (:mod:`repro.core.shard`) — so it imports nothing but the
standard library.
"""

from __future__ import annotations

import fcntl
import marshal
import mmap
import struct
import termios

#: A pipe's unit of capacity: the kernel stores written bytes in pages.
_PAGE = mmap.PAGESIZE

#: Pipe capacity assumed where ``F_GETPIPE_SZ`` is missing (a macOS
#: pipe starts at 16 KiB).
_DEFAULT_PIPE_BYTES = 16384

#: Most frames written before the pipe is seen empty again (the pipe's
#: capacity bounds them too).
DEFAULT_MAX_FRAMES = 64


def _pipe_pages(conn) -> int:
    """Capacity of *conn*'s pipe, in pages."""
    try:
        size = fcntl.fcntl(conn.fileno(), fcntl.F_GETPIPE_SZ)
    except (AttributeError, OSError):
        size = _DEFAULT_PIPE_BYTES
    return max(size // _PAGE, 1)


def _pipe_unread(conn) -> int:
    """Bytes in *conn*'s pipe that its reader has not read yet."""
    packed = fcntl.ioctl(conn.fileno(), termios.FIONREAD, b"\0\0\0\0")
    return struct.unpack("i", packed)[0]


def _frame_pages(nbytes: int) -> int:
    """Most pipe pages one ``send_bytes`` of *nbytes* can take.

    A write takes at most one fresh page per started page of its bytes
    (the kernel only tops up the last page with a short tail); the
    4-byte length header, written with the bytes or on its own, may
    take one more.
    """
    return 1 + -(-nbytes // _PAGE)


class _FramePipe:
    """The writing end of one pipe, which knows when a frame fits.

    A full pipe blocks its writer.  Every frame written counts as
    unread until the pipe is seen empty (``FIONREAD``): then its reader
    has taken everything so far.  A frame fits while that count, in
    pipe pages, stays within the pipe's capacity and the frame count
    below *max_frames*, so a write that fits cannot block.  A frame
    larger than the whole pipe fits only a pipe seen empty, and its
    write waits for the reader to take the rest.
    """

    def __init__(self, conn, max_frames: int = DEFAULT_MAX_FRAMES) -> None:
        self.conn = conn
        self.window = _pipe_pages(conn)
        self.max_frames = max_frames
        # A pipe that already holds bytes counts as full until seen empty.
        self.unread_pages = self.window if _pipe_unread(conn) else 0
        self.unread_frames = 0

    def fits(self, pages: int) -> bool:
        if self.unread_pages and (
            self.unread_pages + pages > self.window
            or self.unread_frames >= self.max_frames
        ):
            if _pipe_unread(self.conn):
                return False
            self.unread_pages = self.unread_frames = 0
        return True

    def write(self, frame: bytes) -> None:
        self.conn.send_bytes(frame)
        self.unread_pages += _frame_pages(len(frame))
        self.unread_frames += 1

    def write_if_fits(self, frame: bytes) -> bool:
        if not self.fits(_frame_pages(len(frame))):
            return False
        self.write(frame)
        return True


def _read_frame(conn) -> tuple:
    return marshal.loads(conn.recv_bytes())
