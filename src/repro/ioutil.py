"""Durable file-write primitives shared by every persistence layer.

One idiom, implemented once: *write to a same-directory temp file, fsync,
atomically rename over the target, fsync the directory*.  A crash at any
point leaves either the old file or the new file — never a torn mix.
Dataset saves, checkpoint sinks, and journal compaction all route through
:func:`atomic_write_bytes`, which also carries the fault-injection probes
(``<site>.write`` / ``<site>.fsync`` / ``<site>.replace``) so chaos tests
can crash each stage of the protocol deterministically.
"""

from __future__ import annotations

import errno
import os
from typing import Sequence, Union

from repro import faults
from repro.errors import StorageExhausted

__all__ = ["atomic_write_bytes", "fsync_directory", "raise_if_no_space"]

#: errno values meaning "the bytes have nowhere to go" — mapped to the
#: structured :class:`StorageExhausted` (HTTP 507) instead of a bare
#: OSError 500.  Injected fault OSErrors carry no errno and pass through.
_NO_SPACE_ERRNOS = frozenset(
    e for e in (errno.ENOSPC, getattr(errno, "EDQUOT", None)) if e is not None
)


def raise_if_no_space(exc: OSError, path: Union[str, os.PathLike]) -> None:
    """Re-raise ``exc`` as :class:`StorageExhausted` if it is disk-full."""
    if isinstance(exc, StorageExhausted):
        raise exc
    if exc.errno in _NO_SPACE_ERRNOS:
        raise StorageExhausted(
            f"no space left writing {os.fspath(path)!r}: {exc.strerror or exc}",
            path=os.fspath(path),
            errno_value=exc.errno,
        ) from exc


def fsync_directory(path: Union[str, os.PathLike]) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best effort: platforms that cannot open directories (Windows) skip it.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: Union[str, os.PathLike],
    data: Union[bytes, Sequence[object]],
    *,
    site: str = "file",
) -> None:
    """Crash-safely replace ``path`` with ``data``.

    ``data`` is one ``bytes`` object or a sequence of buffers (anything
    with the buffer protocol, numpy arrays included) written back to back
    — a caller with large arrays hands over views instead of joining them
    into one copy.

    ``site`` names the fault-injection probe family: ``{site}.write``
    fires before (and may corrupt) the temp-file write, ``{site}.fsync``
    can drop the data fsync, and ``{site}.replace`` fires between the
    write and the atomic rename — the classic torn-save crash window.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    chunks = [data] if isinstance(data, (bytes, bytearray, memoryview)) else data
    faults.check(f"{site}.write")
    if faults.is_armed():
        # A corrupt rule flips one bit anywhere in the file, so an armed
        # plan sees the joined bytes; disarmed writes never join.
        chunks = [faults.mangle(f"{site}.write", b"".join(chunks))]
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            if not faults.should_drop(f"{site}.fsync"):
                os.fsync(fh.fileno())
        faults.check(f"{site}.replace")
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise_if_no_space(exc, path)
        raise
    fsync_directory(os.path.dirname(path) or ".")
