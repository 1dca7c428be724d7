"""The append-only JSON-lines log that both stores and the LLM transcript
write, with one rule for the torn final line a crash mid-append leaves
(`AppendLog._tail_repair`), and the frame of the snapshot derived from a
log's prefix."""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import stat
import struct
import tempfile
import threading
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

logger = logging.getLogger(__name__)


class CorruptLogError(ValueError):
    """A store's log holds a line that is not one of its records; the message
    names the file and the line number."""


# An experience-log line is several KiB (768 floats at dim 256), so the
# default 8 KiB read buffer splits most lines across two reads; joining the
# pieces took about 5 µs a line, and this buffer cuts that to about 1.
_READ_BUFFER_BYTES = 64 * 1024


@dataclass
class Prefix:
    """A log's first `size` bytes, which end at a newline: `lines` whole
    lines, `items` of them converted to records, and `digest`, the running
    sha256 of those bytes."""

    size: int
    lines: int
    items: int
    digest: Any

    def advance(self, line: bytes, items: int) -> None:
        """Take in the next whole line, which held `items` records."""
        self.size += len(line)
        self.lines += 1
        self.items += items
        self.digest.update(line)


class AppendLog:
    """Append-only JSON-lines log with write-through durability. A torn final
    line (a crash mid-append) is skipped with a warning on load and cut off by
    the next append, read or not; a bad line anywhere else is a `CorruptLogError`."""

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._repair: tuple[int, bytes] | None = None  # (truncate to, then write)
        self._tail_known = False  # whether `_repair` is that of the file's final line

    def line(self, payload: dict, name: str) -> bytes:
        """`payload` as one log line, or `ValueError` naming the entry (`name`)
        when it holds a value JSON cannot, such as a numpy float32. Empty for
        a log with no file, which writes nothing and so encodes nothing."""
        if self.path is None:
            return b""
        try:
            return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        except TypeError as exc:
            raise ValueError(f"{name}: not JSON: {exc}") from exc

    def append(self, line: bytes) -> None:
        """Write `line`, which `line()` made, at the end of the log. The first
        append of a log that was never read whole finds the file's final line
        from its end and repairs it first, as a read would have."""
        if self.path is None:
            return
        with self._lock:
            if not self._tail_known:
                self._repair, self._tail_known = self._final_line_repair(), True
            with open(self.path, "ab") as handle:
                if self._repair is not None:
                    size, prefix = self._repair
                    handle.truncate(size)
                    line = prefix + line
                    self._repair = None
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())

    def _final_line_repair(self) -> tuple[int, bytes] | None:
        """`_tail_repair` of the file's final line, read back from the end of
        the file `_READ_BUFFER_BYTES` at a time; None when there is no file."""
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return None
        with handle:
            end = start = handle.seek(0, os.SEEK_END)
            tail = b""
            while start and b"\n" not in tail:
                step = min(start, _READ_BUFFER_BYTES)
                start -= step
                handle.seek(start)
                tail = handle.read(step) + tail
        return self._tail_repair(tail[tail.rfind(b"\n", 0, len(tail) - 1) + 1 :], end)

    def _tail_repair(self, line: bytes, end: int) -> tuple[int, bytes] | None:
        """The torn-tail rule for `line`, the log's final line, which ends at
        byte `end`: what the next append writes first. A line that ends with
        a newline, or is blank, needs nothing. One with no newline is a torn
        append: it is ended with a newline when it is JSON, and cut off, with
        a warning, when it is not (or nests too deeply to decode)."""
        if line.endswith(b"\n") or not line.strip():
            return None
        try:
            json.loads(line)
        except (RecursionError, ValueError):
            logger.warning("%s: skipping torn final line (%d bytes)", self.path, len(line))
            return end - len(line), b""
        return end, b"\n"

    def read_all(self, convert: Callable[[Any], Any], prefix: Prefix | None = None) -> Iterator[Any]:
        """`convert(payload)` for each line's payload in file order, one line
        at a time, so no payload outlives its line, from the end of `prefix`,
        which takes in every whole line read, or else from the start of the
        file. A line that is not JSON (or nests too deeply to decode), or
        whose payload `convert` rejects (`KeyError`, `TypeError`,
        `ValueError`, `AttributeError`), raises `CorruptLogError` naming its
        number in the file, unless it is a final line with no newline that is
        not JSON: that torn append is skipped. The next append's repair
        (`_tail_repair` of the final line) is set only once every line has
        been converted."""
        if self.path is None or not self.path.exists():
            self._repair, self._tail_known = None, True
            return
        size, lines = (prefix.size, prefix.lines) if prefix else (0, 0)
        line = b""
        with open(self.path, "rb", buffering=_READ_BUFFER_BYTES) as handle:
            handle.seek(size)
            for number, line in enumerate(handle, lines + 1):
                size += len(line)
                torn = not line.endswith(b"\n")  # only the final line can be
                if not line.strip():
                    if prefix and not torn:
                        prefix.advance(line, 0)
                    continue
                try:
                    payload = json.loads(line)
                except (RecursionError, ValueError) as exc:  # nested too deeply, or not JSON
                    if not torn:
                        raise CorruptLogError(f"{self.path}, line {number}: not JSON: {exc}") from exc
                    break
                try:
                    item = convert(payload)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise CorruptLogError(
                        f"{self.path}, line {number}: not a record: {type(exc).__name__}: {exc}"
                    ) from exc
                yield item
                if prefix and not torn:
                    prefix.advance(line, 1)
        self._repair, self._tail_known = self._tail_repair(line, size), True


# A snapshot is `_SNAPSHOT_MAGIC`, the sha256 of the rest of the file, then
# the rest: the `_SNAPSHOT_PREFIX` fields (the size in bytes and in lines of
# the log prefix it covers, and that prefix's sha256) and the body.
_SNAPSHOT_MAGIC = b"rebel experience snapshot 2\n"
_SNAPSHOT_PREFIX = struct.Struct("<QQ32s")


def read_snapshot(
    path: Path, log: Path, restore: Callable[[memoryview], Sequence]
) -> tuple[Sequence, Prefix]:
    """The records `restore` makes of the body of snapshot `path`, handed
    over as a view of the snapshot's bytes, and the prefix of `log` they
    cover; or no records and the empty prefix when the snapshot is missing,
    unreadable, of another version or corrupt (it does not start with
    `_SNAPSHOT_MAGIC`, or what follows its own sha256 does not hash to it),
    or stale (the log's first bytes no longer hash to its prefix sha256, read
    `_READ_BUFFER_BYTES` at a time), or when `restore` raises `ValueError`,
    as it must for a body it cannot restore. Never raises: a snapshot is
    derived data, and a fault in it only costs a full parse, logged at debug
    level."""
    try:
        data = memoryview(path.read_bytes())
        start = len(_SNAPSHOT_MAGIC) + hashlib.sha256().digest_size
        if data[: len(_SNAPSHOT_MAGIC)] != _SNAPSHOT_MAGIC or len(data) < start + _SNAPSHOT_PREFIX.size:
            raise ValueError("not a snapshot")
        if hashlib.sha256(data[start:]).digest() != data[len(_SNAPSHOT_MAGIC) : start]:
            raise ValueError("it does not match its own hash")
        size, lines, prefix_sha = _SNAPSHOT_PREFIX.unpack_from(data, start)
        digest = hashlib.sha256()
        with open(log, "rb", buffering=0) as handle:
            while (remaining := size - handle.tell()) > 0:
                chunk = handle.read(min(remaining, _READ_BUFFER_BYTES))
                if not chunk:
                    raise ValueError(f"the log is shorter than the {size} bytes it covers")
                digest.update(chunk)
        if digest.digest() != prefix_sha:
            raise ValueError(f"the log's first {size} bytes have changed")
        records = restore(data[start + _SNAPSHOT_PREFIX.size :])  # a view, where bytes would copy
    except (OSError, ValueError) as exc:
        logger.debug("%s: not used, the whole log is parsed: %s", path, exc)
        return (), Prefix(0, 0, 0, hashlib.sha256())
    return records, Prefix(size, lines, len(records), digest)


def write_snapshot(path: Path, log: Path, body: Callable[[], bytes], prefix: Prefix) -> None:
    """Write snapshot `path` of `prefix`, a prefix of `log`, with `body()`,
    which holds its records: to a temporary file in the same directory, with
    the log's permission bits, then moved over the old snapshot in one
    `os.replace`. It is not synced: a torn snapshot fails its own hash and is
    not used. Never raises: a failure (`OSError`, or `OverflowError` or
    `ValueError` from `body`) is logged at debug level and its temporary file
    removed."""
    temp = None
    try:
        fields = _SNAPSHOT_PREFIX.pack(prefix.size, prefix.lines, prefix.digest.digest())
        data = body()
        digest = hashlib.sha256(fields)
        digest.update(data)
        handle, temp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
        with os.fdopen(handle, "wb") as out:
            os.fchmod(out.fileno(), stat.S_IMODE(os.stat(log).st_mode))
            out.write(_SNAPSHOT_MAGIC + digest.digest() + fields)
            out.write(data)
        os.replace(temp, path)
    except (OSError, OverflowError, ValueError) as exc:
        logger.debug("%s: not written: %s", path, exc)
        if temp is not None:
            with contextlib.suppress(OSError):
                os.remove(temp)
