"""Segmented on-disk WAL: fixed-size segments with CRC trailers.

The log's one durable format: like a real log, a chain of fixed-size
segment files that are sealed, verified, and recycled independently
(formats pinned in ``docs/STORAGE.md``):

* ``wal.00001.seg``, ``wal.00002.seg``, … — each segment holds a JSON
  **header line** (``segment``, ``first_lsn``), a run of record lines
  (one ``LogRecord.to_dict()`` per line, carrying the record's durable
  CRC stamp), and a JSON **trailer line** (``segment``,
  ``records``, ``last_lsn``, ``crc``) whose CRC-32 covers the segment
  body — a torn segment tail or a bit flip fails the trailer check and
  the segment (plus everything after it) is dropped, never replayed.
* A ``wal.floor`` **marker file** records the legitimate truncation
  floor — the ``first_lsn`` the chain's head segment must carry and how
  many segment files the chain holds. :func:`dump_segments` writes it
  and :func:`recycle_segments` updates it, so :func:`load_segments` can
  tell a *recycled* head (expected, clean) from a *lost* one (the
  ``wal.segment_lost`` fault site can eat segment 1, which no
  continuity check between surviving neighbours would ever notice).
* :func:`load_segments` verifies the head against the marker, **LSN
  continuity** across the chain, and the marker's segment count (which
  catches a lost *tail* segment). Everything at or past a break — and
  every missing segment — is counted into
  ``LogManager.undecodable_tail`` so the salvage pass reports the loss
  instead of recovery silently replaying a history with a hole.
* :func:`recycle_segments` deletes sealed segments wholly below a
  caller-supplied LSN floor — after a fuzzy checkpoint the engine's
  floor is ``min(checkpoint LSN, min dirty-page recLSN, oldest active
  transaction's first LSN)`` (``Database.wal_recycle_floor``).

>>> import tempfile
>>> from repro.wal.log import LogManager
>>> from repro.wal.records import BeginRecord, CommitRecord
>>> log = LogManager()
>>> for txn in (1, 2, 3):
...     _ = log.append(BeginRecord(txn)); _ = log.append(CommitRecord(txn, txn))
>>> log.flush()
>>> directory = tempfile.mkdtemp()
>>> paths = dump_segments(log, directory, segment_bytes=220)
>>> len(paths) > 1
True
>>> reloaded = load_segments(directory)
>>> (reloaded.tail_lsn(), reloaded.undecodable_tail) == (log.tail_lsn(), 0)
True
>>> os.remove(paths[0])  # the head segment vanishes without a trace...
>>> load_segments(directory).undecodable_tail > 0  # ...but not silently
True
>>> paths = dump_segments(log, directory, segment_bytes=220)
>>> recycle_segments(directory, keep_from_lsn=log.tail_lsn() + 1) == paths
True
>>> load_segments(directory).undecodable_tail  # recycled != lost
0
"""

import json
import os
import re
import zlib

from repro.faults import NULL_INJECTOR
from repro.wal.log import LogManager
from repro.wal.records import LogRecord

_SEGMENT_NAME = re.compile(r"^wal\.(\d{5})\.seg$")

#: the truncation-floor marker file (see :func:`read_floor`)
FLOOR_NAME = "wal.floor"


def segment_path(directory, number):
    return os.path.join(directory, f"wal.{number:05d}.seg")


def floor_path(directory):
    return os.path.join(directory, FLOOR_NAME)


def _write_floor(directory, first_lsn, segments):
    with open(floor_path(directory), "w") as f:
        f.write(
            json.dumps({"first_lsn": first_lsn, "segments": segments}) + "\n"
        )


def _remove_floor(directory):
    """Remove the truncation marker. Returns ``None`` on success (an
    already-absent marker counts) or the ``OSError`` when the remove
    failed — the caller decides whether a stale marker matters."""
    try:
        os.remove(floor_path(directory))
    except OSError as exc:
        return exc
    return None


def _read_head_first_lsn(path):
    """``first_lsn`` from a segment file's header line, or ``None``
    when the head is unreadable (the old floor marker then keeps
    :func:`load_segments` wary instead of being overwritten)."""
    try:
        with open(path) as f:
            return json.loads(f.readline())["first_lsn"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def read_floor(directory):
    """The persisted truncation floor, or ``None`` when no (readable)
    marker exists: ``{"first_lsn": ..., "segments": ...}`` — the LSN
    the chain's head segment must start at and the number of segment
    files the chain is supposed to hold. An unreadable marker is
    treated as missing, which makes :func:`load_segments` *more*
    suspicious of the chain, never less."""
    try:
        with open(floor_path(directory)) as f:
            marker = json.load(f)
        return {
            "first_lsn": int(marker["first_lsn"]),
            "segments": int(marker["segments"]),
        }
    except (OSError, ValueError, KeyError, TypeError):
        return None


def segment_files(directory):
    """``(number, path)`` for every segment in ``directory``, ordered."""
    found = []
    for name in os.listdir(directory):
        match = _SEGMENT_NAME.match(name)
        if match is not None:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found)


def _record_line(log, record):
    d = record.to_dict()
    if log.checksums:
        crc = record.stored_crc
        d["crc"] = record.checksum() if crc is None else crc
    return json.dumps(d)


def dump_segments(log, directory, segment_bytes=32768, faults=None):
    """Write the flushed prefix of ``log`` as a chain of segments.

    Each segment is sealed once its body exceeds ``segment_bytes`` (a
    segment always holds at least one record). The ``wal.segment_lost``
    fault site is evaluated once per segment — a fired site drops the
    whole file, leaving an LSN gap for :func:`load_segments` to find.
    Returns the written paths.
    """
    faults = faults if faults is not None else NULL_INJECTOR
    os.makedirs(directory, exist_ok=True)
    for _, stale in segment_files(directory):
        os.remove(stale)
    _remove_floor(directory)
    segments = []  # (number, first_lsn, [lines], last_lsn)
    lines, first_lsn, last_lsn, size = [], None, None, 0
    for record in log.records():
        if record.lsn > log.flushed_lsn:
            break
        line = _record_line(log, record)
        if first_lsn is None:
            first_lsn = record.lsn
        lines.append(line)
        last_lsn = record.lsn
        size += len(line) + 1
        if size >= segment_bytes:
            segments.append((len(segments) + 1, first_lsn, lines, last_lsn))
            lines, first_lsn, last_lsn, size = [], None, None, 0
    if lines:
        segments.append((len(segments) + 1, first_lsn, lines, last_lsn))
    if segments:
        # The marker describes the *intended* chain, written before the
        # per-segment fault site gets a say — a segment the device eats
        # is then a detectable hole, not a silently shorter history.
        _write_floor(directory, segments[0][1], len(segments))
    paths = []
    for number, first, body, last in segments:
        if faults.active and faults.fires(
            "wal.segment_lost", detail=str(number)
        ) is not None:
            continue  # the device ate this segment wholesale
        path = segment_path(directory, number)
        payload = "\n".join(body) + "\n"
        trailer = {
            "segment": number,
            "records": len(body),
            "last_lsn": last,
            "crc": zlib.crc32(payload.encode("utf-8")),
        }
        with open(path, "w") as f:
            f.write(json.dumps({"segment": number, "first_lsn": first}) + "\n")
            f.write(payload)
            f.write(json.dumps(trailer) + "\n")
        paths.append(path)
    return paths


def _read_segment(path):
    """Parse one segment file; returns ``(header, record_dicts, ok)``.

    ``ok`` is False when the trailer is missing, its CRC does not match
    the body, or its record count / last_lsn disagree with the content.
    """
    with open(path) as f:
        raw = f.read()
    lines = raw.splitlines()
    if len(lines) < 2:
        return None, [], False
    try:
        header = json.loads(lines[0])
        trailer = json.loads(lines[-1])
    except ValueError:
        return None, [], False
    if "first_lsn" not in header or "crc" not in trailer:
        return header, [], False
    body = lines[1:-1]
    payload = "\n".join(body) + "\n" if body else ""
    if zlib.crc32(payload.encode("utf-8")) != trailer["crc"]:
        return header, [], False
    records = []
    for line in body:
        try:
            records.append(json.loads(line))
        except ValueError:
            return header, [], False
    if trailer.get("records") != len(records):
        return header, [], False
    if records and trailer.get("last_lsn") != records[-1].get("lsn"):
        return header, [], False
    return header, records, True


def load_segments(directory, checksums=True):
    """Rebuild a :class:`LogManager` from a segment chain.

    Loading stops at the first broken link — a failed trailer CRC, an
    undecodable body, or an LSN gap against the previous segment (a
    lost or prematurely recycled segment). The chain's *head* is checked
    against the ``wal.floor`` marker: a head starting past the recorded
    floor means the earliest segment was lost, not recycled (with no
    marker at all, the head must start at LSN 1). Every record line at
    or past a break is counted into ``undecodable_tail``, and so is
    every segment file the marker promises but the directory lacks (a
    lost tail leaves the surviving chain perfectly continuous — only
    the count betrays it), so the salvage pass reports the loss.
    """
    manager = LogManager(checksums=checksums)
    files = segment_files(directory)
    floor = read_floor(directory)
    dropped = 0
    broken = False
    expected_lsn = floor["first_lsn"] if floor is not None else 1
    chain = []
    for number, path in files:
        header, records, ok = _read_segment(path)
        if broken or not ok or header["first_lsn"] != expected_lsn:
            broken = True
            dropped += max(len(records), 1)
            continue
        chain.extend(LogRecord.from_dict(d) for d in records)
        if records:
            expected_lsn = records[-1]["lsn"] + 1
    if floor is not None and len(files) < floor["segments"]:
        # each missing segment held at least one record
        dropped += floor["segments"] - len(files)
    manager.undecodable_tail = dropped
    manager.restore(chain)
    return manager


def recycle_segments(directory, keep_from_lsn):
    """Delete sealed segments that lie wholly below ``keep_from_lsn``.

    A segment is removed only when its trailer verifies and its
    ``last_lsn`` is below the floor — a damaged segment is never
    silently discarded. The ``wal.floor`` marker is rewritten to the
    surviving chain's head, so :func:`load_segments` knows this
    truncation was legitimate and can still tell a *lost* head from a
    recycled one. Returns the removed paths.
    """
    removed = []
    for _, path in segment_files(directory):
        header, records, ok = _read_segment(path)
        if not ok or not records:
            break
        if records[-1]["lsn"] < keep_from_lsn:
            os.remove(path)
            removed.append(path)
        else:
            break
    if removed:
        remaining = segment_files(directory)
        if remaining:
            first_lsn = _read_head_first_lsn(remaining[0][1])
            if first_lsn is not None:
                _write_floor(directory, first_lsn, len(remaining))
        else:
            # everything below the floor was recycled and nothing is
            # left — an empty directory is a legitimate empty chain
            _write_floor(directory, keep_from_lsn, 0)
    return removed
