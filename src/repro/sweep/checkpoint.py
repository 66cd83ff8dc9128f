"""Chunk-level checkpoint journal for resumable sweeps.

A sweep runs as independent units — one (structural point, row-chunk)
each — so resuming means journaling every finished unit and skipping
the journaled ones next time.  Each sweep appends to one log,
``<checkpoint_dir>/<key>/journal.log``, of records

    <u32 payload length> <u32 CRC32 of the payload> <payload>

(little-endian), the payload a pickled ``(unit_key, record)``.  The
first record is the sweep's canonical fingerprint (``unit_key`` None),
each later one a finished unit (``"<si>-<start>-<stop>"``), appended
by the sweep's supervisor in one ``os.write`` on an ``O_APPEND``
descriptor.  Pickle round-trips floats and ndarrays exactly, so a
resumed sweep is bit-identical to an uninterrupted one.

**Torn tail.**  :meth:`CheckpointJournal.open` reads the log once; a
record cut short (the sweep died mid-write), failing its CRC or
unreadable ends it: the file is truncated back to the last good record
and the units after it re-run.  A log not starting with this sweep's
fingerprint is emptied.  This is the LevelDB log format
(https://github.com/google/leveldb/blob/main/doc/log_format.md)
without its 32 KiB blocks.

**Fingerprint.**  ``key`` hashes everything that determines a unit's
results: the grid's axes, the stimulus / build / measure callables,
the chunk size, the failure policy (quarantine decisions are
journaled) and the reducers.  Values enter through
:func:`describe_value`, by content — an ndarray by its dtype, shape
and a sha256 of its bytes (numpy's ``repr`` elides the middle of large
arrays), a :class:`~repro.link.LinkSession` by its
``sweep_fingerprint()`` — and callables by their bytecode, defaults,
closure cells and bound ``self``.  Caches that fill while a sweep runs
stay out: the fingerprint must read the same before and after a run,
or a resume would never find its journal.  Other objects fall back to
an address-stripped ``repr``.  Old ``units/*.pkl`` journals (version 4
and older) are never replayed; opening warns once per directory.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import pickle
import re
import struct
import threading
import types
import warnings
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CheckpointJournal", "describe_callable", "describe_value"]

_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")
_SCALARS = (str, bytes, int, float, complex, type(None), np.generic)
_NUMBERS = (int, float, complex, np.number, np.bool_)
#: Described by :func:`describe_callable`, wherever they sit: their
#: ``repr`` names no content.  Other callable objects are described by
#: their state.
_FUNCTIONS = (types.FunctionType, types.MethodType, functools.partial)
#: Ids of the callables being described on this thread, so a function
#: reachable from its own closure (a recursive inner function) ends.
_DESCRIBING = threading.local()
#: Record frame: payload length, CRC32 of the payload.
_FRAME = struct.Struct("<II")
_LOG = "journal.log"


def _clean_repr(obj) -> str:
    """A ``repr`` with memory addresses stripped (stable across runs)."""
    try:
        text = repr(obj)
    except Exception:
        text = f"<unreprable {type(obj).__qualname__}>"
    return _ADDRESS.sub("0x", text)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def describe_value(value) -> str:
    """The canonical, content-based description of a value.

    ndarrays are their dtype, shape and a sha256 of their bytes;
    dataclasses are their fields and lists, tuples, sets and dicts
    their items (dict keys and set items sorted), all recursively — a
    list or tuple of numbers of one type, or of equal-length lists of
    them, is hashed as one exact ndarray; scalars and strings are their
    ``repr``; functions, lambdas, partials and bound methods are
    :func:`describe_callable`; objects defining ``sweep_fingerprint()``
    are described by what it returns.  Anything else is its ``repr``
    with memory addresses stripped."""
    if isinstance(value, _SCALARS):
        return repr(value)
    if isinstance(value, _FUNCTIONS):
        return describe_callable(value)
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            return f"ndarray[object]({describe_value(value.tolist())})"
        digest = hashlib.sha256(np.ascontiguousarray(value)).hexdigest()
        return f"ndarray[{value.dtype.str}]{value.shape}:{digest}"
    if isinstance(value, (list, tuple)):
        numbers = _describe_numbers(value)
        if numbers is not None:
            return numbers
        items = ",".join(describe_value(item) for item in value)
        return f"[{items}]" if isinstance(value, list) else f"({items})"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(describe_value(item)
                                     for item in value)) + "}"
    if isinstance(value, dict):
        items = sorted((describe_value(key), describe_value(item))
                       for key, item in value.items())
        return "{" + ",".join(f"{key}:{item}" for key, item in items) + "}"
    fingerprint = getattr(value, "sweep_fingerprint", None)
    if callable(fingerprint) and not isinstance(value, type):
        return (f"{type(value).__qualname__}"
                f"<{describe_value(fingerprint())}>")
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{field.name}={describe_value(getattr(value, field.name))}"
            for field in dataclasses.fields(value))
        return f"{type(value).__qualname__}({fields})"
    return _clean_repr(value)


def _describe_numbers(value) -> Optional[str]:
    """A list or tuple of numbers of one type, or of equal-length lists
    (or equal-length tuples) of them, described as one exact ndarray: a
    long sweep axis costs one hash instead of a ``repr`` per number.
    ``None`` for anything else."""
    leaves, inner = set(), set()
    for item in value:
        if isinstance(item, (list, tuple)):
            inner.add(type(item))
            leaves.update(map(type, item))
        else:
            leaves.add(type(item))
    if len(leaves) != 1 or len(inner) > 1 \
            or not issubclass(leaves.pop(), _NUMBERS):
        return None
    try:
        numbers = np.array(value)
    except (OverflowError, ValueError):  # ragged, or beyond int64
        return None
    if numbers.dtype.hasobject:
        return None
    nested = "".join(kind.__qualname__ for kind in inner)
    return f"{type(value).__name__}[{nested}]:{describe_value(numbers)}"


def _describe_cell(cell) -> str:
    try:
        return describe_value(cell.cell_contents)
    except ValueError:  # yet-unbound cell, e.g. a recursive inner fn
        return "<empty cell>"


def describe_callable(fn) -> str:
    """A stable, content-sensitive fingerprint of a callable."""
    if fn is None:
        return "None"
    active = _DESCRIBING.__dict__.setdefault("ids", set())
    if id(fn) in active:
        return f"<recursive {_qualified_name(fn)}>"
    active.add(id(fn))
    try:
        return _describe_callable(fn)
    finally:
        active.discard(id(fn))


def _qualified_name(fn) -> str:
    return (f"{getattr(fn, '__module__', '?')}."
            f"{getattr(fn, '__qualname__', type(fn).__qualname__)}")


def _describe_callable(fn) -> str:
    if isinstance(fn, functools.partial):
        keywords = sorted((fn.keywords or {}).items())
        return (f"partial({describe_callable(fn.func)}, "
                f"args={describe_value(fn.args)}, "
                f"kw={describe_value(keywords)})")
    parts = [_qualified_name(fn)]
    code = getattr(fn, "__code__", None)
    if code is not None:
        parts.append("code:" + _sha(code.co_code.hex()
                                    + _clean_repr(code.co_consts))[:16])
    defaults = getattr(fn, "__defaults__", None)
    if defaults:
        parts.append("defaults:" + describe_value(defaults))
    closure = getattr(fn, "__closure__", None)
    if closure:
        cells = [_describe_cell(cell) for cell in closure]
        parts.append("closure:" + _sha("|".join(cells))[:16])
    self_obj = getattr(fn, "__self__", None)  # bound methods
    if self_obj is not None:
        parts.append("self:" + describe_value(self_obj))
    if code is None and self_obj is None:
        # Callable object: described by its state.
        parts.append("obj:" + describe_value(fn))
    return "|".join(parts)


def _append(log: pathlib.Path, unit_key: Optional[str], record) -> None:
    """Append one record to ``log`` in a single ``O_APPEND`` write."""
    payload = pickle.dumps((unit_key, record),
                           protocol=pickle.HIGHEST_PROTOCOL)
    frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        written = os.write(fd, frame)
    finally:
        os.close(fd)
    if written != len(frame):
        raise OSError(f"short write to {log}: {written} of {len(frame)} "
                      "bytes (disk full?)")


def _parse(data: bytes) -> Tuple[List[Tuple[Any, Any]], int]:
    """The records of a log and the offset where the last good one
    ends: a short, CRC-failing or unreadable record ends the log."""
    view = memoryview(data)
    entries: List[Tuple[Any, Any]] = []
    offset = 0
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        payload = view[start:start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        try:
            entries.append(pickle.loads(payload))
        except Exception:  # e.g. a class that no longer imports
            break
        offset = start + length
    return entries, offset


def _warn_old_journals(root: pathlib.Path) -> None:
    """Warn about each old ``units/*.pkl`` journal under ``root`` (the
    default warning filter shows each directory once per call site)."""
    for units in root.glob("*/units"):
        if not any(units.glob("*.pkl")):
            continue
        warnings.warn(f"{units.parent} is a sweep journal in the old "
                      "units/*.pkl layout; it is never replayed — delete "
                      "it to reclaim the space", RuntimeWarning,
                      stacklevel=4)


class CheckpointJournal:
    """On-disk journal of finished sweep units, keyed by sweep
    fingerprint (see the module docstring for the format)."""

    def __init__(self, path: pathlib.Path):
        self.path = pathlib.Path(path)
        self._log = self.path / _LOG
        self._records: Dict[str, Dict[str, Any]] = {}

    @classmethod
    def open(cls, checkpoint_dir, fingerprint: Dict[str, Any]
             ) -> "CheckpointJournal":
        """Open (creating if needed) the journal for one sweep config,
        truncating a torn or corrupt tail back to the last good
        record."""
        canonical = json.dumps(fingerprint, sort_keys=True)
        root = pathlib.Path(checkpoint_dir)
        _warn_old_journals(root)
        journal = cls(root / _sha(canonical)[:20])
        journal.path.mkdir(parents=True, exist_ok=True)
        data = journal._log.read_bytes() if journal._log.exists() else b""
        entries, end = _parse(data)
        if not entries or entries[0] != (None, canonical):
            entries, end = [], 0
        if end < len(data):
            os.truncate(journal._log, end)
        if not entries:
            _append(journal._log, None, canonical)
        journal._records = dict(entries[1:])
        return journal

    # -- unit records --------------------------------------------------------
    def load(self, unit_key: str) -> Optional[Dict[str, Any]]:
        """The journaled record for one unit: ``{"values": [...],
        "failures": [...], "partials": {...}}``, or ``None``.
        ``values`` is ``None`` for a ``keep_results=False`` run."""
        return self._records.get(unit_key)

    def store(self, unit_key: str, values: Optional[Sequence],
              failures: Sequence,
              partials: Optional[Dict[str, Any]] = None) -> None:
        """Append one finished unit to the log in a single write.
        ``partials`` are its reducer states (name → mergeable partial);
        ``values`` is ``None`` under ``keep_results=False``."""
        record = {"values": None if values is None else list(values),
                  "failures": list(failures), "partials": partials}
        _append(self._log, unit_key, record)
        self._records[unit_key] = record

    def unit_keys(self) -> List[str]:
        """Keys of every journaled unit (sorted, for tests/benches)."""
        return sorted(self._records)

    def __len__(self) -> int:
        return len(self._records)
