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
journaled) and the reducers.  It is :func:`journal_key`, one pickle
pass over all of them by content: functions by their code (bytecode,
the names it loads, constants, nested code included), defaults and
closure contents, bound methods by their function and ``self``, and
every other object (an ndarray, a :class:`~repro.link.LinkSession`
and the chain it built) as pickle stores it, by value.  Classes are
named by module and qualname, and set, frozenset and dict items are
written in an order fixed by their content, so the key is the same in
a new interpreter under any ``PYTHONHASHSEED``.  A value that cannot
be pickled (a lock, a generator) raises ``TypeError``.  Caches must
not fill while a sweep runs: the key must read the same before and
after a run, or a resume would never find its journal.
:func:`content_digest` is the in-process counterpart: the same
reduction, faster, but classes keyed by their identity, so it keys
memos, never journals.  Old ``units/*.pkl`` journals (version 4 and
older) are never replayed; opening warns once per directory.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import pathlib
import pickle
import struct
import types
import warnings
import weakref
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CheckpointJournal", "content_digest", "journal_key"]

#: Leaf types :func:`_numbers` packs into one array.
_NUMBERS = (int, float, complex, np.number, np.bool_)
#: Record frame: payload length, CRC32 of the payload.
_FRAME = struct.Struct("<II")
_LOG = "journal.log"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: A never-reused token per class, so a class redefined under the same
#: name (or a new class at a freed class's address) digests differently.
_CLASS_TOKENS: "weakref.WeakKeyDictionary[type, int]" = \
    weakref.WeakKeyDictionary()
_NEXT_TOKEN = itertools.count()


class _ContentPickler(pickle.Pickler):
    """Pickles a function as its name, code, defaults and closure
    contents, a bound method as its function and ``self``, a code
    object as its bytecode, names and constants, a module as its name
    and a class as its token; everything else as pickle does, by value.
    The parts are pickled by this pickler in turn, so what a function
    reaches (a session behind ``session.process``, an array in a
    closure) enters by content too."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        #: Functions and methods reduced so far, held so no id is
        #: reused.  Pickle memoizes an object only once its parts are
        #: written, so meeting one here again means a cycle (a function
        #: in its own closure), which a marker ends.
        self._reducing: Dict[int, Any] = {}

    def reducer_override(self, obj):
        if isinstance(obj, (types.FunctionType, types.MethodType)):
            if id(obj) in self._reducing:
                return str, ("<recursive callable>",)
            self._reducing[id(obj)] = obj
            if isinstance(obj, types.MethodType):
                return tuple, (("method", obj.__func__, obj.__self__),)
            cells = tuple(_cell_contents(cell)
                          for cell in obj.__closure__ or ())
            return tuple, (("function", obj.__module__, obj.__qualname__,
                            obj.__code__, obj.__defaults__,
                            obj.__kwdefaults__, cells),)
        if isinstance(obj, types.CodeType):
            return tuple, (("code", obj.co_code, obj.co_names,
                            obj.co_consts),)
        if isinstance(obj, types.ModuleType):
            return str, ("module:" + obj.__name__,)
        if isinstance(obj, type) and obj.__module__ != "builtins":
            token = _CLASS_TOKENS.get(obj)
            if token is None:
                token = _CLASS_TOKENS.setdefault(obj, next(_NEXT_TOKEN))
            return str, (f"class:{token}",)
        return NotImplemented


def _cell_contents(cell):
    try:
        return cell.cell_contents
    except ValueError:  # yet-unbound cell, e.g. a recursive inner fn
        return "<empty cell>"


def content_digest(value) -> Optional[bytes]:
    """A sha256 of ``value``'s content in this process, or ``None`` when
    it cannot be pickled.

    One pickle pass, with each function reduced to its name, code
    (bytecode, loaded names, constants), defaults and closure contents,
    each bound method to its function and ``self``, and each class to a
    token unique in this process (never its name: a class redefined
    under the same name digests differently).  Not stable across
    processes, so it keys in-process memos, never journals (see
    :func:`journal_key`).  Any error while pickling (a lock, a
    generator, a ctypes pointer) gives ``None``: the memo it keys is
    only a shortcut.
    """
    buffer = io.BytesIO()
    try:
        _ContentPickler(buffer).dump(value)
    except Exception:
        return None
    return hashlib.sha256(buffer.getbuffer()).digest()


class _JournalPickler(_ContentPickler):
    """:class:`_ContentPickler` made stable across processes: a class
    is its module and qualname, and set, frozenset and dict items are
    written in an order fixed by their content, not by hash or
    insertion order (a ``x in {"a", "b"}`` test compiles to a frozenset
    constant, iterated in ``PYTHONHASHSEED`` order)."""

    def reducer_override(self, obj):
        if isinstance(obj, type) and obj.__module__ != "builtins":
            return str, (f"class:{obj.__module__}.{obj.__qualname__}",)
        return super().reducer_override(obj)

    def persistent_id(self, obj):
        kind = type(obj)
        if kind is dict:
            items = sorted(obj.items(),
                           key=lambda item: _content_order(item[0]))
            return "dict", list(itertools.chain.from_iterable(items))
        if kind is set or kind is frozenset:
            return kind.__name__, sorted(obj, key=_content_order)
        if kind is tuple or kind is list:
            return _numbers(obj)
        return None


def _numbers(seq) -> Optional[Tuple[str, bytes]]:
    """A tuple or list of numbers of one type, or of equal-length tuples
    (or lists) of them, as the bytes of one exact ndarray and a label
    (kinds, dtype, shape); ``None`` for anything else.  A Monte Carlo
    axis of numpy scalars then costs one write instead of numpy's
    reduce per scalar (≈4 µs each, so ≈90 ms for a 10k-die axis of
    offset/scale pairs).  Only strings and bytes come back, so nothing
    here is packed again."""
    rows = set(map(type, seq))
    if len(rows) == 1 and rows <= {tuple, list}:
        leaves = set(map(type, itertools.chain.from_iterable(seq)))
    else:
        leaves, rows = rows, set()
    if len(leaves) != 1 or not issubclass(leaves.pop(), _NUMBERS):
        return None
    try:
        array = np.array(seq)
    except (OverflowError, ValueError):  # ragged, or beyond int64
        return None
    if array.dtype.hasobject:
        return None
    nested = "".join(kind.__name__ for kind in rows)
    return (f"{type(seq).__name__}[{nested}]{array.dtype.str}{array.shape}",
            array.tobytes())


def _content_order(value) -> Tuple[int, Any]:
    """A sort key fixed by ``value``'s content: a string itself, any
    other value the digest of its stable pickle."""
    if type(value) is str:
        return 0, value
    return 1, _journal_sha(value).digest()


def _journal_sha(value):
    # Hash what pickle writes instead of keeping it, so a large array
    # captured by a stimulus is never copied whole.
    sha = hashlib.sha256()
    _JournalPickler(types.SimpleNamespace(write=sha.update)).dump(value)
    return sha


def journal_key(value) -> str:
    """A sha256 (hex) of ``value``'s content, the same in every process.

    The reduction of :func:`content_digest`, with classes named by
    module and qualname and set, frozenset and dict items in content
    order, so a sweep resumed in a new interpreter (under any
    ``PYTHONHASHSEED``) finds its journal.  A value that cannot be
    pickled raises ``TypeError`` naming the cause: a key blind to part
    of a sweep could replay another sweep's rows.
    """
    try:
        return _journal_sha(value).hexdigest()
    except Exception as error:
        raise TypeError(
            "a checkpointed sweep keys its journal on the content of its "
            "grid, callables and reducers, and this one cannot be pickled "
            f"({type(error).__name__}: {error})"
        ) from error


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
