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
``sweep_fingerprint()`` — and callables by their bytecode (with the
names it loads, nested code included), defaults, closure cells and
bound ``self``.  Caches that fill while a sweep runs stay out: the
fingerprint must read the same before and after a run, or a resume
would never find its journal.  Other objects are their
type plus their attributes; only objects with neither a ``__dict__``
nor ``__slots__`` fall back to an address-stripped ``repr``.
:func:`content_digest` is the in-process counterpart: faster, but
keyed on class identity, so it keys memos, never journals.  Old
``units/*.pkl`` journals (version 4 and older) are never replayed;
opening warns once per directory.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import itertools
import json
import os
import pathlib
import pickle
import re
import struct
import threading
import types
import warnings
import weakref
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CheckpointJournal", "content_digest", "describe_callable",
           "describe_value"]

_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")
_SCALARS = (str, bytes, int, float, complex, type(None), np.generic)
_NUMBERS = (int, float, complex, np.number, np.bool_)
#: Described by :func:`describe_callable`, wherever they sit: their
#: ``repr`` names no content.  Other callable objects are described by
#: their state.
_FUNCTIONS = (types.FunctionType, types.MethodType, functools.partial)
#: Ids of the callables and objects being described on this thread
#: (see :func:`_once`).
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
    are described by what it returns.  Any other object with a
    ``__dict__`` or ``__slots__`` is its type's module and qualname
    plus its attributes, so two instances of a plain class that differ
    in a stored constant differ here.  Anything else (a class, a
    module, a builtin object) is its ``repr`` with memory addresses
    stripped."""
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
    state = _object_state(value)
    if state is None:
        return _clean_repr(value)
    name = f"{type(value).__module__}.{type(value).__qualname__}"
    return _once(value, name, lambda obj: name + describe_value(state))


def _object_state(value) -> Optional[Dict[str, Any]]:
    """An instance's attributes, its ``__dict__`` and set ``__slots__``;
    ``None`` for a class, a module or an object with neither."""
    if isinstance(value, (type, types.ModuleType)):
        return None
    has_state = hasattr(value, "__dict__")
    state = dict(getattr(value, "__dict__", {}))
    for cls in type(value).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for slot in [slots] if isinstance(slots, str) else slots:
            if slot in ("__dict__", "__weakref__"):
                continue
            has_state = True
            if slot.startswith("__") and not slot.endswith("__"):
                slot = f"_{cls.__name__.lstrip('_')}{slot}"  # mangled
            if hasattr(value, slot):
                state[slot] = getattr(value, slot)
    return state if has_state else None


def _once(obj, name: str, describe) -> str:
    """``describe(obj)``, or a ``<recursive name>`` marker when ``obj``
    is already being described on this thread, so a cycle (a function
    reachable from its own closure, an object from its own state) ends."""
    active = _DESCRIBING.__dict__.setdefault("ids", set())
    if id(obj) in active:
        return f"<recursive {name}>"
    active.add(id(obj))
    try:
        return describe(obj)
    finally:
        active.discard(id(obj))


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
    return _once(fn, _qualified_name(fn), _describe_callable)


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
        parts.append("code:" + _sha(_code_text(code))[:16])
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


def _code_text(code: types.CodeType) -> str:
    """A code object's bytecode, the names it loads and its constants,
    nested code objects (inner functions, lambdas, comprehensions)
    described the same way.  The names matter: a global or attribute
    load names its target only by an index into ``co_names``, so
    ``lambda x: np.tanh(x)`` and ``lambda x: np.sin(x)`` share their
    bytecode and constants."""
    consts = ",".join(_code_text(const) if isinstance(const, types.CodeType)
                      else _clean_repr(const) for const in code.co_consts)
    return f"{code.co_code.hex()}|{code.co_names}|({consts})"


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
    under the same name digests differently).  Faster than
    :func:`describe_value` because numbers, arrays and object state go
    through pickle's C code, but not stable across processes, so it
    keys in-process memos, never journals.  Any error while pickling
    (a lock, a generator, a ctypes pointer) gives ``None``: the memo
    it keys is only a shortcut.
    """
    buffer = io.BytesIO()
    try:
        _ContentPickler(buffer).dump(value)
    except Exception:
        return None
    return hashlib.sha256(buffer.getbuffer()).digest()


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
