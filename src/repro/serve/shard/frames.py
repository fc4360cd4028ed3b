"""Binary frame protocol for the supervisor <-> shard-worker pipe.

Until this module, every shard RPC was a pickled ``(verb, payload)``
tuple: convenient, but the pickle round trip dominated the per-call cost
(E22 measured ~300 us per cached-path call against a 36 us raw pipe
RTT), and the wire format was whatever pickle happened to emit — no
versioning, no way to refuse a frame from a different build, and no way
to audit what crossed the boundary. This module replaces it with a
hand-rolled, versioned binary format:

Frame layout (little-endian)::

    offset  size  field
    ------  ----  -----
    0       2     magic  b"RF"
    2       1     protocol version (``VERSION``)
    3       1     kind: 1=request, 2=reply-ok, 3=reply-err
    4       1     verb code (``VERBS``; 0 in replies to a bad frame)
    5       1     flags (pickled / deadline / idempotent bits)
    6       2     section count (u16)
    8       8     deadline, remaining seconds (f64; valid iff
                  ``FLAG_DEADLINE`` — monotonic clocks do not cross
                  processes, so deadlines travel as remaining time)
    16      ...   sections: u32 byte length + value-codec payload, each

Every section is one value encoded with a type-tagged codec covering the
RPC vocabulary structurally — ``None``/bools/ints/floats/str/bytes,
lists/tuples/dicts, C-contiguous ndarrays (dtype + shape + raw bytes),
and :class:`~repro.serve.session.ServeResult` — so the hot serving path
(requests in, result batches out) crosses the pipe without pickle.
Pickle survives only as an explicit escape hatch (``_T_PICKLE``) for
objects outside that vocabulary: first-sight query objects (wrapped in
``_T_QDEF`` so the worker interns them — see
:mod:`repro.serve.shard.interning`) and exceptions riding reply-err
frames. Decoders can refuse the escape hatch outright
(``allow_pickle=False``), which is how ``tools/check_wire_protocol.py``
proves the golden fixtures pickle-free.

Decoding failures are typed (:class:`~repro.exceptions.FrameTruncated`,
:class:`~repro.exceptions.FrameCorrupt`,
:class:`~repro.exceptions.FrameVersionMismatch`) — never a bare
``struct.error`` or ``KeyError`` — because the supervisor's handling
depends on which it is: a truncated frame on a live pipe means the pipe
is desynchronized and the handle must be retired.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle
import struct

import numpy as np

from repro.exceptions import (
    FrameCorrupt,
    FrameTruncated,
    FrameVersionMismatch,
)
from repro.serve.session import ServeResult

MAGIC = b"RF"
VERSION = 1

KIND_REQUEST = 1
KIND_REPLY_OK = 2
KIND_REPLY_ERR = 3
_KINDS = frozenset({KIND_REQUEST, KIND_REPLY_OK, KIND_REPLY_ERR})

#: Flag bits. ``FLAG_PICKLED`` marks frames whose sections contain at
#: least one pickle escape hatch (``_T_PICKLE``/``_T_QDEF``) — an audit
#: aid, not a decode precondition. ``FLAG_IDEMPOTENT`` marks serving
#: requests that carry idempotency keys.
FLAG_PICKLED = 0x01
FLAG_DEADLINE = 0x02
FLAG_IDEMPOTENT = 0x04

#: Verb codes. Code 0 is reserved for replies to frames whose verb could
#: not be decoded. New verbs append — codes are wire-stable.
VERBS = {
    "ping": 1,
    "open_session": 2,
    "close_session": 3,
    "session_ids": 4,
    "session_info": 5,
    "serve_batch": 6,
    "submit": 7,
    "budget_records": 8,
    "checkpoint": 9,
    "metrics": 10,
    "shutdown": 11,
}
VERB_NAMES = {code: name for name, code in VERBS.items()}

_HEADER = struct.Struct("<2sBBBBHd")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: Value-codec type tags (wire-stable; new tags append).
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3       # i64
_T_BIGINT = 4    # u32 length + signed little-endian bytes
_T_FLOAT = 5     # f64
_T_STR = 6       # u32 length + utf-8
_T_BYTES = 7     # u32 length + raw
_T_LIST = 8      # u32 count + values
_T_TUPLE = 9     # u32 count + values
_T_DICT = 10     # u32 count + key/value value pairs
_T_NDARRAY = 11  # dtype str + u8 ndim + i64 dims + raw C-order bytes
_T_RESULT = 12   # ServeResult: 7 fields, declaration order
_T_QREF = 13     # 16-byte query fingerprint (must be interned already)
_T_QDEF = 14     # 16-byte fingerprint + u32 length + pickled query
_T_PICKLE = 15   # u32 length + pickle (the escape hatch)

#: Interned query fingerprints are the first 16 bytes of the query's
#: canonical SHA-256 (:func:`repro.losses.fingerprint.fingerprint_of`).
FINGERPRINT_BYTES = 16

_RESULT_FIELDS = ("session_id", "fingerprint", "value", "source",
                  "query_index", "epsilon_spent", "delta_spent")

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


class _Encoder:
    """One value-codec section under construction.

    ``intern`` is the supervisor's interning hook (see
    :meth:`repro.serve.shard.interning.InternMirror.encoder`): called
    with every object the structural codec does not recognize, it
    returns ``(define, fingerprint)`` to emit a ``_T_QDEF``/``_T_QREF``,
    or ``None`` to fall through to the pickle escape hatch.
    """

    __slots__ = ("out", "intern", "pickled")

    def __init__(self, intern=None) -> None:
        self.out = bytearray()
        self.intern = intern
        self.pickled = False

    def value(self, obj) -> None:  # noqa: C901 - one branch per tag
        out = self.out
        if obj is None:
            out.append(_T_NONE)
        elif obj is True:
            out.append(_T_TRUE)
        elif obj is False:
            out.append(_T_FALSE)
        elif type(obj) is int:
            if _INT64_MIN <= obj <= _INT64_MAX:
                out.append(_T_INT)
                out += _I64.pack(obj)
            else:
                raw = obj.to_bytes((obj.bit_length() + 8) // 8,
                                   "little", signed=True)
                out.append(_T_BIGINT)
                out += _U32.pack(len(raw))
                out += raw
        elif type(obj) is float:
            out.append(_T_FLOAT)
            out += _F64.pack(obj)
        elif type(obj) is str:
            raw = obj.encode("utf-8")
            out.append(_T_STR)
            out += _U32.pack(len(raw))
            out += raw
        elif type(obj) is bytes:
            out.append(_T_BYTES)
            out += _U32.pack(len(obj))
            out += obj
        elif type(obj) is list:
            out.append(_T_LIST)
            out += _U32.pack(len(obj))
            for item in obj:
                self.value(item)
        elif type(obj) is tuple:
            out.append(_T_TUPLE)
            out += _U32.pack(len(obj))
            for item in obj:
                self.value(item)
        elif type(obj) is dict:
            out.append(_T_DICT)
            out += _U32.pack(len(obj))
            for key, item in obj.items():
                self.value(key)
                self.value(item)
        elif isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
            # ascontiguousarray promotes 0-d to 1-d; 0-d is already
            # contiguous, so only copy when the layout demands it.
            array = obj if obj.flags.c_contiguous \
                else np.ascontiguousarray(obj)
            dtype = array.dtype.str.encode("ascii")
            out.append(_T_NDARRAY)
            out.append(len(dtype))
            out += dtype
            out.append(array.ndim)
            for dim in array.shape:
                out += _I64.pack(dim)
            out += array.tobytes()
        elif type(obj) is ServeResult:
            out.append(_T_RESULT)
            for name in _RESULT_FIELDS:
                self.value(getattr(obj, name))
        elif isinstance(obj, (bool, np.bool_)):  # bool subclasses, np.bool_
            out.append(_T_TRUE if obj else _T_FALSE)
        elif isinstance(obj, (int, np.integer)):
            self.value(int(obj))
        elif isinstance(obj, (float, np.floating)):
            self.value(float(obj))
        else:
            self._fallback(obj)

    def _fallback(self, obj) -> None:
        """Interning hook first, pickle escape hatch last."""
        if self.intern is not None:
            action = self.intern(obj)
            if action is not None:
                define, fingerprint = action
                if define:
                    blob = pickle.dumps(obj, protocol=5)
                    self.out.append(_T_QDEF)
                    self.out += fingerprint
                    self.out += _U32.pack(len(blob))
                    self.out += blob
                    self.pickled = True
                else:
                    self.out.append(_T_QREF)
                    self.out += fingerprint
                return
        blob = pickle.dumps(obj, protocol=5)
        self.out.append(_T_PICKLE)
        self.out += _U32.pack(len(blob))
        self.out += blob
        self.pickled = True


class _Decoder:
    """Bounds-checked reader over one section's bytes.

    Reads in place: a value's tag indexes :data:`_READERS` straight from
    the buffer, fixed-width fields are ``struct.unpack_from`` calls at
    the cursor, and only variable-length payloads (strings, bytes, array
    data, fingerprints, pickles) are sliced out.

    ``table`` is the worker's :class:`~repro.serve.shard.interning.
    InternTable`; required to resolve ``_T_QREF`` (its ``lookup`` raises
    :class:`~repro.serve.shard.interning.InternMiss` for unknown
    fingerprints — an application-level error the worker reports in a
    reply-err frame, distinct from frame corruption).
    """

    __slots__ = ("buf", "pos", "end", "allow_pickle", "table")

    def __init__(self, buf, start: int, end: int, *,
                 allow_pickle: bool = True, table=None) -> None:
        self.buf = buf
        self.pos = start
        self.end = end
        self.allow_pickle = allow_pickle
        self.table = table

    def value(self):
        pos = self.pos
        if pos >= self.end:
            raise self._truncated(1)
        self.pos = pos + 1
        tag = self.buf[pos]
        if tag >= len(_READERS):
            raise FrameCorrupt(f"unknown value tag {tag}")
        return _READERS[tag](self)

    # -- cursor primitives --------------------------------------------------

    def _truncated(self, count: int) -> FrameTruncated:
        return FrameTruncated(
            f"frame section ended {count - (self.end - self.pos)} "
            f"bytes early")

    def _byte(self) -> int:
        pos = self.pos
        if pos >= self.end:
            raise self._truncated(1)
        self.pos = pos + 1
        return self.buf[pos]

    def _fixed(self, codec: struct.Struct):
        pos = self.pos
        if self.end - pos < codec.size:
            raise self._truncated(codec.size)
        self.pos = pos + codec.size
        return codec.unpack_from(self.buf, pos)[0]

    def _take(self, count: int) -> bytes:
        pos = self.pos
        if self.end - pos < count:
            raise self._truncated(count)
        self.pos = pos + count
        return bytes(self.buf[pos:pos + count])

    def _sized(self) -> bytes:
        """A u32 length, then that many payload bytes."""
        return self._take(self._fixed(_U32))

    # -- one reader per type tag ---------------------------------------------

    def _none(self):
        return None

    def _true(self):
        return True

    def _false(self):
        return False

    def _int(self):
        return self._fixed(_I64)

    def _bigint(self):
        return int.from_bytes(self._sized(), "little", signed=True)

    def _float(self):
        return self._fixed(_F64)

    def _str(self):
        try:
            return self._sized().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameCorrupt(f"invalid utf-8 in string: {exc}") from None

    def _list(self):
        return [self.value() for _ in range(self._fixed(_U32))]

    def _tuple(self):
        return tuple([self.value() for _ in range(self._fixed(_U32))])

    def _dict(self):
        out = {}
        for _ in range(self._fixed(_U32)):
            key = self.value()
            try:
                out[key] = self.value()
            except TypeError as exc:  # unhashable decoded key
                raise FrameCorrupt(f"unhashable dict key: {exc}") from None
        return out

    def _ndarray(self):
        dtype = _wire_dtype(self._take(self._byte()))
        ndim = self._byte()
        shape = tuple([self._fixed(_I64) for _ in range(ndim)])
        if any(dim < 0 for dim in shape):
            raise FrameCorrupt(f"negative ndarray dim in {shape}")
        count = 1
        for dim in shape:
            count *= dim
        raw = self._take(count * dtype.itemsize)
        try:
            # frombuffer over the payload bytes: the array is a read-only
            # view, no further copy — results are treated as immutable
            # values.
            return np.frombuffer(raw, dtype=dtype).reshape(shape)
        except ValueError as exc:
            # The byte-length check above can pass while numpy still
            # balks (a zero-product shape with one absurd dim).
            raise FrameCorrupt(
                f"ndarray reconstruction failed: {exc}") from None

    def _result(self):
        return ServeResult(**{name: self.value() for name in _RESULT_FIELDS})

    def _qref(self):
        fingerprint = self._take(FINGERPRINT_BYTES)
        if self.table is None:
            raise FrameCorrupt("interned query reference but no intern table")
        return self.table.lookup(fingerprint)

    def _qdef(self):
        fingerprint = self._take(FINGERPRINT_BYTES)
        obj = self._unpickle(self._sized())
        if self.table is not None:
            self.table.define(fingerprint, obj)
        return obj

    def _pickle(self):
        return self._unpickle(self._sized())

    def _unpickle(self, blob: bytes):
        if not self.allow_pickle:
            raise FrameCorrupt(
                "pickled section refused (decoder ran with "
                "allow_pickle=False)")
        try:
            return pickle.loads(blob)
        except Exception as exc:  # noqa: BLE001 - any unpickle failure
            raise FrameCorrupt(f"undecodable pickle section: {exc}") \
                from None


#: Value readers indexed by type tag (``_T_NONE`` .. ``_T_PICKLE``).
_READERS = (
    _Decoder._none, _Decoder._true, _Decoder._false, _Decoder._int,
    _Decoder._bigint, _Decoder._float, _Decoder._str, _Decoder._sized,
    _Decoder._list, _Decoder._tuple, _Decoder._dict, _Decoder._ndarray,
    _Decoder._result, _Decoder._qref, _Decoder._qdef, _Decoder._pickle,
)


@functools.lru_cache(maxsize=64)
def _wire_dtype(raw: bytes) -> np.dtype:
    """The ndarray dtype a frame names; parsed once per distinct name
    (invalid names raise and are never cached)."""
    try:
        dtype = np.dtype(raw.decode("ascii"))
    except (TypeError, ValueError, SyntaxError, UnicodeDecodeError):
        # numpy parses comma-separated dtype strings through a
        # literal-eval, so corrupt bytes can surface SyntaxError
        # alongside the expected TypeError/ValueError.
        raise FrameCorrupt(f"invalid ndarray dtype {raw!r}") from None
    if dtype.hasobject:
        raise FrameCorrupt("object-dtype ndarray on the wire")
    if dtype.itemsize == 0:
        # A zero-itemsize dtype (e.g. ``V0``) would zero out the
        # payload-length check and let absurd dims through to reshape.
        raise FrameCorrupt(f"zero-itemsize ndarray dtype {dtype!r}")
    return dtype


@dataclasses.dataclass(frozen=True)
class Frame:
    """One decoded frame: header fields plus decoded section values.

    ``deadline`` is remaining seconds (the wire form) or ``None``;
    rebuild a live :class:`~repro.serve.resilience.Deadline` with
    ``Deadline.from_wire``.
    """

    kind: int
    verb: int
    flags: int
    deadline: float | None
    values: tuple

    @property
    def verb_name(self) -> str:
        return VERB_NAMES.get(self.verb, f"verb-{self.verb}")


def encode_frame(kind: int, verb: int, values, *, deadline=None,
                 intern=None, flags: int = 0) -> bytes:
    """Encode one frame; ``values`` become its sections, in order.

    ``deadline`` is remaining seconds (``Deadline.to_wire()``) or
    ``None``; ``intern`` is forwarded to the value codec (requests
    only). ``flags`` are OR-ed with the computed ``FLAG_PICKLED`` /
    ``FLAG_DEADLINE`` bits.
    """
    sections = []
    pickled = False
    for value in values:
        encoder = _Encoder(intern=intern)
        encoder.value(value)
        pickled = pickled or encoder.pickled
        sections.append(encoder.out)
    if pickled:
        flags |= FLAG_PICKLED
    wire_deadline = 0.0
    if deadline is not None:
        flags |= FLAG_DEADLINE
        wire_deadline = float(deadline)
    out = bytearray(_HEADER.pack(MAGIC, VERSION, kind, verb, flags,
                                 len(sections), wire_deadline))
    for section in sections:
        out += _U32.pack(len(section))
        out += section
    return bytes(out)


def decode_frame(data, *, allow_pickle: bool = True, table=None) -> Frame:
    """Decode one frame produced by :func:`encode_frame`.

    Raises :class:`~repro.exceptions.FrameTruncated` when ``data`` ends
    before its declared sections do, :class:`~repro.exceptions.
    FrameVersionMismatch` on a foreign protocol version, and
    :class:`~repro.exceptions.FrameCorrupt` for everything else that is
    structurally wrong (bad magic, unknown kind or tag, trailing bytes,
    refused pickles).
    """
    if len(data) < _HEADER.size:
        raise FrameTruncated(
            f"frame header needs {_HEADER.size} bytes, got {len(data)}")
    magic, version, kind, verb, flags, count, wire_deadline = \
        _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FrameCorrupt(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise FrameVersionMismatch(
            f"frame protocol version {version}, this build speaks only "
            f"{VERSION} — mixed supervisor/worker installs are refused",
            got=version, expected=VERSION)
    if kind not in _KINDS:
        raise FrameCorrupt(f"unknown frame kind {kind}")
    values = []
    pos = _HEADER.size
    for _ in range(count):
        if len(data) - pos < 4:
            raise FrameTruncated("frame ended inside a section header")
        (length,) = _U32.unpack_from(data, pos)
        pos += 4
        if len(data) - pos < length:
            raise FrameTruncated(
                f"section declares {length} bytes, "
                f"{len(data) - pos} remain")
        decoder = _Decoder(data, pos, pos + length,
                           allow_pickle=allow_pickle, table=table)
        values.append(decoder.value())
        if decoder.pos != pos + length:
            raise FrameCorrupt(
                f"section has {pos + length - decoder.pos} trailing "
                f"bytes after its value")
        pos += length
    if pos != len(data):
        raise FrameCorrupt(
            f"frame has {len(data) - pos} trailing bytes after its "
            f"last section")
    deadline = wire_deadline if flags & FLAG_DEADLINE else None
    return Frame(kind=kind, verb=verb, flags=flags, deadline=deadline,
                 values=tuple(values))


__all__ = [
    "FINGERPRINT_BYTES", "FLAG_DEADLINE", "FLAG_IDEMPOTENT",
    "FLAG_PICKLED", "Frame", "KIND_REPLY_ERR", "KIND_REPLY_OK",
    "KIND_REQUEST", "MAGIC", "VERBS", "VERB_NAMES", "VERSION",
    "decode_frame", "encode_frame",
]
