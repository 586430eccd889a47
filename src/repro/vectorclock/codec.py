"""The shared binary codec for detector-state serialization.

Before the checkpoint/resume subsystem, detector state left a process
through bespoke channels: :func:`~repro.vectorclock.dense.DenseClock.to_bytes`
packed flat int64 arrays, and everything else (registries, reports,
whole detectors) rode raw :mod:`pickle`.  Pickle is unacceptable for a
snapshot that a production service may accept back over a socket --
``pickle.loads`` on attacker-supplied bytes is arbitrary code execution
-- and bespoke formats cannot share a version header.

This module is the single codec all of them now route through.  It is a
small, self-describing, *safe* structural format:

* primitives -- None, bools, integers (zigzag varints), floats, strings,
  bytes;
* containers -- lists, tuples, dicts, sets (sets are serialized in a
  canonical sorted order so equal states produce equal bytes);
* domain values -- :class:`~repro.vectorclock.dense.DenseClock`,
  :class:`~repro.vectorclock.epoch.Epoch` and
  :class:`~repro.trace.event.Event` -- the vocabulary every detector's
  state is built from.

Decoding reconstructs exactly the encoded types.  The name-keyed
:class:`~repro.vectorclock.clock.VectorClock` is a reporting type, not
detector state, and is refused.  Decoding never executes code and fails
with :class:`CodecError` on malformed or truncated input.

Integers use LEB128 varints (zigzag for signed values), so the common
small clock components cost one byte instead of eight; clocks strip
trailing zeros before encoding so equal clocks encode identically no
matter how far their backing arrays grew.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

from repro.trace.event import Event, EventType
from repro.vectorclock.dense import DenseClock
from repro.vectorclock.epoch import Epoch

__all__ = [
    "CodecError",
    "encode",
    "decode",
    "encode_clock",
    "decode_clock",
]


class CodecError(ValueError):
    """Raised when a blob cannot be decoded (malformed, truncated, unknown tag)."""


# One-byte value tags.  Kept stable across versions: new types get new
# tags, existing tags never change meaning (0x0C, the retired name-keyed
# clock tag, is never reused).
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_SET = 0x0A
_T_DENSE_CLOCK = 0x0B
_T_EPOCH = 0x0D
_T_EVENT = 0x0E

_ETYPE_OF_VALUE = {etype.value: etype for etype in EventType}


# --------------------------------------------------------------------- #
# Varint primitives
# --------------------------------------------------------------------- #

def _write_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _write_varint(out: bytearray, value: int) -> None:
    # Zigzag: small negative values stay small on the wire.
    _write_uvarint(
        out, (value << 1) if value >= 0 else ((-value) << 1) - 1
    )


def _unzigzag(value: int) -> int:
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def read_byte(self) -> int:
        try:
            byte = self.data[self.pos]
        except IndexError:
            raise CodecError("truncated blob") from None
        self.pos += 1
        return byte

    def read_uvarint(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self.read_byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 126:
                raise CodecError("varint too long")

    def read_varint(self) -> int:
        return _unzigzag(self.read_uvarint())

    def read_bytes(self, length: int) -> bytes:
        end = self.pos + length
        if end > len(self.data):
            raise CodecError("truncated blob")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk


# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #

def _canonical_sort_key(item: Any) -> Tuple[str, Any]:
    # Sets have no order; sort within type name so equal sets of the
    # usual key types (ints, strings) always encode identically.
    return (type(item).__name__, item)


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is False:
        out.append(_T_FALSE)
    elif value is True:
        out.append(_T_TRUE)
    elif isinstance(value, int):
        out.append(_T_INT)
        _write_varint(out, value)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out.extend(struct.pack("<d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_uvarint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        _write_uvarint(out, len(value))
        out.extend(value)
    elif isinstance(value, list):
        out.append(_T_LIST)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        _write_uvarint(out, len(value))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
    elif isinstance(value, (set, frozenset)):
        out.append(_T_SET)
        _write_uvarint(out, len(value))
        for item in sorted(value, key=_canonical_sort_key):
            _encode_into(out, item)
    elif isinstance(value, DenseClock):
        out.append(_T_DENSE_CLOCK)
        _encode_dense(out, value)
    elif isinstance(value, Epoch):
        out.append(_T_EPOCH)
        _encode_into(out, value.thread)
        _write_uvarint(out, value.time)
    elif isinstance(value, Event):
        out.append(_T_EVENT)
        _write_varint(out, value.index)
        _encode_into(out, value.thread)
        _encode_into(out, value.etype.value)
        _encode_into(out, value.target)
        _encode_into(out, value.loc)
        _encode_into(out, value.tid)
    else:
        raise CodecError(
            "cannot encode %r (type %s) -- detector snapshots are built "
            "from codec primitives, clocks, epochs and events only"
            % (value, type(value).__name__)
        )


def _encode_dense(out: bytearray, clock: DenseClock) -> None:
    times = clock._times
    end = len(times)
    while end and not times[end - 1]:
        end -= 1
    _write_uvarint(out, end)
    for component in times[:end]:
        _write_uvarint(out, component)


def encode(value: Any) -> bytes:
    """Encode ``value`` (codec primitives / clocks / epochs / events)."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


# --------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------- #

def _decode_from(reader: _Reader) -> Any:
    tag = reader.read_byte()
    if tag == _T_NONE:
        return None
    if tag == _T_FALSE:
        return False
    if tag == _T_TRUE:
        return True
    if tag == _T_INT:
        return reader.read_varint()
    if tag == _T_FLOAT:
        return struct.unpack("<d", reader.read_bytes(8))[0]
    if tag == _T_STR:
        return reader.read_bytes(reader.read_uvarint()).decode("utf-8")
    if tag == _T_BYTES:
        return reader.read_bytes(reader.read_uvarint())
    if tag == _T_LIST:
        return [_decode_from(reader) for _ in range(reader.read_uvarint())]
    if tag == _T_TUPLE:
        return tuple(
            _decode_from(reader) for _ in range(reader.read_uvarint())
        )
    if tag == _T_DICT:
        count = reader.read_uvarint()
        result = {}
        for _ in range(count):
            key = _decode_from(reader)
            result[key] = _decode_from(reader)
        return result
    if tag == _T_SET:
        return {_decode_from(reader) for _ in range(reader.read_uvarint())}
    if tag == _T_DENSE_CLOCK:
        return _decode_dense(reader)
    if tag == _T_EPOCH:
        thread = _decode_from(reader)
        return Epoch(thread, reader.read_uvarint())
    if tag == _T_EVENT:
        index = reader.read_varint()
        thread = _decode_from(reader)
        etype_value = _decode_from(reader)
        target = _decode_from(reader)
        loc = _decode_from(reader)
        tid = _decode_from(reader)
        try:
            etype = _ETYPE_OF_VALUE[etype_value]
        except KeyError:
            raise CodecError("unknown event type %r" % (etype_value,)) from None
        return Event(index, thread, etype, target, loc, tid=tid)
    raise CodecError("unknown codec tag 0x%02x" % tag)


def _decode_dense(reader: _Reader) -> DenseClock:
    count = reader.read_uvarint()
    # _from_times builds the active backend's backing buffer (list or
    # array('q')) without re-validating components the codec produced.
    return DenseClock._from_times(
        reader.read_uvarint() for _ in range(count)
    )


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`; raises :class:`CodecError` on bad input."""
    reader = _Reader(data)
    value = _decode_from(reader)
    if reader.pos != len(data):
        raise CodecError(
            "%d trailing byte(s) after decoded value" % (len(data) - reader.pos)
        )
    return value


# --------------------------------------------------------------------- #
# Clock wire helpers (the shard-boundary protocol's unit)
# --------------------------------------------------------------------- #

def encode_clock(clock: DenseClock) -> bytes:
    """Serialize a tid-keyed :class:`DenseClock` for transport."""
    return encode(clock)


def decode_clock(data: bytes) -> DenseClock:
    """Inverse of :func:`encode_clock`."""
    value = decode(data)
    if isinstance(value, DenseClock):
        return value
    raise CodecError("blob does not contain a clock (got %s)"
                     % type(value).__name__)
