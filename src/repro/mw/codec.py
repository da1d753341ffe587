"""Typed binary codec — the ``pack``/``unpack`` layer of MWRMComm.

The Wisconsin MW exposes ``pack(<type> array, int size)`` / ``unpack`` calls
so applications never see the wire format.  This module provides the same
service for the Python reproduction: a small tag-length-value serialization
for the types that cross the master/worker boundary (scalars, strings, bytes,
lists, tuples, dicts and NumPy arrays).  No pickle — the format is explicit,
versioned by construction, and round-trip tested property-style.

The length-prefixed frame around an encoded payload lives in
:mod:`repro.wire`, which also defines :class:`CodecError` so that a bad
frame and a bad payload fail the same way.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Tuple

import numpy as np

from repro.wire import CodecError

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_TUPLE = b"t"
_TAG_DICT = b"d"
_TAG_ARRAY = b"a"
_TAG_FLOAT_LIST = b"L"
_TAG_INT_LIST = b"I"
_TAG_STR_LIST = b"S"

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_INT_MIN = -(2**63)
_INT_MAX = 2**63 - 1


def pack(obj: Any) -> bytes:
    """Serialize ``obj`` to bytes."""
    out = bytearray()
    _pack_into(obj, out)
    return bytes(out)


def _pack_into(obj: Any, out: bytearray) -> None:
    # One dict lookup on the exact type instead of a chain of isinstance
    # tests: a batch frame packs some sixty values, so the chain's
    # per-value cost was most of the frame's encode time.
    packer = _PACKERS.get(type(obj)) or _fallback_packer(obj)
    packer(obj, out)


def _pack_none(obj: None, out: bytearray) -> None:
    out += _TAG_NONE


def _pack_bool(obj: bool, out: bytearray) -> None:
    out += _TAG_TRUE if obj else _TAG_FALSE


def _pack_int(obj: int, out: bytearray) -> None:
    if not (_INT_MIN <= obj <= _INT_MAX):
        raise CodecError(f"integer out of 64-bit range: {obj}")
    out += _TAG_INT
    out += _I64.pack(obj)


def _pack_float(obj: float, out: bytearray) -> None:
    out += _TAG_FLOAT
    out += _F64.pack(obj)


def _pack_str(obj: str, out: bytearray) -> None:
    data = obj.encode("utf-8")
    out += _TAG_STR
    out += _U32.pack(len(data))
    out += data


def _pack_bytes(obj: bytes, out: bytearray) -> None:
    out += _TAG_BYTES
    out += _U32.pack(len(obj))
    out += obj


def _pack_float_list(obj: list, out: bytearray) -> None:
    out += _TAG_FLOAT_LIST
    out += _U32.pack(len(obj))
    out += struct.pack(f"<{len(obj)}d", *obj)


def _pack_int_list(obj: list, out: bytearray) -> None:
    try:
        data = struct.pack(f"<{len(obj)}q", *obj)
    except struct.error:
        bad = next(x for x in obj if not (_INT_MIN <= x <= _INT_MAX))
        raise CodecError(f"integer out of 64-bit range: {bad}") from None
    out += _TAG_INT_LIST
    out += _U32.pack(len(obj))
    out += data


def _pack_str_list(obj: list, out: bytearray) -> None:
    encoded = [item.encode("utf-8") for item in obj]
    out += _TAG_STR_LIST
    out += _U32.pack(len(obj))
    out += struct.pack(f"<{len(obj)}I", *map(len, encoded))
    out += b"".join(encoded)


#: Homogeneous-list fast paths, keyed by the exact element type.  Each
#: packs the whole column in one struct call (ids, theta vectors and value
#: lists are the wire's hottest shapes) and unpacks to the identical list;
#: IEEE doubles pass through struct bit for bit.  Types match exactly —
#: ``type(True) is int`` is false — so a list mixing bools and ints takes
#: the generic tag and keeps its bools.
_LIST_PACKERS = {
    float: _pack_float_list,
    int: _pack_int_list,
    str: _pack_str_list,
}


def _pack_list(obj: list, out: bytearray) -> None:
    if obj:
        kind = type(obj[0])
        fast = _LIST_PACKERS.get(kind)
        if fast is not None and all(type(item) is kind for item in obj):
            fast(obj, out)
            return
    out += _TAG_LIST
    out += _U32.pack(len(obj))
    for item in obj:
        _pack_into(item, out)


def _pack_tuple(obj: tuple, out: bytearray) -> None:
    out += _TAG_TUPLE
    out += _U32.pack(len(obj))
    for item in obj:
        _pack_into(item, out)


def _pack_dict(obj: dict, out: bytearray) -> None:
    out += _TAG_DICT
    out += _U32.pack(len(obj))
    for key, value in obj.items():
        _pack_into(key, out)
        _pack_into(value, out)


def _pack_array(obj: np.ndarray, out: bytearray) -> None:
    if obj.dtype.hasobject:
        raise CodecError("object arrays are not supported")
    arr = np.ascontiguousarray(obj)
    dtype_str = arr.dtype.str.encode("ascii")
    out += _TAG_ARRAY
    out += _U32.pack(len(dtype_str))
    out += dtype_str
    out += _U32.pack(arr.ndim)
    for dim in arr.shape:
        out += _I64.pack(dim)
    raw = arr.tobytes()
    out += _U32.pack(len(raw))
    out += raw


_PACKERS = {
    type(None): _pack_none,
    bool: _pack_bool,
    int: _pack_int,
    float: _pack_float,
    str: _pack_str,
    bytes: _pack_bytes,
    bytearray: _pack_bytes,
    list: _pack_list,
    tuple: _pack_tuple,
    dict: _pack_dict,
    np.ndarray: _pack_array,
}


def _fallback_packer(obj: Any):
    """Resolve a type missing from :data:`_PACKERS` by ``isinstance``.

    Subclasses of the supported types pack as their base type; NumPy
    scalars convert to the matching Python scalar.
    """
    for base in (int, float, str, bytes, bytearray, list, tuple, dict, np.ndarray):
        if isinstance(obj, base):
            return _PACKERS[base]
    if isinstance(obj, np.integer):
        return lambda obj, out: _pack_int(int(obj), out)
    if isinstance(obj, np.floating):
        return lambda obj, out: _pack_float(float(obj), out)
    if isinstance(obj, np.bool_):
        return lambda obj, out: _pack_bool(bool(obj), out)
    raise CodecError(f"unsupported type {type(obj).__name__}")


def unpack(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`pack`.

    Every malformed payload raises :class:`CodecError` — a stream
    transport decodes on its master's own thread, where any other
    exception would end the run instead of dropping one bad peer.
    """
    try:
        obj, offset = _unpack_from(data, 0)
    except struct.error as exc:
        raise CodecError(f"truncated payload: {exc}") from None
    except RecursionError:
        raise CodecError("payload nests too deeply") from None
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after payload")
    return obj


def _take(data: bytes, offset: int, length: int) -> bytes:
    chunk = data[offset : offset + length]
    if len(chunk) != length:
        raise CodecError("truncated payload")
    return chunk


def _decode_utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in string: {exc.reason}") from None


def _unpack_from(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise CodecError("truncated payload")
    unpacker = _UNPACKERS.get(data[offset])
    if unpacker is None:
        raise CodecError(f"unknown tag {data[offset : offset + 1]!r} at offset {offset}")
    return unpacker(data, offset + 1)


def _unpack_none(data: bytes, offset: int) -> Tuple[Any, int]:
    return None, offset


def _unpack_true(data: bytes, offset: int) -> Tuple[Any, int]:
    return True, offset


def _unpack_false(data: bytes, offset: int) -> Tuple[Any, int]:
    return False, offset


def _unpack_int(data: bytes, offset: int) -> Tuple[Any, int]:
    (value,) = _I64.unpack_from(data, offset)
    return value, offset + 8


def _unpack_float(data: bytes, offset: int) -> Tuple[Any, int]:
    (value,) = _F64.unpack_from(data, offset)
    return value, offset + 8


def _unpack_str(data: bytes, offset: int) -> Tuple[Any, int]:
    (length,) = _U32.unpack_from(data, offset)
    offset += 4
    return _decode_utf8(_take(data, offset, length)), offset + length


def _unpack_bytes(data: bytes, offset: int) -> Tuple[Any, int]:
    (length,) = _U32.unpack_from(data, offset)
    offset += 4
    return _take(data, offset, length), offset + length


def _unpack_float_list(data: bytes, offset: int) -> Tuple[Any, int]:
    (count,) = _U32.unpack_from(data, offset)
    offset += 4
    values = struct.unpack_from(f"<{count}d", data, offset)
    return list(values), offset + 8 * count


def _unpack_int_list(data: bytes, offset: int) -> Tuple[Any, int]:
    (count,) = _U32.unpack_from(data, offset)
    offset += 4
    values = struct.unpack_from(f"<{count}q", data, offset)
    return list(values), offset + 8 * count


def _unpack_str_list(data: bytes, offset: int) -> Tuple[Any, int]:
    (count,) = _U32.unpack_from(data, offset)
    offset += 4
    lengths = struct.unpack_from(f"<{count}I", data, offset)
    offset += 4 * count
    total = sum(lengths)
    raw = _take(data, offset, total)
    items = []
    start = 0
    if raw.isascii():
        # one decode for the whole column; ASCII byte and character
        # offsets coincide, so the lengths slice the decoded text
        text = raw.decode("ascii")
        for length in lengths:
            items.append(text[start : start + length])
            start += length
    else:
        for length in lengths:
            items.append(_decode_utf8(raw[start : start + length]))
            start += length
    return items, offset + total


def _unpack_sequence(data: bytes, offset: int) -> Tuple[list, int]:
    (count,) = _U32.unpack_from(data, offset)
    offset += 4
    items = []
    for _ in range(count):
        item, offset = _unpack_from(data, offset)
        items.append(item)
    return items, offset


def _unpack_tuple(data: bytes, offset: int) -> Tuple[Any, int]:
    items, offset = _unpack_sequence(data, offset)
    return tuple(items), offset


def _unpack_dict(data: bytes, offset: int) -> Tuple[Any, int]:
    (count,) = _U32.unpack_from(data, offset)
    offset += 4
    result = {}
    for _ in range(count):
        key, offset = _unpack_from(data, offset)
        value, offset = _unpack_from(data, offset)
        try:
            result[key] = value
        except TypeError:
            raise CodecError(
                f"unhashable dict key of type {type(key).__name__}"
            ) from None
    return result, offset


def _unpack_array(data: bytes, offset: int) -> Tuple[Any, int]:
    (dlen,) = _U32.unpack_from(data, offset)
    offset += 4
    dtype_str = _take(data, offset, dlen)
    offset += dlen
    try:
        dtype = np.dtype(dtype_str.decode("ascii"))
    except (UnicodeDecodeError, TypeError, ValueError):
        raise CodecError(f"invalid array dtype {dtype_str!r}") from None
    if dtype.hasobject:
        raise CodecError("object arrays are not supported")
    (ndim,) = _U32.unpack_from(data, offset)
    offset += 4
    shape = struct.unpack_from(f"<{ndim}q", data, offset)
    offset += 8 * ndim
    if any(dim < 0 for dim in shape):
        raise CodecError(f"negative array dimension in shape {shape}")
    (rlen,) = _U32.unpack_from(data, offset)
    offset += 4
    if rlen != math.prod(shape) * dtype.itemsize:
        raise CodecError(
            f"array of shape {shape} and dtype {dtype.str} needs "
            f"{math.prod(shape) * dtype.itemsize} bytes, payload declares {rlen}"
        )
    raw = _take(data, offset, rlen)
    try:
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    except ValueError as exc:
        raise CodecError(f"malformed array: {exc}") from None
    return arr, offset + rlen


_UNPACKERS = {
    tag[0]: unpacker
    for tag, unpacker in (
        (_TAG_NONE, _unpack_none),
        (_TAG_TRUE, _unpack_true),
        (_TAG_FALSE, _unpack_false),
        (_TAG_INT, _unpack_int),
        (_TAG_FLOAT, _unpack_float),
        (_TAG_STR, _unpack_str),
        (_TAG_BYTES, _unpack_bytes),
        (_TAG_LIST, _unpack_sequence),
        (_TAG_TUPLE, _unpack_tuple),
        (_TAG_DICT, _unpack_dict),
        (_TAG_ARRAY, _unpack_array),
        (_TAG_FLOAT_LIST, _unpack_float_list),
        (_TAG_INT_LIST, _unpack_int_list),
        (_TAG_STR_LIST, _unpack_str_list),
    )
}
