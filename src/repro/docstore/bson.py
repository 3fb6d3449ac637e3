"""A real BSON codec (the subset MongoDB 1.8 uses for YCSB documents).

Implements the binary element types the reproduction stores: double (0x01),
UTF-8 string (0x02), embedded document (0x03), boolean (0x08), null (0x0A),
int32 (0x10), and int64 (0x12).  Round-trip fidelity is tested against the
YCSB record shape (a 24-byte key plus ten 100-byte string fields).

Every codec error is a :class:`StorageError`: :func:`encode` refuses what
:func:`decode` could not read back (a NUL in a field name, an integer
outside int64), and :func:`decode` refuses a buffer whose elements do not
end exactly on its trailing NUL or whose strings do not end in NUL.
"""

from __future__ import annotations

import struct

from repro.common.errors import StorageError

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

_INT32 = struct.Struct("<i")
_INT64 = struct.Struct("<q")
_DOUBLE = struct.Struct("<d")
_pack_int32 = _INT32.pack
_unpack_int32 = _INT32.unpack_from

#: Value width of each fixed-size element type (null carries no value).
_FIXED_WIDTH = {0x01: 8, 0x08: 1, 0x0A: 0, 0x10: 4, 0x12: 8}


def _nul_in_name(name: str) -> StorageError:
    return StorageError(f"BSON field name {name!r} contains NUL")


def _encode_element(name: str, value) -> bytes:
    if "\x00" in name:
        raise _nul_in_name(name)
    cname = name.encode("utf-8") + b"\x00"
    if value is None:
        return b"\x0a" + cname
    if isinstance(value, bool):
        return b"\x08" + cname + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        if _INT32_MIN <= value <= _INT32_MAX:
            return b"\x10" + cname + _pack_int32(value)
        if _INT64_MIN <= value <= _INT64_MAX:
            return b"\x12" + cname + _INT64.pack(value)
        raise StorageError(f"BSON field {name!r}: {value} does not fit in int64")
    if isinstance(value, float):
        return b"\x01" + cname + _DOUBLE.pack(value)
    if isinstance(value, str):
        raw = value.encode("utf-8") + b"\x00"
        return b"\x02" + cname + _pack_int32(len(raw)) + raw
    if isinstance(value, dict):
        return b"\x03" + cname + encode(value)
    raise StorageError(f"cannot BSON-encode {type(value).__name__}")


def encode(document: dict) -> bytes:
    """Serialize a document to BSON bytes."""
    parts: list[bytes] = []
    extend = parts.extend
    try:
        for key, value in document.items():
            name = str(key)
            if type(value) is str:
                if "\x00" in name:
                    raise _nul_in_name(name)
                raw = value.encode()
                extend((b"\x02", name.encode(), b"\x00",
                        _pack_int32(len(raw) + 1), raw, b"\x00"))
            else:
                parts.append(_encode_element(name, value))
    except UnicodeEncodeError as exc:
        raise StorageError(f"cannot BSON-encode: {exc}") from None
    body = b"".join(parts)
    # Total length (4 bytes) + body + trailing NUL.
    return _pack_int32(len(body) + 5) + body + b"\x00"


def _trailing_nul(data: bytes) -> int:
    """Position of the trailing NUL of a document whose frame is sound."""
    size = len(data)
    if size < 5:
        raise StorageError("BSON document too short")
    (length,) = _unpack_int32(data, 0)
    if length != size:
        raise StorageError(f"BSON length {length} != buffer {size}")
    if data[-1] != 0:
        raise StorageError("BSON document missing trailing NUL")
    return size - 1


def _malformed(exc: Exception) -> StorageError:
    return StorageError(f"malformed BSON document: {exc}")


def _overrun() -> StorageError:
    return StorageError("BSON elements do not end at the trailing NUL")


def decode(data: bytes) -> dict:
    """Parse BSON bytes back into a document."""
    end = _trailing_nul(data)
    document: dict = {}
    index = data.index
    pos = 4
    try:
        while pos < end:
            kind = data[pos]
            stop = index(0, pos + 1)
            name = data[pos + 1 : stop].decode()
            pos = stop + 1
            if kind == 0x02:
                (slen,) = _unpack_int32(data, pos)
                start = pos + 4
                pos = start + slen
                if slen < 1 or data[pos - 1]:
                    raise StorageError(f"BSON string {name!r} does not end in NUL")
                document[name] = data[start : pos - 1].decode()
            elif kind == 0x10:
                (document[name],) = _unpack_int32(data, pos)
                pos += 4
            elif kind == 0x12:
                (document[name],) = _INT64.unpack_from(data, pos)
                pos += 8
            elif kind == 0x01:
                (document[name],) = _DOUBLE.unpack_from(data, pos)
                pos += 8
            elif kind == 0x08:
                document[name] = data[pos] == 1
                pos += 1
            elif kind == 0x0A:
                document[name] = None
            elif kind == 0x03:
                (dlen,) = _unpack_int32(data, pos)
                document[name] = decode(data[pos : pos + dlen])
                pos += dlen
            else:
                raise StorageError(f"unsupported BSON element type 0x{kind:02x}")
    except (struct.error, ValueError, IndexError) as exc:
        raise _malformed(exc) from None
    if pos != end:
        raise _overrun()
    return document


def with_field(data: bytes, name: str, value) -> bytes:
    """``encode({**decode(data), name: value})`` for any ``data`` that
    :func:`encode` produced, without decoding a value.

    Walks only the element headers (type byte, name, the int32 length of a
    string or embedded document, the fixed width of any other type), then
    splices the re-encoded element in place of the one named ``name`` — or
    appends it when the name is absent, as dict assignment does — and
    patches the frame length.
    """
    name = str(name)
    try:
        element = _encode_element(name, value)
        cname = name.encode() + b"\x00"
    except UnicodeEncodeError as exc:
        raise StorageError(f"cannot BSON-encode: {exc}") from None
    end = _trailing_nul(data)
    start = None
    pos = 4
    try:
        while pos < end:
            head = pos
            kind = data[pos]
            if start is None and data.startswith(cname, pos + 1):
                start = head
                pos += len(cname) + 1
            else:
                pos = data.index(0, pos + 1) + 1
            if kind == 0x02:
                (slen,) = _unpack_int32(data, pos)
                pos += 4 + slen
                if slen < 1 or data[pos - 1]:
                    raise StorageError("BSON string does not end in NUL")
            elif kind == 0x03:
                (dlen,) = _unpack_int32(data, pos)
                if dlen < 5:
                    raise StorageError(f"BSON embedded document length {dlen}")
                pos += dlen
            elif kind in _FIXED_WIDTH:
                pos += _FIXED_WIDTH[kind]
            else:
                raise StorageError(f"unsupported BSON element type 0x{kind:02x}")
            if start == head:
                after = pos
    except (struct.error, ValueError, IndexError) as exc:
        raise _malformed(exc) from None
    if pos != end:
        raise _overrun()
    if start is None:
        start = after = end  # an absent name is appended before the NUL
    size = len(data) - (after - start) + len(element)
    return b"".join((_pack_int32(size), data[4:start], element, data[after:]))


def encoded_size(document: dict) -> int:
    """Size of the document's BSON form (the stored record footprint)."""
    return len(encode(document))
