"""8 KB slotted pages and the clustered heap under the B-tree index.

SQL Server reads and writes 8 KB pages — the unit the paper contrasts with
MongoDB's 32 KB reads in workload C.  Rows are serialized with a compact
length-prefixed codec so page occupancy is real (a 1 KB YCSB record fits
7 rows to a page, which matches the paper's I/O arithmetic).  Every codec
error is a :class:`StorageError`.
"""

from __future__ import annotations

import struct

from repro.common.errors import StorageError

PAGE_SIZE = 8192
PAGE_HEADER = 96  # slot directory + header, as in SQL Server
ROW_SLOT = 8  # slot-array entry per row
# The largest row one page holds: an empty page less the row's slot.
MAX_ROW_BYTES = PAGE_SIZE - PAGE_HEADER - ROW_SLOT

_COUNT = struct.Struct("<H")
_COLUMN = struct.Struct("<HI")  # name length, value length
_pack_column = _COLUMN.pack
_unpack_column = _COLUMN.unpack_from


def _not_a_string(value) -> StorageError:
    return StorageError(f"sqlstore rows are all-string; got {type(value)}")


def _unencodable(exc: Exception) -> StorageError:
    return StorageError(f"cannot encode row: {exc}")


def _malformed(exc: Exception) -> StorageError:
    return StorageError(f"malformed row: {exc}")


def _overrun(pos: int, size: int) -> StorageError:
    return StorageError(f"row columns end at byte {pos} of {size}")


def encode_row(row: dict) -> bytes:
    """Length-prefixed (name, value) string pairs: a ``<H`` column count,
    then per column a ``<HI`` header (name and value byte lengths), the
    UTF-8 name and the UTF-8 value."""
    try:
        parts = [_COUNT.pack(len(row))]
        extend = parts.extend
        for name, value in row.items():
            if not isinstance(value, str):
                raise _not_a_string(value)
            nraw = name.encode()
            vraw = value.encode()
            extend((_pack_column(len(nraw), len(vraw)), nraw, vraw))
    except (struct.error, AttributeError, UnicodeEncodeError) as exc:
        raise _unencodable(exc) from None
    return b"".join(parts)


def decode_row(data: bytes) -> dict:
    """The row :func:`encode_row` wrote; the columns must end exactly at
    the end of ``data``."""
    row = {}
    pos = 2
    try:
        (count,) = _COUNT.unpack_from(data, 0)
        for _ in range(count):
            nlen, vlen = _unpack_column(data, pos)
            start = pos + 6
            mid = start + nlen
            pos = mid + vlen
            row[data[start:mid].decode()] = data[mid:pos].decode()
    except (struct.error, ValueError) as exc:
        raise _malformed(exc) from None
    if pos != len(data):
        raise _overrun(pos, len(data))
    return row


def row_with_field(data: bytes, name: str, value: str) -> bytes:
    """``encode_row({**decode_row(data), name: value})`` for any ``data``
    that :func:`encode_row` produced, without decoding a column.

    Walks only the column headers, then splices the re-encoded column in
    place of the one named ``name`` — or appends it and bumps the column
    count when the name is absent, as dict assignment does.
    """
    if not isinstance(value, str):
        raise _not_a_string(value)
    try:
        nraw = name.encode()
        vraw = value.encode()
        column = _pack_column(len(nraw), len(vraw)) + nraw + vraw
    except (struct.error, AttributeError, UnicodeEncodeError) as exc:
        raise _unencodable(exc) from None
    width = len(nraw)
    start = None
    pos = 2
    try:
        (count,) = _COUNT.unpack_from(data, 0)
        for _ in range(count):
            nlen, vlen = _unpack_column(data, pos)
            head = pos
            pos += 6 + nlen + vlen
            if start is None and nlen == width and data.startswith(nraw, head + 6):
                start, after = head, pos
    except struct.error as exc:
        raise _malformed(exc) from None
    if pos != len(data):
        raise _overrun(pos, len(data))
    if start is not None:
        return b"".join((data[:start], column, data[after:]))
    try:
        return b"".join((_COUNT.pack(count + 1), data[2:], column))
    except struct.error as exc:
        raise _unencodable(exc) from None


class Page:
    """One 8 KB page holding serialized rows keyed by their primary key."""

    def __init__(self, page_id: int):
        self.page_id = page_id
        self.rows: dict[str, bytes] = {}
        self.used = PAGE_HEADER
        self.dirty = False

    def fits(self, data: bytes, replacing: bytes = b"") -> bool:
        """Whether ``data`` (plus its slot) fits, once the row ``replacing``
        is removed."""
        return self.used - len(replacing) + len(data) + ROW_SLOT <= PAGE_SIZE

    def put(self, key: str, data: bytes) -> None:
        """Insert or overwrite a row; refuses, leaving the page unchanged,
        when the row would not fit."""
        old = self.rows.get(key, b"")
        if not self.fits(data, old):
            raise StorageError(f"page {self.page_id} full")
        self.rows[key] = data
        self.used += len(data) - len(old)
        self.dirty = True

    def get(self, key: str) -> bytes | None:
        return self.rows.get(key)

    def delete(self, key: str) -> bool:
        data = self.rows.pop(key, None)
        if data is None:
            return False
        self.used -= len(data)
        self.dirty = True
        return True

    @property
    def row_count(self) -> int:
        return len(self.rows)


class PageManager:
    """Allocates pages and remembers which is the current insertion target."""

    def __init__(self):
        self._pages: dict[int, Page] = {}
        self._next_id = 0
        self._current: Page | None = None

    def allocate(self) -> Page:
        page = Page(self._next_id)
        self._pages[self._next_id] = page
        self._next_id += 1
        self._current = page
        return page

    def get(self, page_id: int) -> Page:
        if page_id not in self._pages:
            raise StorageError(f"no page {page_id}")
        return self._pages[page_id]

    def page_for_insert(self, data: bytes) -> Page:
        """The current fill target, or a fresh page when it is full."""
        if self._current is None or not self._current.fits(data):
            return self.allocate()
        return self._current

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def dirty_pages(self) -> list[Page]:
        return [p for p in self._pages.values() if p.dirty]
