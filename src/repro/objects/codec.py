"""Binary record codec.

Record layout::

    [object header][scalar attributes, fixed offsets][set attributes]

Scalars (ints, reals, chars, bools, fixed-width strings, refs) live at
offsets precomputed per class, so a query can decode a single attribute
without materializing the whole object.  Set attributes come last and are
either *inline* (small sets: the rids follow the count) or *overflow*
(large sets: only a head rid pointing into the large-collection file) —
O2 stores collections beyond a page threshold in a separate file (paper,
Section 2), which is why 1000-patient ``clients`` sets live apart while
3-patient ones sit next to their provider.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.errors import SchemaError
from repro.objects.header import FIXED_SIZE, ObjectHeader
from repro.objects.model import AttrKind, AttributeDef, ClassDef
from repro.storage.rid import NIL_RID, Rid

#: A set whose rids would exceed this many bytes moves to the
#: large-collection file (O2's threshold is the 4 KB page; records also
#: carry the object's other attributes, hence a bit less).
INLINE_SET_LIMIT_BYTES = 3400

_RID = struct.Struct("<hih")  # file_id, page_no, slot  (8 bytes)
_SET_PREFIX = struct.Struct("<BI")  # tag, count

_SCALAR_STRUCTS = {
    AttrKind.INT32: struct.Struct("<i"),
    AttrKind.REAL64: struct.Struct("<d"),
    AttrKind.BOOL: struct.Struct("<?"),
}


def encode_rid(rid: Rid) -> bytes:
    return _RID.pack(rid.file_id, rid.page_no, rid.slot)


#: ``Rid`` from an unpacked ``(file_id, page_no, slot)`` tuple, at C speed.
make_rid = partial(tuple.__new__, Rid)


def decode_rid(buf: bytes, offset: int = 0) -> Rid:
    return make_rid(_RID.unpack_from(buf, offset))


@dataclass(frozen=True)
class InlineSet:
    """A small ref-set stored inside its owner's record."""

    rids: tuple[Rid, ...]

    @property
    def count(self) -> int:
        return len(self.rids)


@dataclass(frozen=True)
class OverflowSet:
    """A large ref-set: only a head pointer into the collection store."""

    head: Rid
    count: int


class RecordCodec:
    """Encodes/decodes instances of one class version.

    Built once per :class:`ClassDef` (its ``codec``): the scalar offsets
    and one reader closure per attribute are resolved here, so decoding
    an attribute is a dict lookup and a call.
    """

    def __init__(self, class_def: ClassDef):
        self.class_def = class_def
        layout = class_def.all_attributes()
        #: Scalar attributes in storage order, then set attributes.
        self.scalars = tuple(a for a in layout if not a.is_variable)
        self.sets = tuple(a for a in layout if a.is_variable)
        #: scalar name -> (attribute, offset past the header).
        self._scalar_at: dict[str, tuple[AttributeDef, int]] = {}
        #: name -> (kind, reader), in storage order; a reader decodes its
        #: attribute from a whole record.
        self.fields: dict[str, tuple[AttrKind, Callable[[bytes], object]]] = {}
        offset = 0
        for attr in self.scalars:
            self._scalar_at[attr.name] = (attr, offset)
            self.fields[attr.name] = (attr.kind, _scalar_reader(attr, offset))
            offset += attr.fixed_size  # type: ignore[operator]
        self.scalar_size = offset
        for index, attr in enumerate(self.sets):
            self.fields[attr.name] = (attr.kind, _set_reader(offset, index))

    # -- encoding -----------------------------------------------------------

    def encode(self, header: ObjectHeader, values: dict[str, object]) -> bytes:
        """Serialize ``values`` (attribute name -> python value) behind
        ``header``.  Set attributes accept an :class:`InlineSet`, an
        :class:`OverflowSet`, or a plain sequence of rids (encoded
        inline; the caller must have checked the inline limit)."""
        parts = [header.encode()]
        for attr in self.scalars:
            parts.append(
                self._encode_scalar(attr, values.get(attr.name, attr.default))
            )
        for attr in self.sets:
            parts.append(self._encode_set(attr, values.get(attr.name)))
        return b"".join(parts)

    def _encode_scalar(self, attr: AttributeDef, value: object) -> bytes:
        kind = attr.kind
        if kind is AttrKind.STRING:
            raw = str(value or "").encode("utf-8")[: attr.width]
            return raw.ljust(attr.width, b"\x00")
        if kind is AttrKind.CHAR:
            text = str(value or "\x00")
            return text.encode("latin-1")[:1] or b"\x00"
        if kind is AttrKind.REF:
            return encode_rid(value if isinstance(value, Rid) else NIL_RID)
        s = _SCALAR_STRUCTS.get(kind)
        if s is None:
            raise SchemaError(f"cannot encode attribute kind {kind}")
        if kind is AttrKind.INT32:
            return s.pack(int(value or 0))
        if kind is AttrKind.REAL64:
            return s.pack(float(value or 0.0))
        return s.pack(bool(value))

    def _encode_set(self, attr: AttributeDef, value: object) -> bytes:
        if value is None:
            value = InlineSet(())
        if isinstance(value, OverflowSet):
            return _SET_PREFIX.pack(1, value.count) + encode_rid(value.head)
        rids = value.rids if isinstance(value, InlineSet) else tuple(value)
        body = b"".join(encode_rid(r) for r in rids)
        if len(body) > INLINE_SET_LIMIT_BYTES:
            raise SchemaError(
                f"set attribute {attr.name!r} with {len(rids)} elements "
                "exceeds the inline limit; store it through the database, "
                "which spills large sets to the collection file"
            )
        return _SET_PREFIX.pack(0, len(rids)) + body

    # -- decoding -------------------------------------------------------------

    def decode_attr(self, record: bytes, name: str) -> object:
        """Decode a single attribute without touching the others."""
        field = self.fields.get(name)
        if field is None:
            raise SchemaError(
                f"class {self.class_def.name!r} has no attribute {name!r}"
            )
        return field[1](record)

    def decode(self, record: bytes) -> dict[str, object]:
        """Decode every attribute."""
        return {name: reader(record) for name, (__, reader) in self.fields.items()}

    def update_scalar(self, record: bytes, name: str, value: object) -> bytes:
        """Return a copy of ``record`` with one scalar attribute replaced
        (same size, so the record never moves for scalar updates)."""
        slot = self._scalar_at.get(name)
        if slot is None:
            if name in self.fields:
                raise SchemaError(f"{name!r} is a set attribute; use update_set")
            raise SchemaError(
                f"class {self.class_def.name!r} has no attribute {name!r}"
            )
        attr, offset = slot
        offset += ObjectHeader.peek_size(record)
        encoded = self._encode_scalar(attr, value)
        return record[:offset] + encoded + record[offset + len(encoded):]

    def update_set(self, record: bytes, name: str, value: object) -> bytes:
        """Return a copy of ``record`` with one set attribute replaced
        (the record may change size and therefore move on disk)."""
        base = ObjectHeader.peek_size(record)
        offset = base + self.scalar_size
        for attr in self.sets:
            start = offset
            __, offset = self._decode_set(record, offset)
            if attr.name == name:
                encoded = self._encode_set(attr, value)
                return record[:start] + encoded + record[offset:]
        raise SchemaError(f"class {self.class_def.name!r} has no set {name!r}")

    @staticmethod
    def _decode_set(record: bytes, offset: int) -> tuple[InlineSet | OverflowSet, int]:
        tag, count = _SET_PREFIX.unpack_from(record, offset)
        offset += _SET_PREFIX.size
        if tag == 1:
            head = decode_rid(record, offset)
            return OverflowSet(head, count), offset + _RID.size
        end = offset + count * _RID.size
        rids = tuple(map(make_rid, _RID.iter_unpack(record[offset:end])))
        return InlineSet(rids), end


# -- compiled readers ----------------------------------------------------------
#
# Each reader decodes one attribute from a whole record, with its kind
# and offset bound when the codec is built.  ``FIXED_SIZE + 2 *
# record[3]`` is ObjectHeader.peek_size inlined.


def _scalar_reader(attr: AttributeDef, offset: int) -> Callable[[bytes], object]:
    kind = attr.kind
    if kind is AttrKind.STRING:
        width = attr.width

        def read_string(record: bytes) -> object:
            start = FIXED_SIZE + 2 * record[3] + offset
            raw = record[start : start + width]
            return raw.rstrip(b"\x00").decode("utf-8", errors="replace")

        return read_string
    if kind is AttrKind.CHAR:

        def read_char(record: bytes) -> object:
            start = FIXED_SIZE + 2 * record[3] + offset
            return record[start : start + 1].decode("latin-1")

        return read_char
    if kind is AttrKind.REF:
        unpack_rid = _RID.unpack_from

        def read_ref(record: bytes) -> object:
            rid = make_rid(unpack_rid(record, FIXED_SIZE + 2 * record[3] + offset))
            return None if rid == NIL_RID else rid

        return read_ref
    unpack = _SCALAR_STRUCTS[kind].unpack_from

    def read_number(record: bytes) -> object:
        return unpack(record, FIXED_SIZE + 2 * record[3] + offset)[0]

    return read_number


def _set_reader(scalar_size: int, index: int) -> Callable[[bytes], object]:
    """Reader for the ``index``-th set attribute: skips the sets before
    it by their prefixes alone."""
    unpack_prefix = _SET_PREFIX.unpack_from

    def read_set(record: bytes) -> object:
        offset = FIXED_SIZE + 2 * record[3] + scalar_size
        for __ in range(index):
            tag, count = unpack_prefix(record, offset)
            offset += _SET_PREFIX.size + (_RID.size if tag == 1 else count * _RID.size)
        return RecordCodec._decode_set(record, offset)[0]

    return read_set
