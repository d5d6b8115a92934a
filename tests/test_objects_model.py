"""Unit tests for the class model, headers and record codec."""

from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexSlotOverflowError, SchemaError
from repro.objects.codec import (
    InlineSet,
    OverflowSet,
    RecordCodec,
    decode_rid,
    encode_rid,
)
from repro.objects.header import (
    FLAG_INDEXED,
    FLAG_PERSISTENT,
    INDEX_SLOT_BLOCK,
    ObjectHeader,
)
from repro.objects.model import AttrKind, AttributeDef, Schema
from repro.storage.rid import NIL_RID, Rid


def patient_schema() -> Schema:
    schema = Schema()
    schema.define(
        "Patient",
        [
            AttributeDef("name", AttrKind.STRING),
            AttributeDef("mrn", AttrKind.INT32),
            AttributeDef("age", AttrKind.INT32),
            AttributeDef("sex", AttrKind.CHAR),
            AttributeDef("primary_care_provider", AttrKind.REF, target="Provider"),
        ],
    )
    schema.define(
        "Provider",
        [
            AttributeDef("name", AttrKind.STRING),
            AttributeDef("upin", AttrKind.INT32),
            AttributeDef("clients", AttrKind.REF_SET, target="Patient"),
        ],
    )
    return schema


# ------------------------------------------------------------- model

class TestSchema:
    def test_define_and_lookup(self):
        schema = patient_schema()
        patient = schema.cls("Patient")
        assert patient.attribute("mrn").kind is AttrKind.INT32
        assert schema.by_id(patient.class_id) is patient

    def test_duplicate_class_rejected(self):
        schema = patient_schema()
        with pytest.raises(SchemaError):
            schema.define("Patient", [])

    def test_unknown_class_rejected(self):
        with pytest.raises(SchemaError):
            patient_schema().cls("Nurse")

    def test_unknown_attribute_rejected(self):
        schema = patient_schema()
        with pytest.raises(SchemaError):
            schema.cls("Patient").attribute("salary")

    def test_inheritance_prepends_attributes(self):
        schema = Schema()
        schema.define("Person", [AttributeDef("name", AttrKind.STRING)])
        child = schema.define(
            "Employee", [AttributeDef("salary", AttrKind.INT32)], superclass="Person"
        )
        assert [a.name for a in child.all_attributes()] == ["name", "salary"]
        assert child.is_subclass_of(schema.cls("Person"))
        assert not schema.cls("Person").is_subclass_of(child)

    def test_unknown_superclass(self):
        with pytest.raises(SchemaError):
            Schema().define("X", [], superclass="Ghost")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Schema().define(
                "Bad",
                [
                    AttributeDef("x", AttrKind.INT32),
                    AttributeDef("x", AttrKind.CHAR),
                ],
            )

    def test_scalar_and_set_partition(self):
        provider = patient_schema().cls("Provider")
        assert [a.name for a in provider.scalar_attributes()] == ["name", "upin"]
        assert [a.name for a in provider.set_attributes()] == ["clients"]


# ------------------------------------------------------------- header

class TestObjectHeader:
    def test_new_unindexed_header_has_no_slots(self):
        header = ObjectHeader.for_new_object(3, in_indexed_collection=False)
        assert header.slot_count == 0
        assert header.size == 5
        assert not header.is_indexed
        assert header.is_persistent

    def test_new_indexed_header_reserves_a_block(self):
        header = ObjectHeader.for_new_object(3, in_indexed_collection=True)
        assert header.slot_count == INDEX_SLOT_BLOCK
        assert header.size == 5 + 2 * INDEX_SLOT_BLOCK
        assert header.is_indexed

    def test_encode_decode_roundtrip(self):
        header = ObjectHeader.for_new_object(7, True)
        header.add_index(42)
        decoded = ObjectHeader.decode(header.encode())
        assert decoded.class_id == 7
        assert decoded.index_ids == [42]
        assert decoded.slot_count == INDEX_SLOT_BLOCK

    def test_add_index_into_free_slot_does_not_grow(self):
        header = ObjectHeader.for_new_object(1, True)
        assert header.add_index(5) is False

    def test_add_index_without_slots_grows(self):
        header = ObjectHeader.for_new_object(1, False)
        assert header.add_index(5) is True
        assert header.slot_count == INDEX_SLOT_BLOCK

    def test_add_ninth_index_grows_again(self):
        header = ObjectHeader.for_new_object(1, True)
        for i in range(1, 9):
            assert header.add_index(i) is False
        assert header.add_index(9) is True
        assert header.slot_count == 2 * INDEX_SLOT_BLOCK

    def test_add_index_idempotent(self):
        header = ObjectHeader.for_new_object(1, True)
        header.add_index(5)
        assert header.add_index(5) is False
        assert header.index_ids == [5]

    def test_extension_can_be_forbidden(self):
        header = ObjectHeader.for_new_object(1, False)
        with pytest.raises(IndexSlotOverflowError):
            header.add_index(5, allow_extend=False)

    def test_remove_index_keeps_slots(self):
        header = ObjectHeader.for_new_object(1, True)
        header.add_index(5)
        header.remove_index(5)
        assert header.index_ids == []
        assert header.slot_count == INDEX_SLOT_BLOCK
        assert not header.is_indexed

    def test_peek_helpers(self):
        header = ObjectHeader.for_new_object(9, True)
        encoded = header.encode() + b"payload"
        assert ObjectHeader.peek_class_id(encoded) == 9
        assert ObjectHeader.peek_size(encoded) == header.size

    def test_flags_encoding(self):
        header = ObjectHeader(2, FLAG_PERSISTENT | FLAG_INDEXED, 8)
        decoded = ObjectHeader.decode(header.encode())
        assert decoded.is_persistent and decoded.is_indexed


# ------------------------------------------------------------- codec

class TestRidCodec:
    def test_roundtrip(self):
        rid = Rid(3, 123456, 17)
        assert decode_rid(encode_rid(rid)) == rid

    def test_nil_roundtrip(self):
        assert decode_rid(encode_rid(NIL_RID)) == NIL_RID

    @given(
        st.integers(min_value=0, max_value=32000),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=32000),
    )
    @settings(max_examples=100)
    def test_property_roundtrip(self, f, p, s):
        rid = Rid(f, p, s)
        assert decode_rid(encode_rid(rid)) == rid


class TestRecordCodec:
    def make(self, cls_name="Patient"):
        schema = patient_schema()
        return schema, RecordCodec(schema.cls(cls_name))

    def test_patient_roundtrip(self):
        schema, codec = self.make()
        header = ObjectHeader.for_new_object(schema.cls("Patient").class_id, True)
        provider_rid = Rid(0, 10, 2)
        record = codec.encode(
            header,
            {
                "name": "Daisy Duck",
                "mrn": 42,
                "age": 61,
                "sex": "F",
                "primary_care_provider": provider_rid,
            },
        )
        decoded = codec.decode(record)
        assert decoded == {
            "name": "Daisy Duck",
            "mrn": 42,
            "age": 61,
            "sex": "F",
            "primary_care_provider": provider_rid,
        }

    def test_decode_single_attr_matches_full_decode(self):
        schema, codec = self.make()
        header = ObjectHeader.for_new_object(schema.cls("Patient").class_id, False)
        record = codec.encode(
            header, {"name": "Obelix", "mrn": 7, "age": 30, "sex": "M"}
        )
        assert codec.decode_attr(record, "mrn") == 7
        assert codec.decode_attr(record, "name") == "Obelix"
        assert codec.decode_attr(record, "primary_care_provider") is None

    def test_attr_offsets_independent_of_header_size(self):
        schema, codec = self.make()
        slim = ObjectHeader.for_new_object(schema.cls("Patient").class_id, False)
        wide = ObjectHeader.for_new_object(schema.cls("Patient").class_id, True)
        values = {"name": "Tintin", "mrn": 99, "age": 15, "sex": "M"}
        for header in (slim, wide):
            record = codec.encode(header, values)
            assert codec.decode_attr(record, "mrn") == 99

    def test_string_truncated_to_width(self):
        schema, codec = self.make()
        header = ObjectHeader.for_new_object(schema.cls("Patient").class_id, False)
        record = codec.encode(header, {"name": "A" * 50, "mrn": 1})
        assert codec.decode_attr(record, "name") == "A" * 16

    def test_inline_set_roundtrip(self):
        schema, codec = self.make("Provider")
        header = ObjectHeader.for_new_object(schema.cls("Provider").class_id, False)
        clients = InlineSet((Rid(1, 0, 0), Rid(1, 0, 1), Rid(1, 0, 2)))
        record = codec.encode(
            header, {"name": "Asterix", "upin": 2, "clients": clients}
        )
        assert codec.decode_attr(record, "clients") == clients

    def test_overflow_set_roundtrip(self):
        schema, codec = self.make("Provider")
        header = ObjectHeader.for_new_object(schema.cls("Provider").class_id, False)
        spilled = OverflowSet(Rid(9, 4, 0), 1000)
        record = codec.encode(header, {"name": "X", "upin": 1, "clients": spilled})
        assert codec.decode_attr(record, "clients") == spilled

    def test_oversized_inline_set_rejected(self):
        schema, codec = self.make("Provider")
        header = ObjectHeader.for_new_object(schema.cls("Provider").class_id, False)
        too_many = InlineSet(tuple(Rid(1, 0, i) for i in range(1000)))
        with pytest.raises(SchemaError):
            codec.encode(header, {"name": "X", "upin": 1, "clients": too_many})

    def test_update_scalar_preserves_size_and_neighbours(self):
        schema, codec = self.make()
        header = ObjectHeader.for_new_object(schema.cls("Patient").class_id, True)
        record = codec.encode(header, {"name": "Valentin", "mrn": 5, "age": 20})
        updated = codec.update_scalar(record, "age", 21)
        assert len(updated) == len(record)
        assert codec.decode_attr(updated, "age") == 21
        assert codec.decode_attr(updated, "name") == "Valentin"
        assert codec.decode_attr(updated, "mrn") == 5

    def test_update_set_changes_size(self):
        schema, codec = self.make("Provider")
        header = ObjectHeader.for_new_object(schema.cls("Provider").class_id, False)
        record = codec.encode(
            header, {"name": "Asterix", "upin": 2, "clients": InlineSet(())}
        )
        grown = codec.update_set(
            record, "clients", InlineSet((Rid(1, 0, 0), Rid(1, 0, 1)))
        )
        assert len(grown) > len(record)
        assert codec.decode_attr(grown, "clients").count == 2
        assert codec.decode_attr(grown, "name") == "Asterix"

    def test_update_scalar_rejects_set_attr(self):
        schema, codec = self.make("Provider")
        with pytest.raises(SchemaError):
            codec.update_scalar(b"\x00" * 32, "clients", InlineSet(()))

    def test_patient_record_is_about_sixty_bytes(self):
        """Paper, Section 2: patient objects are about 60 bytes."""
        schema = patient_schema()
        full = Schema()
        full.define(
            "Patient",
            [
                AttributeDef("name", AttrKind.STRING),
                AttributeDef("mrn", AttrKind.INT32),
                AttributeDef("age", AttrKind.INT32),
                AttributeDef("sex", AttrKind.CHAR),
                AttributeDef("random_integer", AttrKind.INT32),
                AttributeDef("num", AttrKind.INT32),
                AttributeDef("primary_care_provider", AttrKind.REF),
            ],
        )
        codec = RecordCodec(full.cls("Patient"))
        header = ObjectHeader.for_new_object(1, True)
        record = codec.encode(header, {"name": "n", "mrn": 1})
        assert 50 <= len(record) <= 70

    @given(
        name=st.text(max_size=16).filter(lambda s: "\x00" not in s),
        mrn=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        age=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
    @settings(max_examples=100)
    def test_property_scalar_roundtrip(self, name, mrn, age):
        schema, codec = self.make()
        header = ObjectHeader.for_new_object(schema.cls("Patient").class_id, False)
        record = codec.encode(header, {"name": name, "mrn": mrn, "age": age})
        # utf-8 truncation can shorten multi-byte text; only require a prefix
        decoded_name = codec.decode_attr(record, "name")
        assert name.encode("utf-8")[:16].decode("utf-8", "replace").startswith(
            decoded_name[: max(0, len(decoded_name) - 1)]
        ) or decoded_name == name
        assert codec.decode_attr(record, "mrn") == mrn
        assert codec.decode_attr(record, "age") == age


# ------------------------------------------------------------- compiled layout

def every_kind_schema() -> Schema:
    """One attribute of every kind, two sets (so a set reader has to skip
    the one before it)."""
    schema = Schema()
    schema.define(
        "Base",
        [
            AttributeDef("label", AttrKind.STRING, width=6),
            AttributeDef("grade", AttrKind.CHAR),
        ],
    )
    schema.define(
        "Every",
        [
            AttributeDef("owner", AttrKind.REF, target="Every"),
            AttributeDef("flag", AttrKind.BOOL),
            AttributeDef("weight", AttrKind.REAL64),
            AttributeDef("count", AttrKind.INT32),
            AttributeDef("first", AttrKind.REF_SET, target="Every"),
            AttributeDef("second", AttrKind.REF_SET, target="Every"),
        ],
        superclass="Base",
    )
    return schema


_INLINE = InlineSet((Rid(1, 0, 0), Rid(1, 2, 3)))
_OVERFLOW = OverflowSet(Rid(9, 4, 0), 1000)

_VALUE_CASES = {
    "padded-string-nil-ref": {
        "label": "ab", "grade": "Q", "owner": None, "flag": True,
        "weight": 2.5, "count": -7, "first": _INLINE, "second": _OVERFLOW,
    },
    "full-width-string-ref": {
        "label": "abcdef", "grade": "z", "owner": Rid(3, 1, 4), "flag": False,
        "weight": -1e300, "count": 2**31 - 1, "first": _OVERFLOW,
        "second": _INLINE,
    },
    "empty-sets": {
        "label": "", "grade": "\x00", "owner": NIL_RID, "flag": False,
        "weight": 0.0, "count": 0, "first": InlineSet(()),
        "second": InlineSet(()),
    },
}


class TestCompiledLayout:
    @pytest.mark.parametrize("slots", [0, 8, 16])
    @pytest.mark.parametrize("case", sorted(_VALUE_CASES))
    def test_decode_attr_matches_decode_for_every_kind(self, slots, case):
        cls = every_kind_schema().cls("Every")
        codec = cls.codec
        values = _VALUE_CASES[case]
        header = ObjectHeader(
            cls.class_id, slot_count=slots, index_ids=[3] if slots else []
        )
        record = codec.encode(header, values)
        decoded = codec.decode(record)
        assert list(decoded) == [a.name for a in cls.all_attributes()]
        for name in decoded:
            assert codec.decode_attr(record, name) == decoded[name]
        expected = dict(values)
        if expected["owner"] == NIL_RID:
            expected["owner"] = None
        assert decoded == expected

    def test_encoded_bytes_are_pinned(self):
        """The storage format, byte by byte: header, scalars at fixed
        offsets in layout order, then each set's tag/count prefix."""
        cls = every_kind_schema().cls("Every")
        header = ObjectHeader(cls.class_id, slot_count=8, index_ids=[5])
        record = cls.codec.encode(
            header,
            {"label": "ab", "grade": "Q", "owner": Rid(3, 1, 4), "flag": True,
             "weight": 2.5, "count": -7, "first": _INLINE,
             "second": _OVERFLOW},
        )
        rid = struct.Struct("<hih")
        expected = (
            struct.pack("<BHBB", FLAG_PERSISTENT, cls.class_id, 8, 0)
            + struct.pack("<8H", 5, 0, 0, 0, 0, 0, 0, 0)
            + b"ab\x00\x00\x00\x00" + b"Q" + rid.pack(3, 1, 4)
            + struct.pack("<?", True) + struct.pack("<d", 2.5)
            + struct.pack("<i", -7)
            + struct.pack("<BI", 0, 2) + rid.pack(1, 0, 0) + rid.pack(1, 2, 3)
            + struct.pack("<BI", 1, 1000) + rid.pack(9, 4, 0)
        )
        assert record == expected

    def test_update_scalar_matches_reencode(self):
        cls = every_kind_schema().cls("Every")
        values = dict(_VALUE_CASES["padded-string-nil-ref"])
        header = ObjectHeader(cls.class_id, slot_count=16)
        record = cls.codec.encode(header, values)
        for name, new in (("label", "xyz"), ("count", 12), ("owner", Rid(0, 1, 2))):
            record = cls.codec.update_scalar(record, name, new)
            values[name] = new
            assert record == cls.codec.encode(header, values)

    def test_unknown_attribute_raises_schema_error(self):
        cls = every_kind_schema().cls("Every")
        record = cls.codec.encode(ObjectHeader(cls.class_id), {})
        with pytest.raises(SchemaError, match="no attribute 'ghost'"):
            cls.codec.decode_attr(record, "ghost")
        with pytest.raises(SchemaError, match="no attribute 'ghost'"):
            cls.codec.update_scalar(record, "ghost", 1)
        with pytest.raises(SchemaError, match="set attribute"):
            cls.codec.update_scalar(record, "first", InlineSet(()))

    def test_class_def_is_immutable(self):
        cls = patient_schema().cls("Patient")
        assert isinstance(cls.attributes, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cls.attributes = ()  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cls.schema_version = 3  # type: ignore[misc]

    def test_evolution_builds_a_new_class_and_codec(self):
        schema = patient_schema()
        old = schema.cls("Patient")
        new = schema.evolve("Patient", [AttributeDef("ward", AttrKind.INT32)])
        assert new is not old and new.codec is not old.codec
        assert new.codec.class_def is new
        assert not old.has_attribute("ward")
        assert "ward" not in old.codec.fields
        assert new.attribute("ward").kind is AttrKind.INT32
        assert [a.name for a in new.all_attributes()][-1] == "ward"
        assert new.codec.scalar_size == old.codec.scalar_size + 4
