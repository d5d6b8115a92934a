"""Unit tests for handles, the object manager and the database."""

from __future__ import annotations

import pytest

from repro.errors import (
    DanglingReferenceError,
    HandleError,
    ObjectError,
    SchemaError,
)
from repro.objects import (
    AttrKind,
    AttributeDef,
    Database,
    HandleMode,
    HandleTable,
    Schema,
)
from repro.objects.codec import InlineSet, OverflowSet
from repro.simtime import Bucket, CostParams, CounterSet, SimClock
from repro.storage.rid import Rid


def derby_like_schema() -> Schema:
    schema = Schema()
    schema.define(
        "Patient",
        [
            AttributeDef("name", AttrKind.STRING),
            AttributeDef("mrn", AttrKind.INT32),
            AttributeDef("age", AttrKind.INT32),
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


def make_db(handle_mode: HandleMode = HandleMode.FULL) -> Database:
    db = Database(derby_like_schema(), handle_mode=handle_mode)
    db.create_file("patients")
    db.create_file("providers")
    return db


# ------------------------------------------------------------- HandleTable

class TestHandleTable:
    def make(self, mode=HandleMode.FULL, capacity=4):
        clock = SimClock()
        table = HandleTable(clock, CostParams(), CounterSet(), mode, capacity)
        return clock, table

    def loader(self):
        schema = derby_like_schema()
        return lambda rid: (b"\x01\x01\x00\x00payload", schema.cls("Patient"))

    def test_get_allocates_once_and_shares(self):
        clock, table = self.make()
        rid = Rid(0, 0, 0)
        h1 = table.get(rid, self.loader())
        h2 = table.get(rid, self.loader())
        assert h1 is h2
        assert h1.refcount == 2
        assert table.counters.handles_allocated == 1

    def test_unreference_parks_then_revives(self):
        clock, table = self.make()
        rid = Rid(0, 0, 0)
        h = table.get(rid, self.loader())
        table.unreference(h)
        assert table.live_count == 0
        assert table.parked_count == 1
        revived = table.get(rid, self.loader())
        assert revived is h
        assert table.parked_count == 0
        # Revival must not count as a fresh allocation.
        assert table.counters.handles_allocated == 1

    def test_double_unreference_rejected(self):
        clock, table = self.make()
        h = table.get(Rid(0, 0, 0), self.loader())
        table.unreference(h)
        with pytest.raises(HandleError):
            table.unreference(h)

    def test_delayed_free_capacity_bounds_parked(self):
        clock, table = self.make(capacity=2)
        for i in range(5):
            h = table.get(Rid(0, 0, i), self.loader())
            table.unreference(h)
        assert table.parked_count == 2

    def test_full_mode_charges_more_than_bulk(self):
        def cost(mode):
            clock, table = self.make(mode)
            for i in range(100):
                h = table.get(Rid(0, 0, i), self.loader())
                table.unreference(h)
            return clock.bucket_s(Bucket.HANDLE)

        assert cost(HandleMode.FULL) > 5 * cost(HandleMode.BULK)

    def test_literal_charges_by_mode(self):
        def literal_cost(mode):
            clock, table = self.make(mode)
            table.charge_literal(fixed_size=True)
            return clock.bucket_s(Bucket.HANDLE)

        assert literal_cost(HandleMode.FULL) > literal_cost(
            HandleMode.COMPACT_LITERALS
        )
        assert literal_cost(HandleMode.INLINE_TUPLES) == 0.0

    def test_inline_tuples_still_charges_variable_literals(self):
        clock, table = self.make(HandleMode.INLINE_TUPLES)
        table.charge_literal(fixed_size=False)
        assert clock.bucket_s(Bucket.HANDLE) > 0.0

    @pytest.mark.parametrize("start", list(HandleMode))
    @pytest.mark.parametrize("switched", list(HandleMode))
    def test_mode_switch_reprices_every_charge(self, start, switched):
        def trace(table, clock):
            steps = []
            rid = Rid(0, 0, 0)
            h = table.get(rid, self.loader())        # allocate
            steps.append(clock.bucket_s(Bucket.HANDLE))
            table.get(rid, self.loader())            # touch
            steps.append(clock.bucket_s(Bucket.HANDLE))
            table.unreference(h)
            table.unreference(h)                     # park
            steps.append(clock.bucket_s(Bucket.HANDLE))
            table.get(rid, self.loader())            # revive
            steps.append(clock.bucket_s(Bucket.HANDLE))
            table.charge_literal(fixed_size=True)
            steps.append(clock.bucket_s(Bucket.HANDLE))
            table.charge_literal(fixed_size=False)
            steps.append(clock.bucket_s(Bucket.HANDLE))
            return steps

        clock, table = self.make(start)
        table.mode = switched
        assert table.mode is switched
        fresh_clock, fresh = self.make(switched)
        assert trace(table, clock) == trace(fresh, fresh_clock)

    def test_full_mode_charge_amounts(self):
        clock, table = self.make()
        params = table.params
        h = table.get(Rid(0, 0, 0), self.loader())
        assert clock.bucket_s(Bucket.HANDLE) == params.handle_get_us / 1e6
        table.unreference(h)
        assert clock.bucket_s(Bucket.HANDLE) == (
            params.handle_get_us / 1e6 + params.handle_unref_us / 1e6
        )

    def test_memory_accounting(self):
        clock, table = self.make()
        h = table.get(Rid(0, 0, 0), self.loader())
        assert table.memory_bytes == 60
        table.unreference(h)
        assert table.memory_bytes == 60  # parked, not freed
        table.clear()
        assert table.memory_bytes == 0


# ------------------------------------------------------------- ObjectManager

class TestObjectManager:
    def test_create_load_get_attr(self):
        db = make_db()
        rid = db.create_object(
            "Patient", {"name": "Daisy", "mrn": 44, "age": 61}, "patients"
        )
        handle = db.manager.load(rid)
        assert db.manager.get_attr(handle, "mrn") == 44
        assert db.manager.get_attr(handle, "name") == "Daisy"
        db.manager.unref(handle)

    def test_get_attr_at_convenience(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 3}, "patients")
        assert db.manager.get_attr_at(rid, "mrn") == 3
        assert db.handles.live_count == 0

    def test_reference_navigation(self):
        db = make_db()
        doc = db.create_object("Provider", {"name": "Asterix", "upin": 1}, "providers")
        pat = db.create_object(
            "Patient", {"name": "Obelix", "mrn": 2, "primary_care_provider": doc},
            "patients",
        )
        handle = db.manager.load(pat)
        doc_rid = db.manager.get_attr(handle, "primary_care_provider")
        db.manager.unref(handle)
        assert db.manager.get_attr_at(doc_rid, "name") == "Asterix"

    def test_unregistered_file_raises(self):
        db = make_db()
        with pytest.raises(DanglingReferenceError):
            db.manager.load(Rid(99, 0, 0))

    def test_update_scalar_visible_to_later_loads(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1, "age": 10}, "patients")
        db.manager.update_scalar(rid, "age", 11)
        assert db.manager.get_attr_at(rid, "age") == 11

    def test_update_refreshes_live_handle(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1, "age": 10}, "patients")
        handle = db.manager.load(rid)
        db.manager.update_scalar(rid, "age", 12)
        assert db.manager.get_attr(handle, "age") == 12
        db.manager.unref(handle)

    def test_string_attr_pays_literal_handle_in_full_mode(self):
        full = make_db(HandleMode.FULL)
        inline = make_db(HandleMode.INLINE_TUPLES)
        for db in (full, inline):
            rid = db.create_object("Patient", {"name": "Daisy", "mrn": 1}, "patients")
            db.reset_meters()
            handle = db.manager.load(rid)
            db.manager.get_attr(handle, "name")
            db.manager.unref(handle)
        assert full.clock.bucket_s(Bucket.HANDLE) > inline.clock.bucket_s(
            Bucket.HANDLE
        )

    def test_get_attr_charges_by_kind(self):
        db = make_db()
        params = db.params
        doc = db.create_object("Provider", {"name": "A", "upin": 1}, "providers")
        literal_pair = (params.handle_get_us + params.handle_unref_us) / 1e6
        expected = {"upin": 0.0, "name": literal_pair, "clients": literal_pair}
        for name, literal in expected.items():
            with db.manager.borrow(doc) as handle:
                db.reset_meters()
                db.manager.get_attr(handle, name)
                assert db.clock.bucket_s(Bucket.CPU) == params.attr_decode_us / 1e6
                assert db.clock.bucket_s(Bucket.HANDLE) == literal

    def test_record_written_before_evolution_reports_default(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 5, "age": 40}, "patients")
        db.schema.evolve(
            "Patient", [AttributeDef("ward", AttrKind.INT32, default=17)]
        )
        with db.manager.borrow(rid) as handle:
            assert handle.class_def.schema_version == 0
            assert db.manager.get_attr(handle, "ward") == 17
            assert db.manager.get_attr(handle, "age") == 40
        db.manager.upgrade_record(rid)
        assert db.manager.get_attr_at(rid, "ward") == 17

    def test_unknown_attribute_raises_schema_error(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 5}, "patients")
        db.schema.evolve("Patient", [AttributeDef("ward", AttrKind.INT32)])
        with db.manager.borrow(rid) as handle:
            with pytest.raises(SchemaError, match="no attribute 'ghost'"):
                db.manager.get_attr(handle, "ghost")
        with pytest.raises(SchemaError, match="no attribute 'ghost'"):
            db.manager.update_scalar(rid, "ghost", 1)
        assert db.handles.live_count == 0

    def test_borrow_unreferences_when_body_raises(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 5}, "patients")
        with pytest.raises(RuntimeError, match="abort"):
            with db.manager.borrow(rid) as handle:
                assert handle.refcount == 1
                assert db.handles.live_count == 1
                raise RuntimeError("abort")
        assert handle.refcount == 0
        assert db.handles.live_count == 0
        assert db.handles.parked_count == 1

    def test_header_of(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1}, "patients", indexed=True)
        handle = db.manager.load(rid)
        header = db.manager.header_of(handle)
        assert header.is_indexed
        assert header.slot_count == 8
        db.manager.unref(handle)


# ------------------------------------------------------------- Database

class TestDatabase:
    def test_file_management(self):
        db = make_db()
        assert db.has_file("patients")
        with pytest.raises(ObjectError):
            db.create_file("patients")
        with pytest.raises(ObjectError):
            db.file("ghost")

    def test_named_collections(self):
        db = make_db()
        coll = db.new_collection("Patients")
        assert db.name("Patients") is coll
        assert "Patients" in db.names()
        with pytest.raises(ObjectError):
            db.new_collection("Patients")
        with pytest.raises(ObjectError):
            db.name("Doctors")

    def test_collection_roundtrip_small(self):
        db = make_db()
        coll = db.new_collection("Patients")
        rids = [
            db.create_object("Patient", {"mrn": i}, "patients") for i in range(10)
        ]
        coll.extend(rids)
        assert list(coll.iter_rids()) == rids
        assert len(coll) == 10

    def test_collection_roundtrip_multi_chunk(self):
        db = make_db()
        coll = db.new_collection("Patients")
        rids = [
            db.create_object("Patient", {"mrn": i}, "patients") for i in range(950)
        ]
        coll.extend(rids)
        assert list(coll.iter_rids()) == rids
        # 950 rids at 400/chunk -> 3 chunk records
        assert db.collections_file.record_count == 3

    def test_collection_iteration_charges_io(self):
        db = make_db()
        coll = db.new_collection("Patients")
        coll.extend(
            db.create_object("Patient", {"mrn": i}, "patients") for i in range(500)
        )
        coll.flush()
        db.restart_cold()
        db.reset_meters()
        list(coll.iter_rids())
        assert db.counters.disk_reads >= 1

    def test_small_set_stays_inline(self):
        db = make_db()
        pats = [db.create_object("Patient", {"mrn": i}, "patients") for i in range(3)]
        doc = db.create_object(
            "Provider", {"name": "D", "upin": 1, "clients": pats}, "providers"
        )
        handle = db.manager.load(doc)
        clients = db.manager.get_attr(handle, "clients")
        db.manager.unref(handle)
        assert isinstance(clients, InlineSet)
        assert list(db.iter_set_rids(clients)) == pats

    def test_large_set_spills_to_collection_file(self):
        db = make_db()
        pats = [
            db.create_object("Patient", {"mrn": i}, "patients") for i in range(1000)
        ]
        doc = db.create_object(
            "Provider", {"name": "D", "upin": 1, "clients": pats}, "providers"
        )
        handle = db.manager.load(doc)
        clients = db.manager.get_attr(handle, "clients")
        db.manager.unref(handle)
        assert isinstance(clients, OverflowSet)
        assert clients.count == 1000
        assert list(db.iter_set_rids(clients)) == pats
        # 1000 rids / 400 per chunk -> 3 chained chunk records
        assert db.collections_file.record_count == 3

    def test_overflow_set_iteration_charges_io(self):
        db = make_db()
        pats = [
            db.create_object("Patient", {"mrn": i}, "patients") for i in range(1000)
        ]
        doc = db.create_object(
            "Provider", {"upin": 1, "clients": pats}, "providers"
        )
        handle = db.manager.load(doc)
        clients = db.manager.get_attr(handle, "clients")
        db.manager.unref(handle)
        db.restart_cold()
        db.reset_meters()
        assert len(list(db.iter_set_rids(clients))) == 1000
        assert db.counters.disk_reads >= 3

    def test_restart_cold_clears_everything(self):
        db = make_db()
        rid = db.create_object("Patient", {"mrn": 1}, "patients")
        db.manager.get_attr_at(rid, "mrn")
        db.restart_cold()
        assert db.handles.live_count == 0
        db.reset_meters()
        db.manager.get_attr_at(rid, "mrn")
        assert db.counters.disk_reads >= 1  # truly cold again

    def test_object_creation_charges_load_bucket(self):
        db = make_db()
        db.reset_meters()
        db.create_object("Patient", {"mrn": 1}, "patients")
        assert db.clock.bucket_s(Bucket.LOAD) > 0


# ------------------------------------------------------------- SimClock

class TestSimClockBuckets:
    def test_breakdown_keeps_first_charge_order(self):
        clock = SimClock()
        order = [Bucket.REMOTE, Bucket.IO, Bucket.HANDLE, Bucket.CPU]
        for bucket in order + order:
            clock.charge_us(bucket, 1.0)
        assert list(clock.breakdown()) == [b.value for b in order]
        assert list(clock.snapshot()) == order

    def test_since_is_in_name_order(self):
        clock = SimClock()
        clock.charge_us(Bucket.SWAP, 1.0)
        earlier = clock.snapshot()
        for bucket in (Bucket.REMOTE, Bucket.CPU, Bucket.IO):
            clock.charge_ms(bucket, 2.0)
        since = clock.since(earlier)
        assert [b.value for b in since] == ["cpu", "io", "remote", "swap"]
        assert since[Bucket.SWAP] == 0.0
        assert since[Bucket.IO] == 0.002

    def test_buckets_hash_by_identity(self):
        assert len({*Bucket, *Bucket}) == len(Bucket)
        assert {Bucket.IO: 1}[Bucket("io")] == 1
        assert hash(Bucket.IO) == object.__hash__(Bucket.IO)
