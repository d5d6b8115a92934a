"""In-memory object representatives: O2's *Handles*.

Section 4.4 of the paper lists what a Handle carries: a pointer to the
object (in memory or on disk), status flags, a pointer to the shared
type-information structure, the list of indexes containing the object,
the count of pointers to the in-memory structure, a version pointer, and
schema-update history — "all in all, the structure takes 60 Bytes of
memory that have to be allocated, updated and freed whenever necessary".

The paper's diagnosis is that this traffic dominates cold associative
scans, and its proposed cures are a class hierarchy of handles (compact
handles for literals), no handles at all for fixed-size tuple literals,
and bulk allocation.  :class:`HandleMode` switches between O2-as-measured
and each cure, so the Section 4.4 ablation is a one-argument change.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Callable

from repro.errors import HandleError
from repro.objects.model import ClassDef
from repro.simtime import Bucket, CostParams, CounterSet, SimClock
from repro.storage.rid import Rid
from repro.units import US_PER_S

#: Bytes of a full O2 handle (paper, Section 4.4).
FULL_HANDLE_BYTES = 60
#: Bytes of the proposed compact literal handle.
COMPACT_HANDLE_BYTES = 16
#: Extra bytes a handle carries when its Section 4.4 *version pointer*
#: is populated (an MVCC snapshot read resolved the rid to a version
#: chain entry instead of the live record): the chain reference plus
#: the version timestamp.
VERSION_REF_BYTES = 8

#: Fraction of the allocation cost charged when an existing handle is
#: merely re-referenced (refcount bump, no allocation).
_TOUCH_FRACTION = 0.1


class HandleMode(enum.Enum):
    """Which handle regime the system runs under."""

    #: O2 as the paper measured it: 60-byte handles for objects *and*
    #: literals (strings, complex values).
    FULL = "full"
    #: Section 4.4 cure #1: a handle class hierarchy — literals get
    #: compact handles, objects keep full ones.
    COMPACT_LITERALS = "compact_literals"
    #: Section 4.4 cure #2: fixed-size tuple literals embedded in their
    #: object get *no* separate handle at all (strings of fixed width
    #: included); objects keep full handles.
    INLINE_TUPLES = "inline_tuples"
    #: Section 4.4 cure #3: bulk allocation — handles for whole pages of
    #: objects are allocated/freed together, amortizing the cost.
    BULK = "bulk"


class Handle:
    """One in-memory object representative."""

    __slots__ = (
        "rid",
        "record",
        "class_def",
        "refcount",
        "is_indexed",
        "index_ids",
        "version",
        "schema_history",
    )

    def __init__(self, rid: Rid, record: bytes, class_def: ClassDef):
        self.rid = rid
        self.record = record
        self.class_def = class_def
        self.refcount = 1
        self.is_indexed = False
        self.index_ids: tuple[int, ...] = ()
        self.version = None
        self.schema_history = None

    @property
    def memory_bytes(self) -> int:
        if self.version is not None:
            return FULL_HANDLE_BYTES + VERSION_REF_BYTES
        return FULL_HANDLE_BYTES

    def __repr__(self) -> str:
        version = "" if self.version is None else f", v@{self.version}"
        return (
            f"Handle({self.rid}, {self.class_def.name}, "
            f"rc={self.refcount}{version})"
        )


class HandleTable:
    """Allocates, shares, and (lazily) frees handles.

    * ``get`` returns the existing handle when one is live or parked in
      the delayed-free list — O2 "allocates only one and keeps a record
      of the number of pointers to this structure".
    * ``unreference`` drops a refcount; at zero the handle parks in a
      bounded FIFO ("the destruction of Handles is delayed as much as
      possible so as to avoid unnecessary free/allocate").
    * literal handles model the separate records O2 creates for strings
      and complex values; their cost depends on :class:`HandleMode`.
    """

    def __init__(
        self,
        clock: SimClock,
        params: CostParams,
        counters: CounterSet,
        mode: HandleMode = HandleMode.FULL,
        delayed_free_capacity: int = 4096,
    ):
        if delayed_free_capacity < 0:
            raise ValueError("delayed_free_capacity must be >= 0")
        self.clock = clock
        self.counters = counters
        #: Fixed for the table's life; ``mode`` may change (the Section
        #: 4.4 ablation switches it), and re-prices the charges.
        self.params = params
        self.mode = mode
        self.delayed_free_capacity = delayed_free_capacity
        self._live: dict[Rid, Handle] = {}
        self._parked: OrderedDict[Rid, Handle] = OrderedDict()
        #: Version-tagged handles (MVCC snapshot reads), keyed by
        #: ``(rid, version_ts)`` so readers at different snapshots get
        #: distinct representatives of the same object.  Dropped at
        #: refcount zero — the delayed-free list is for live records.
        self._versioned: dict[tuple[Rid, int], Handle] = {}

    @property
    def mode(self) -> HandleMode:
        return self._mode

    @mode.setter
    def mode(self, mode: HandleMode) -> None:
        self._mode = mode
        self._price()

    def _price(self) -> None:
        """Resolve every handle charge for the current params and mode,
        once instead of on every charge, in seconds: ``charge_us`` adds
        ``us / US_PER_S``, so dividing here once and charging with
        ``charge_s`` adds bit-identical amounts.  The per-attribute
        decode charge of :meth:`ObjectManager.get_attr` is priced here
        too (``attr_decode_s``).

        Literal handles (:meth:`charge_literal`): FULL mode pays the full
        get+unref pair; COMPACT_LITERALS pays the compact pair;
        INLINE_TUPLES pays nothing for *fixed-size* literals (they are
        embedded in their owner's tuple — Section 4.4) and the compact
        pair for variable-size ones; BULK pays the amortized full pair.
        """
        params = self.params
        mode = self._mode
        touch = params.handle_get_us * _TOUCH_FRACTION
        alloc = params.handle_get_us
        unref = params.handle_unref_us
        full_pair = params.handle_get_us + params.handle_unref_us
        compact_pair = params.compact_handle_get_us + params.compact_handle_unref_us
        literal_fixed: float | None = full_pair
        literal_variable = full_pair
        if mode is HandleMode.BULK:
            touch *= params.bulk_handle_factor
            alloc *= params.bulk_handle_factor
            unref *= params.bulk_handle_factor
            literal_fixed = literal_variable = full_pair * params.bulk_handle_factor
        elif mode is HandleMode.COMPACT_LITERALS:
            literal_fixed = literal_variable = compact_pair
        elif mode is HandleMode.INLINE_TUPLES:
            literal_fixed = None
            literal_variable = compact_pair
        self._touch_s = touch / US_PER_S
        self._alloc_s = alloc / US_PER_S
        self._unref_s = unref / US_PER_S
        self._literal_fixed_s = (
            None if literal_fixed is None else literal_fixed / US_PER_S
        )
        self._literal_variable_s = literal_variable / US_PER_S
        self.attr_decode_s = params.attr_decode_us / US_PER_S

    # -- object handles -------------------------------------------------

    def get(
        self,
        rid: Rid,
        loader: Callable[[Rid], tuple[bytes, ClassDef]],
        version: int | None = None,
    ) -> Handle:
        """Return a referenced handle for ``rid``, loading the record with
        ``loader(rid)`` only if no handle exists yet (the object manager
        passes its bound ``read_record``, so no closure is built per
        load).

        With ``version`` (a commit timestamp), the handle represents
        that *version chain entry* instead of the live record: its
        ``version`` slot is populated (paper, Section 4.4 — the version
        pointer), it costs :data:`VERSION_REF_BYTES` extra bytes, and it
        is cached separately from live-record handles."""
        if version is not None:
            return self._get_versioned(rid, loader, version)
        handle = self._live.get(rid)
        if handle is not None:
            handle.refcount += 1
            self.clock.charge_s(Bucket.HANDLE, self._touch_s)
            return handle
        handle = self._parked.pop(rid, None)
        if handle is not None:
            handle.refcount = 1
            self._live[rid] = handle
            self.clock.charge_s(Bucket.HANDLE, self._touch_s)
            return handle
        record, class_def = loader(rid)
        handle = Handle(rid, record, class_def)
        self._live[rid] = handle
        self.counters.handles_allocated += 1
        self.clock.charge_s(Bucket.HANDLE, self._alloc_s)
        return handle

    def _get_versioned(
        self,
        rid: Rid,
        loader: Callable[[Rid], tuple[bytes, ClassDef]],
        version: int,
    ) -> Handle:
        key = (rid, version)
        handle = self._versioned.get(key)
        if handle is not None:
            handle.refcount += 1
            self.clock.charge_s(Bucket.HANDLE, self._touch_s)
            return handle
        record, class_def = loader(rid)
        handle = Handle(rid, record, class_def)
        handle.version = version
        self._versioned[key] = handle
        self.counters.handles_allocated += 1
        self.clock.charge_s(Bucket.HANDLE, self._alloc_s)
        return handle

    def unreference(self, handle: Handle) -> None:
        """Drop one reference; at zero, park the handle in the bounded
        delayed-free FIFO, evicting its oldest entry when full (version
        handles are freed outright — the snapshot that needed them is
        the only plausible re-user)."""
        if handle.refcount <= 0:
            raise HandleError(f"double unreference of {handle!r}")
        handle.refcount -= 1
        self.counters.handles_unreferenced += 1
        self.clock.charge_s(Bucket.HANDLE, self._unref_s)
        if handle.refcount == 0:
            if handle.version is not None:
                self._versioned.pop((handle.rid, handle.version), None)
                return
            rid = handle.rid
            del self._live[rid]
            capacity = self.delayed_free_capacity
            if capacity:
                parked = self._parked
                parked[rid] = handle
                while len(parked) > capacity:
                    parked.popitem(last=False)

    # -- literal handles ----------------------------------------------------

    def charge_literal(self, fixed_size: bool = True) -> None:
        """Account for the handle O2 gives a string/complex-value literal
        when an attribute of that kind is materialized; the amount
        depends on the :class:`HandleMode` (see :meth:`_price`)."""
        seconds = self._literal_fixed_s if fixed_size else self._literal_variable_s
        if seconds is None:
            return
        self.counters.handles_allocated += 1
        self.counters.handles_unreferenced += 1
        self.clock.charge_s(Bucket.HANDLE, seconds)

    # -- introspection ----------------------------------------------------

    @property
    def live_count(self) -> int:
        return len(self._live) + len(self._versioned)

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    @property
    def memory_bytes(self) -> int:
        tables = (self._live.values(), self._parked.values(),
                  self._versioned.values())
        return sum(h.memory_bytes for table in tables for h in table)

    # simlint: ok[CHARGE] restart discard models no O2 cost; reloads pay on next access
    def clear(self) -> None:
        """Forget every handle (client restart)."""
        self._live.clear()
        self._parked.clear()
        self._versioned.clear()

    # simlint: ok[CHARGE] invalidation is free (see docstring); the reload pays
    def forget_page(self, file_id: int, page_no: int) -> None:
        """Drop cached handles for records living on one page — used when
        the page's content was physically rolled back, so any cached
        decoded copy is stale.  Free, like :meth:`clear`: invalidation
        models no O2 cost, only the reload that follows does."""
        for table in (self._live, self._parked):
            stale = [
                rid for rid in table
                if rid.file_id == file_id and rid.page_no == page_no
            ]
            for rid in stale:
                del table[rid]
        stale_versions = [
            key for key in self._versioned
            if key[0].file_id == file_id and key[0].page_no == page_no
        ]
        for key in stale_versions:
            del self._versioned[key]
