"""Stateful testing of the handle table: refcount and sharing invariants
under arbitrary get/unreference interleavings."""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.objects import AttrKind, AttributeDef, HandleTable, Schema
from repro.simtime import CostParams, CounterSet, SimClock
from repro.storage.rid import Rid

_RIDS = st.integers(min_value=0, max_value=9)


class HandleMachine(RuleBasedStateMachine):
    """Model: a per-rid reference count; the table must agree."""

    @initialize()
    def setup(self):
        schema = Schema()
        self.cls = schema.define("T", [AttributeDef("x", AttrKind.INT32)])
        self.table = HandleTable(
            SimClock(), CostParams(), CounterSet(), delayed_free_capacity=3
        )
        self.refcounts: dict[int, int] = {}
        self.handles: dict[int, object] = {}

    @rule(n=_RIDS)
    def get(self, n):
        rid = Rid(0, n, 0)
        handle = self.table.get(rid, lambda rid: (b"\x01\x01\x00\x00\x00", self.cls))
        previous = self.refcounts.get(n, 0)
        if previous > 0:
            # Must be shared, not duplicated.
            assert handle is self.handles[n]
        self.handles[n] = handle
        self.refcounts[n] = previous + 1
        assert handle.refcount == self.refcounts[n]

    @precondition(lambda self: any(c > 0 for c in getattr(self, "refcounts", {}).values()))
    @rule(data=st.data())
    def unreference(self, data):
        live = [n for n, c in self.refcounts.items() if c > 0]
        n = data.draw(st.sampled_from(live))
        self.table.unreference(self.handles[n])
        self.refcounts[n] -= 1

    @invariant()
    def live_count_matches_model(self):
        if not hasattr(self, "table"):
            return
        model_live = sum(1 for c in self.refcounts.values() if c > 0)
        assert self.table.live_count == model_live

    @invariant()
    def parked_is_bounded(self):
        if not hasattr(self, "table"):
            return
        assert self.table.parked_count <= 3

    @invariant()
    def refcounts_positive_for_live(self):
        if not hasattr(self, "table"):
            return
        for n, count in self.refcounts.items():
            if count > 0:
                assert self.handles[n].refcount == count


HandleMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)
TestHandleStateful = HandleMachine.TestCase
