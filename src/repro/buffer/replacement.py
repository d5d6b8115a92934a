"""Page replacement policies.

The cache stores page keys; the policy decides which key to evict when a
new page must come in.  LRU is what the experiments use (it produces the
interaction the paper observes, where a sequential scan flushes the pages
a concurrent random access pattern would like to keep); Clock is provided
as a cheaper approximation for ablations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict

PageKey = tuple[int, int]  # (file_id, page_no)


class ReplacementPolicy(ABC):
    """Tracks page keys and picks eviction victims."""

    @abstractmethod
    def touch(self, key: PageKey) -> None:
        """Record an access to ``key`` (which may be new)."""

    @abstractmethod
    def evict(self) -> PageKey:
        """Remove and return the victim key.  Raises ``KeyError`` when
        empty."""

    @abstractmethod
    def discard(self, key: PageKey) -> None:
        """Forget ``key`` if present (page dropped without eviction)."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def clear(self) -> None: ...


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement."""

    def __init__(self) -> None:
        self._order: OrderedDict[PageKey, None] = OrderedDict()

    def touch(self, key: PageKey) -> None:
        # A cache hit is one dict operation; only a new key pays for
        # the raised KeyError before it is appended (at the end, too).
        try:
            self._order.move_to_end(key)
        except KeyError:
            self._order[key] = None

    def evict(self) -> PageKey:
        key, __ = self._order.popitem(last=False)
        return key

    def discard(self, key: PageKey) -> None:
        self._order.pop(key, None)

    def __len__(self) -> int:
        return len(self._order)

    # simlint: ok[CHARGE] bookkeeping reset; the owning cache charges I/O
    def clear(self) -> None:
        self._order.clear()


class ClockPolicy(ReplacementPolicy):
    """Second-chance (clock) replacement."""

    def __init__(self) -> None:
        self._ref: OrderedDict[PageKey, bool] = OrderedDict()

    def touch(self, key: PageKey) -> None:
        if key in self._ref:
            self._ref[key] = True
        else:
            self._ref[key] = False

    def evict(self) -> PageKey:
        while True:
            key, referenced = self._ref.popitem(last=False)
            if referenced:
                self._ref[key] = False  # second chance: move to tail
            else:
                return key

    def discard(self, key: PageKey) -> None:
        self._ref.pop(key, None)

    def __len__(self) -> int:
        return len(self._ref)

    # simlint: ok[CHARGE] bookkeeping reset; the owning cache charges I/O
    def clear(self) -> None:
        self._ref.clear()
