"""Addressable min-heap: :mod:`heapq` with lazy deletion.

A binary heap over ``(key, seq, item)`` tuples plus a map from each live
item to its current tuple, so that a specific item's key can be updated
(raised or lowered) and an arbitrary item removed in O(log n)
amortized.  ``seq`` is a fresh counter value on every push and re-key,
so ``(key, seq)`` is a total order: ties break by insertion order, a
re-keyed item sorts after existing equal keys, and every policy built
on the heap is deterministic.  Because the order is total, any correct
min-heap pops the same sequence, whatever its internal layout.

Updates never sift in place.  ``update_key`` pushes a new tuple and
``remove`` only forgets the item; the superseded tuple stays in the
list as a *stale* entry (one the live map no longer points at) until
``pop``/``peek`` skip it or a compaction filters it out.  Compaction
runs when stale entries outnumber live ones (plus slack), which keeps
memory O(live) and the amortized cost of each operation O(log n).

This single structure backs all value-based replacement policies: the
Greedy-Dual family pops the minimum-H document, LFU-DA pops the minimum
(aged) reference count, and SIZE pops the minimum of ``-size``.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Dict, Generic, Hashable, Iterator, Tuple, TypeVar

K = TypeVar("K")  # keys must be mutually comparable

#: Stale entries tolerated beyond the live count before compacting.
_COMPACT_SLACK = 64


class AddressableHeap(Generic[K]):
    """Min-heap keyed by ``(key, sequence)`` with item addressing."""

    __slots__ = ("_heap", "_live", "_counter")

    def __init__(self):
        # Entries are (key, seq, item); seq is unique, so the item is
        # never compared.  _live maps item -> its current entry.
        self._heap: list = []
        self._live: Dict[Hashable, tuple] = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._live

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate live items in arbitrary order."""
        return iter(self._live)

    def push(self, item: Hashable, key: K) -> None:
        """Insert an item.  Raises KeyError if the item is already present."""
        if item in self._live:
            raise KeyError(f"item already in heap: {item!r}")
        entry = (key, next(self._counter), item)
        self._live[item] = entry
        heappush(self._heap, entry)

    def key_of(self, item: Hashable) -> K:
        """Current key of an item.  Raises KeyError if absent."""
        return self._live[item][0]

    def peek(self) -> Tuple[Hashable, K]:
        """The (item, key) pair with the minimum key, without removing it."""
        heap, live = self._heap, self._live
        while heap:
            entry = heap[0]
            if live.get(entry[2]) is entry:
                return entry[2], entry[0]
            heappop(heap)
        raise IndexError("peek at empty heap")

    def pop(self) -> Tuple[Hashable, K]:
        """Remove and return the (item, key) pair with the minimum key."""
        heap, live = self._heap, self._live
        while heap:
            key, _seq, item = entry = heappop(heap)
            if live.get(item) is entry:
                del live[item]
                if len(heap) > 2 * len(live) + _COMPACT_SLACK:
                    self._compact()
                return item, key
        raise IndexError("pop from empty heap")

    def remove(self, item: Hashable) -> K:
        """Remove an arbitrary item; returns its key."""
        live = self._live
        key = live.pop(item)[0]
        if len(self._heap) > 2 * len(live) + _COMPACT_SLACK:
            self._compact()
        return key

    def update_key(self, item: Hashable, key: K) -> None:
        """Set an item's key.

        The new key is also assigned a fresh tie-break sequence number, so
        re-keyed items sort after existing equal keys (matching the
        "refreshed documents are newer" semantics the Greedy-Dual policies
        expect).
        """
        live = self._live
        if item not in live:
            raise KeyError(item)
        entry = (key, next(self._counter), item)
        live[item] = entry
        heap = self._heap
        heappush(heap, entry)
        if len(heap) > 2 * len(live) + _COMPACT_SLACK:
            self._compact()

    def clear(self) -> None:
        self._heap.clear()
        self._live.clear()

    def _compact(self) -> None:
        """Drop stale entries; callers run it once the list outgrows
        twice the live count plus slack."""
        live = self._live
        self._heap = [entry for entry in self._heap
                      if live.get(entry[2]) is entry]
        heapify(self._heap)

    # ----- debugging aids ----------------------------------------------

    def check_invariants(self) -> None:
        """Assert heap order, live-map consistency and the compaction
        bound (tests only)."""
        heap, live = self._heap, self._live
        for pos in range(1, len(heap)):
            assert not heap[pos] < heap[(pos - 1) >> 1], \
                "heap order violated"
        current = [entry for entry in heap if live.get(entry[2]) is entry]
        assert len(current) == len(live), "live map stale"
        assert all(live[entry[2]] is entry for entry in current)
        assert len(heap) <= 2 * len(live) + _COMPACT_SLACK, \
            "stale entries not compacted"
