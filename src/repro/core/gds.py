"""Greedy-Dual-Size (Cao & Irani, paper Section 3).

Each resident document p carries a value H(p).  On admission or hit,
H(p) = L + c(p)/s(p), where c is the cost model, s the size, and L the
*inflation*: conceptually, GDS reduces all H values by H_min at every
eviction; the standard O(log n) realization instead keeps L equal to the
H value of the last evicted document and adds it when (re)setting H, so
no mass update ever happens.  The victim is always the minimum-H
document.

GDS is online-optimal with respect to its cost function.  Under constant
cost, c/s = 1/s: small documents are precious, large ones are evicted
readily — high hit rate, poor byte hit rate on multimedia.  Its stated
weakness, motivating GD*, is ignoring frequency.
"""

from __future__ import annotations

from repro.core.cost import ConstantCost, CostModel
from repro.core.policy import CacheEntry, ReplacementPolicy
from repro.structures.addressable_heap import AddressableHeap


class GDSPolicy(ReplacementPolicy):
    """Greedy-Dual-Size with inflation-based aging."""

    def __init__(self, cost_model: CostModel = None):
        self.cost_model = cost_model or ConstantCost()
        self.name = f"gds({self.cost_model.tag.lower()})"
        self._heap: AddressableHeap = AddressableHeap()
        self.inflation = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def on_admit(self, entry: CacheEntry) -> None:
        # Clamp zero-size documents consistently: the same floored
        # size feeds both the cost model and the denominator.  A
        # resident entry's size never changes (a modification admits a
        # new entry), so c/s is computed once and kept on the entry.
        size = max(entry.size, 1)
        entry.policy_data = ratio = self.cost_model.cost(size) / size
        self._heap.push(entry, self.inflation + ratio)

    def on_hit(self, entry: CacheEntry) -> None:
        # A hit restores the document's full (inflated) value.
        self._heap.update_key(entry, self.inflation + entry.policy_data)

    def peek_victim(self) -> CacheEntry:
        return self._heap.peek()[0]

    def pop_victim(self) -> CacheEntry:
        entry, h_min = self._heap.pop()
        # Aging: everything not touched since stays below future H values.
        self.inflation = h_min
        return entry

    def remove(self, entry: CacheEntry) -> None:
        # Invalidation is not an eviction decision; L stays put.
        self._heap.remove(entry)

    def clear(self) -> None:
        self._heap.clear()
        self.inflation = 0.0

    def h_value(self, entry: CacheEntry) -> float:
        """Current H value of a resident entry (diagnostics)."""
        return self._heap.key_of(entry)
