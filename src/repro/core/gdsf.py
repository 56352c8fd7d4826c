"""GDSF: Greedy-Dual-Size with Frequency (Cherkasova / Arlitt et al.).

H(p) = L + f(p) · c(p) / s(p): GDS weighted by the in-cache reference
count.  This is the variant shipped in Squid, and it is exactly GD* with
β fixed at 1 — which makes it the natural ablation point between GDS
(no frequency) and GD* (frequency plus adaptive temporal-correlation
exponent).
"""

from __future__ import annotations

from repro.core.cost import ConstantCost, CostModel
from repro.core.policy import CacheEntry, ReplacementPolicy
from repro.structures.addressable_heap import AddressableHeap


class GDSFPolicy(ReplacementPolicy):
    """Greedy-Dual-Size-Frequency with inflation-based aging."""

    def __init__(self, cost_model: CostModel = None):
        self.cost_model = cost_model or ConstantCost()
        self.name = f"gdsf({self.cost_model.tag.lower()})"
        self._heap: AddressableHeap = AddressableHeap()
        self.inflation = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def _value(self, entry: CacheEntry) -> float:
        # ``f · c / s`` in left-to-right float order; c is the cost
        # on_admit stored (see :class:`~repro.core.gds.GDSPolicy`).
        utility = entry.frequency * entry.policy_data / max(entry.size, 1)
        return self.inflation + utility

    def on_admit(self, entry: CacheEntry) -> None:
        entry.policy_data = self.cost_model.cost(max(entry.size, 1))
        self._heap.push(entry, self._value(entry))

    def on_hit(self, entry: CacheEntry) -> None:
        self._heap.update_key(entry, self._value(entry))

    def peek_victim(self) -> CacheEntry:
        return self._heap.peek()[0]

    def pop_victim(self) -> CacheEntry:
        entry, h_min = self._heap.pop()
        self.inflation = h_min
        return entry

    def remove(self, entry: CacheEntry) -> None:
        self._heap.remove(entry)

    def clear(self) -> None:
        self._heap.clear()
        self.inflation = 0.0
