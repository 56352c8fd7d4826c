"""Unit and property tests for the addressable binary min-heap."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.structures.addressable_heap import AddressableHeap


def test_empty_heap():
    heap = AddressableHeap()
    assert len(heap) == 0
    assert not heap
    assert "x" not in heap
    with pytest.raises(IndexError):
        heap.pop()
    with pytest.raises(IndexError):
        heap.peek()


def test_push_pop_single():
    heap = AddressableHeap()
    heap.push("a", 3.0)
    assert "a" in heap
    assert heap.peek() == ("a", 3.0)
    assert heap.pop() == ("a", 3.0)
    assert "a" not in heap


def test_pop_returns_minimum_order():
    heap = AddressableHeap()
    keys = [5, 1, 4, 2, 3]
    for i, key in enumerate(keys):
        heap.push(f"item{i}", key)
    popped = [heap.pop()[1] for _ in range(len(keys))]
    assert popped == sorted(keys)


def test_duplicate_push_raises():
    heap = AddressableHeap()
    heap.push("a", 1)
    with pytest.raises(KeyError):
        heap.push("a", 2)


def test_ties_break_fifo():
    heap = AddressableHeap()
    for name in ("first", "second", "third"):
        heap.push(name, 7)
    assert heap.pop()[0] == "first"
    assert heap.pop()[0] == "second"
    assert heap.pop()[0] == "third"


def test_update_key_decrease():
    heap = AddressableHeap()
    heap.push("a", 10)
    heap.push("b", 5)
    heap.update_key("a", 1)
    assert heap.pop()[0] == "a"


def test_update_key_increase():
    heap = AddressableHeap()
    heap.push("a", 1)
    heap.push("b", 5)
    heap.update_key("a", 10)
    assert heap.pop()[0] == "b"


def test_update_key_refreshes_tie_order():
    """Re-keyed items sort after existing items with equal keys."""
    heap = AddressableHeap()
    heap.push("a", 3)
    heap.push("b", 3)
    heap.update_key("a", 3)  # same value, but now "newer"
    assert heap.pop()[0] == "b"
    assert heap.pop()[0] == "a"


def test_key_of_and_remove():
    heap = AddressableHeap()
    heap.push("a", 2)
    heap.push("b", 1)
    assert heap.key_of("a") == 2
    assert heap.remove("a") == 2
    assert "a" not in heap
    assert heap.pop()[0] == "b"


def test_remove_missing_raises():
    heap = AddressableHeap()
    with pytest.raises(KeyError):
        heap.remove("ghost")
    with pytest.raises(KeyError):
        heap.key_of("ghost")


def test_remove_last_element_position():
    heap = AddressableHeap()
    heap.push("a", 1)
    heap.push("b", 2)
    heap.remove("b")
    heap.check_invariants()
    assert heap.pop()[0] == "a"


def test_clear():
    heap = AddressableHeap()
    for i in range(10):
        heap.push(i, i)
    heap.clear()
    assert len(heap) == 0
    heap.push("x", 1)  # usable after clear
    assert heap.pop()[0] == "x"


def test_iteration_covers_all_items():
    heap = AddressableHeap()
    for i in range(20):
        heap.push(i, -i)
    assert sorted(heap) == list(range(20))


def test_large_randomized_sequence_maintains_order():
    rng = random.Random(42)
    heap = AddressableHeap()
    live = {}
    for step in range(3000):
        action = rng.random()
        if action < 0.5 or not live:
            item = f"i{step}"
            key = rng.randint(0, 1000)
            heap.push(item, key)
            live[item] = key
        elif action < 0.75:
            item = rng.choice(list(live))
            key = rng.randint(0, 1000)
            heap.update_key(item, key)
            live[item] = key
        else:
            item, key = heap.pop()
            assert key == min(live.values())
            del live[item]
    heap.check_invariants()
    # Drain: pops must come out sorted.
    drained = [heap.pop()[1] for _ in range(len(heap))]
    assert drained == sorted(drained)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-1000, max_value=1000),
                min_size=1, max_size=80))
def test_property_heapsort(keys):
    """Pushing arbitrary keys and draining yields sorted order."""
    heap = AddressableHeap()
    for index, key in enumerate(keys):
        heap.push(index, key)
    heap.check_invariants()
    drained = [heap.pop()[1] for _ in range(len(keys))]
    assert drained == sorted(keys)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(-50, 50)),
                min_size=1, max_size=120))
def test_property_update_then_drain(ops):
    """Random pushes and re-keys never violate the heap invariant."""
    heap = AddressableHeap()
    live = {}
    for item, key in ops:
        if item in live:
            heap.update_key(item, key)
        else:
            heap.push(item, key)
        live[item] = key
        heap.check_invariants()
    drained = []
    while heap:
        _, key = heap.pop()
        drained.append(key)
    assert drained == sorted(live.values())


# ----- model-based: the heap against a reference sorted by (key, seq) ------

_ITEMS = st.integers(min_value=0, max_value=7)
_KEYS = st.integers(min_value=0, max_value=20)  # narrow range: ties
#: Re-keys dominate and clears are rare, so stale entries often pile up
#: past the compaction threshold (2 * live + 64) between clears.
_OP_NAMES = (["update_key"] * 300 + ["push"] * 20 + ["pop"] * 5
             + ["peek"] * 5 + ["remove"] * 5 + ["key_of"] * 10
             + ["clear"])
_OPS = st.tuples(st.sampled_from(_OP_NAMES), _ITEMS, _KEYS)

#: Falling re-keys sink every stale entry below the live ones, so only
#: compaction can reclaim them: this case compacts several times.
_COMPACTING = ([("push", item, 500) for item in range(8)]
               + [("update_key", step % 8, 400 - step)
                  for step in range(300)]
               + [("peek", 0, 0), ("remove", 3, 0), ("pop", 0, 0),
                  ("key_of", 5, 0), ("clear", 0, 0), ("push", 1, 2),
                  ("pop", 0, 0)])


@settings(max_examples=60, deadline=None)
@given(st.lists(_OPS, min_size=150, max_size=400))
@example(_COMPACTING)
def test_model_interleaved_operations(ops):
    """Every op agrees with a reference that orders live items by
    ``(key, seq)``, seq fresh on each push and re-key, across the
    compaction threshold."""
    heap = AddressableHeap()
    model = {}      # item -> (key, seq)
    seq = 0

    def model_min():
        item = min(model, key=model.__getitem__)
        return item, model[item][0]

    for op, item, key in ops:
        if op == "push":
            if item in model:
                with pytest.raises(KeyError):
                    heap.push(item, key)
            else:
                heap.push(item, key)
                model[item] = (key, seq)
                seq += 1
        elif op == "update_key":
            if item in model:
                heap.update_key(item, key)
                model[item] = (key, seq)
                seq += 1
            else:
                with pytest.raises(KeyError):
                    heap.update_key(item, key)
        elif op in ("pop", "peek"):
            if not model:
                with pytest.raises(IndexError):
                    getattr(heap, op)()
                continue
            expected = model_min()
            assert getattr(heap, op)() == expected
            if op == "pop":
                del model[expected[0]]
        elif op == "remove":
            if item in model:
                assert heap.remove(item) == model.pop(item)[0]
            else:
                with pytest.raises(KeyError):
                    heap.remove(item)
        elif op == "key_of":
            if item in model:
                assert heap.key_of(item) == model[item][0]
            else:
                with pytest.raises(KeyError):
                    heap.key_of(item)
        else:
            heap.clear()
            model.clear()
        heap.check_invariants()
        assert len(heap) == len(model)
        assert set(heap) == set(model)
        assert all((i in heap) == (i in model) for i in range(8))
    drained = [heap.pop() for _ in range(len(model))]
    assert drained == [(item, model[item][0])
                       for item in sorted(model, key=model.__getitem__)]


def test_stale_entries_stay_bounded_under_rekeying():
    """Lazy deletion keeps memory O(live): 10k re-keys of 50 items
    never grow the internal list past 2 * live + 64."""
    rng = random.Random(7)
    heap = AddressableHeap()
    for item in range(50):
        heap.push(item, rng.random())
    for _ in range(10_000):
        heap.update_key(rng.randrange(50), rng.random())
        assert len(heap._heap) <= 2 * len(heap) + 64
    heap.check_invariants()
    assert len(heap) == 50
