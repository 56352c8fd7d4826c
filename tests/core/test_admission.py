"""Tests for second-hit admission control."""

import pytest

from repro.core.admission import SecondHitAdmission, SeenOnceTable
from repro.core.cache import Cache
from repro.core.lru import LRUPolicy
from repro.core.policy import AccessOutcome
from repro.errors import ConfigurationError

from tests.core.helpers import ref, resident_urls


class TestSeenOnceTable:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SeenOnceTable(0)

    def test_membership(self):
        table = SeenOnceTable(10)
        assert "u" not in table
        table.touch("u")
        assert "u" in table

    def test_capacity_evicts_lru(self):
        table = SeenOnceTable(2)
        table.touch("a")
        table.touch("b")
        table.touch("c")           # evicts a
        assert "a" not in table
        assert "b" in table and "c" in table

    def test_touch_refreshes(self):
        table = SeenOnceTable(2)
        table.touch("a")
        table.touch("b")
        table.touch("a")           # a now MRU
        table.touch("c")           # evicts b
        assert "a" in table
        assert "b" not in table

    def test_discard(self):
        table = SeenOnceTable(4)
        table.touch("a")
        table.discard("a")
        assert "a" not in table
        table.discard("ghost")     # no-op


class TestSecondHitAdmission:
    def cache(self, capacity=100, window=100):
        return Cache(capacity,
                     SecondHitAdmission(LRUPolicy(),
                                        window_urls=window))

    def test_first_request_bypassed(self):
        cache = self.cache()
        outcome = ref(cache, "a")
        assert outcome is AccessOutcome.MISS_TOO_BIG  # bypass path
        assert "a" not in cache
        assert cache.bypasses == 1

    def test_second_request_admitted(self):
        cache = self.cache()
        ref(cache, "a")
        outcome = ref(cache, "a")
        assert outcome is AccessOutcome.MISS  # now admitted
        assert "a" in cache

    def test_third_request_hits(self):
        cache = self.cache()
        ref(cache, "a"), ref(cache, "a")
        assert ref(cache, "a") is AccessOutcome.HIT

    def test_one_hit_wonders_never_pollute(self):
        cache = self.cache(capacity=30)
        ref(cache, "hot"), ref(cache, "hot")          # resident
        for index in range(50):
            ref(cache, f"wonder{index}")              # all bypassed
        assert resident_urls(cache) == ["hot"]
        assert cache.get("hot") is not None
        cache.check_invariants()

    def test_window_bounds_memory(self):
        cache = self.cache(window=3)
        ref(cache, "a")                 # seen: [a]
        ref(cache, "b"), ref(cache, "c"), ref(cache, "d")  # a evicted
        outcome = ref(cache, "a")       # forgotten: bypassed again
        assert outcome is AccessOutcome.MISS_TOO_BIG
        assert "a" not in cache

    def test_evicted_document_readmits_immediately(self):
        cache = self.cache(capacity=30)
        for url in ("a", "b", "c", "d"):
            ref(cache, url), ref(cache, url)   # all admitted
        # d's admission evicted a (LRU); a has proven reuse, so its
        # very next miss is admitted without a second probe.
        assert "a" not in cache
        assert ref(cache, "a") is AccessOutcome.MISS
        assert "a" in cache

    def test_name_and_forwarding(self):
        policy = SecondHitAdmission(LRUPolicy())
        assert policy.name == "2hit+lru"
        cache = Cache(100, policy)
        ref(cache, "x"), ref(cache, "x")
        cache.invalidate("x")
        cache.flush()
        cache.check_invariants()

    def test_improves_hit_rate_on_wonder_heavy_mix(self):
        """With many one-hit wonders and a small cache, admission
        control beats plain LRU."""
        import random
        rng = random.Random(4)
        plain = Cache(200, LRUPolicy())
        filtered = Cache(200, SecondHitAdmission(LRUPolicy()))
        hot = [f"hot{i}" for i in range(5)]
        for step in range(4000):
            url = (rng.choice(hot) if rng.random() < 0.4
                   else f"wonder{step}")
            size = 40
            plain.reference(url, size)
            filtered.reference(url, size)
        assert filtered.hits > plain.hits

    def test_composes_with_size_threshold(self):
        from repro.core.lru_threshold import LRUThresholdPolicy
        policy = SecondHitAdmission(
            LRUThresholdPolicy(threshold_bytes=50))
        cache = Cache(1000, policy)
        ref(cache, "big", size=100)
        outcome = ref(cache, "big", size=100)  # second hit, but too big
        assert outcome is AccessOutcome.MISS_TOO_BIG
        assert "big" not in cache

    def test_next_victim_forwards_to_inner(self):
        cache = self.cache()
        for url in ("a", "b"):
            ref(cache, url), ref(cache, url)    # both resident
        assert cache.next_victim() is cache.get("a")
        assert len(cache) == 2                   # peeking evicts nothing

    def test_rejected_second_attach_leaves_wrapper_unchanged(self):
        from repro.errors import SimulationError
        policy = SecondHitAdmission(LRUPolicy())
        first = Cache(100, policy)
        with pytest.raises(SimulationError):
            Cache(100, policy)
        assert policy.cache is first
        assert policy.inner.cache is first
