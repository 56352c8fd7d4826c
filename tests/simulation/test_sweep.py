"""Tests for cache-size sweeps."""

import pytest

from repro.errors import ConfigurationError
from repro.simulation.sweep import cache_sizes_from_fractions, run_sweep
from repro.types import DocumentType, Request, Trace


def small_trace():
    requests = []
    for i in range(50):
        for url, size, doc_type in (
                ("a", 1000, DocumentType.HTML),
                (f"u{i}", 500, DocumentType.IMAGE),
                ("b", 2000, DocumentType.APPLICATION)):
            requests.append(Request(float(i), url, size, size, doc_type))
    return Trace(requests, name="sweep-test")


class TestCacheSizes:
    def test_fractions_of_trace_bytes(self):
        trace = small_trace()
        total = trace.metadata().total_size_bytes
        sizes = cache_sizes_from_fractions(trace, [0.1, 0.5])
        assert sizes == [int(total * 0.1), int(total * 0.5)]

    def test_sorted_and_deduplicated(self):
        trace = small_trace()
        sizes = cache_sizes_from_fractions(trace, [0.5, 0.1, 0.5])
        assert sizes == sorted(set(sizes))
        assert len(sizes) == 2

    def test_validation(self):
        trace = small_trace()
        with pytest.raises(ConfigurationError):
            cache_sizes_from_fractions(trace, [])
        with pytest.raises(ConfigurationError):
            cache_sizes_from_fractions(trace, [0.0])

    def test_minimum_one_byte(self):
        trace = small_trace()
        assert cache_sizes_from_fractions(trace, [1e-12]) == [1]


class TestRunSweep:
    def test_grid_complete(self):
        trace = small_trace()
        sweep = run_sweep(trace, ["lru", "gds(1)"], [5000, 20_000])
        assert sorted(sweep.policies) == ["gds(1)", "lru"]
        assert sweep.capacities == [5000, 20_000]
        for policy in sweep.policies:
            assert set(sweep.grid[policy]) == {5000, 20_000}

    def test_results_are_independent_runs(self):
        trace = small_trace()
        sweep = run_sweep(trace, ["lru"], [5000, 20_000])
        small = sweep.grid["lru"][5000]
        large = sweep.grid["lru"][20_000]
        assert small.capacity_bytes == 5000
        assert large.hit_rate() >= small.hit_rate()

    def test_series_ordering(self):
        trace = small_trace()
        sweep = run_sweep(trace, ["lru"], [20_000, 5000])
        series = sweep.series("lru")
        assert [cap for cap, _ in series] == [5000, 20_000]

    def test_policy_kwargs_forwarded(self):
        trace = small_trace()
        sweep = run_sweep(trace, ["gd*(1)"], [5000],
                          policy_kwargs={"fixed_beta": 0.5})
        result = sweep.grid["gd*(1)"][5000]
        assert result.final_beta == 0.5

    def test_trace_name_propagates(self):
        sweep = run_sweep(small_trace(), ["lru"], [5000])
        assert sweep.trace_name == "sweep-test"
