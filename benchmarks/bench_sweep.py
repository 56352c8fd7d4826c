"""Per-cell loop vs the shared-pass sweep on the paper's figure grid.

The tentpole claim of the shared-pass engine (docs/guide.md,
"Architecture: the shared-pass engine"): a per-cell loop over a trace
*file* pays the trace tax — decode, preprocessing, size resolution —
once per cell (``O(cells × requests)`` decode work), while
:func:`~repro.simulation.sweep.run_sweep` pays it once per *pass*, so
the paper's 4-policy × 4-size grid finishes at least twice as fast at
the same worker count — with bit-identical results.  This bench writes
a synthetic DFN-like workload to a canonical trace file, measures the
sweep against a per-cell :class:`CacheSimulator` loop over the same
source (file-backed and in-memory), and writes the comparison to
``BENCH_sweep.json``.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) runs single-round
and drops the speedup floor; the equivalence assertions always hold.
"""

import json
import os
from pathlib import Path
from time import perf_counter

import pytest

from repro.core.registry import make_policy
from repro.simulation.results import SweepResult
from repro.simulation.simulator import CacheSimulator, SimulationConfig
from repro.simulation.sweep import (
    PAPER_SIZE_FRACTIONS,
    cache_sizes_from_fractions,
    run_sweep,
)
from repro.trace.pipeline import count_requests, iter_trace
from repro.trace.writer import write_trace

#: The constant-cost policy set of the paper's DFN figures (Figure 2).
POLICIES = ("lru", "lfu-da", "gds(1)", "gd*(1)")
WARMUP_FRACTION = 0.10
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROUNDS = 1 if SMOKE else 3
#: Acceptance floor for the shared-pass engine on the file-backed
#: paper grid.  Loose in smoke mode: shared CI boxes are noisy and the
#: tiny smoke trace underweights the per-cell decode tax.
SPEEDUP_FLOOR = 1.2 if SMOKE else 2.0


@pytest.fixture(scope="module")
def capacities(dfn_trace):
    return cache_sizes_from_fractions(dfn_trace, PAPER_SIZE_FRACTIONS)


@pytest.fixture(scope="module")
def trace_file(dfn_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-sweep") / "dfn.csv"
    write_trace(path, dfn_trace.requests)
    return path


def percell_sweep(source, policies, capacities):
    """The per-cell baseline: one :class:`CacheSimulator` and one full
    trace pass per cell, so a trace file is re-decoded for every
    cell."""
    if isinstance(source, Path):
        name = source.stem
        warmup = int(count_requests(source) * WARMUP_FRACTION)

        def run(simulator):
            return simulator.run_stream(iter_trace(source),
                                        warmup_requests=warmup,
                                        trace_name=name)
    else:
        name = source.name

        def run(simulator):
            return simulator.run(source)
    sweep = SweepResult(trace_name=name)
    for policy in policies:
        for capacity in capacities:
            sweep.add(run(CacheSimulator(SimulationConfig(
                capacity_bytes=capacity, policy=make_policy(policy),
                warmup_fraction=WARMUP_FRACTION))))
    return sweep


def _best_seconds(sweep_fn, source, capacities, rounds=ROUNDS):
    """Best-of-N wall clock; also returns the last sweep for checks."""
    best, sweep = float("inf"), None
    for _ in range(rounds):
        started = perf_counter()
        sweep = sweep_fn(source, POLICIES, capacities)
        best = min(best, perf_counter() - started)
    return best, sweep


def test_engines_head_to_head(dfn_trace, capacities, trace_file,
                              bench_scale):
    # Warm both code paths before timing either side.
    warm_caps = capacities[:1]
    percell_sweep(trace_file, POLICIES[:1], warm_caps)
    run_sweep(trace_file, POLICIES[:1], warm_caps)

    cells = len(POLICIES) * len(capacities)
    requests = len(dfn_trace) * cells

    # The paper workflow: sweep a trace file with bounded memory.
    file_percell_s, percell = _best_seconds(percell_sweep, trace_file,
                                            capacities)
    file_batched_s, batched = _best_seconds(run_sweep, trace_file,
                                            capacities)
    # The speedup is only meaningful because results are identical.
    assert batched.as_dict() == percell.as_dict()

    # Secondary: the same grid over an already-materialized trace,
    # where only iteration/resolution (not decoding) is amortized.
    mem_percell_s, mem_percell = _best_seconds(percell_sweep, dfn_trace,
                                               capacities)
    mem_batched_s, mem_batched = _best_seconds(run_sweep, dfn_trace,
                                               capacities)
    assert mem_batched.as_dict() == mem_percell.as_dict()

    speedup = file_percell_s / file_batched_s
    report = {
        "bench": "sweep-engine",
        "scale": bench_scale,
        "smoke": SMOKE,
        "policies": list(POLICIES),
        "capacities": list(capacities),
        "cells": cells,
        "trace_requests": len(dfn_trace),
        "rounds": ROUNDS,
        "file_backed": {
            "percell": {
                "seconds": round(file_percell_s, 6),
                "requests_per_second":
                    round(requests / file_percell_s, 1)},
            "batched": {
                "seconds": round(file_batched_s, 6),
                "requests_per_second":
                    round(requests / file_batched_s, 1)},
            "speedup": round(speedup, 3),
        },
        "in_memory": {
            "percell": {
                "seconds": round(mem_percell_s, 6),
                "requests_per_second":
                    round(requests / mem_percell_s, 1)},
            "batched": {
                "seconds": round(mem_batched_s, 6),
                "requests_per_second":
                    round(requests / mem_batched_s, 1)},
            "speedup": round(mem_percell_s / mem_batched_s, 3),
        },
        "speedup_floor": SPEEDUP_FLOOR,
    }
    Path("BENCH_sweep.json").write_text(json.dumps(report, indent=2)
                                        + "\n")
    assert speedup >= SPEEDUP_FLOOR, report
