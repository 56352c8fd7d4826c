"""Regenerate the pinned single-cache policy goldens.

Run from the repo root::

    PYTHONPATH=src python tests/simulation/gen_policy_goldens.py

``data/golden_policies.json`` pins the exact single-cache outcome of
every registry policy at three of the paper's cache-size fractions on
the DFN-like and RTP-like traces (scale 1/512): hits, hit bytes and
requests overall and per document type, evictions, invalidations,
bypasses and the final GD* β.  ``test_policy_goldens.py`` replays the
same cells and asserts exact equality.

The engine-equivalence matrices compare two evaluation paths that ride
the same policies and heap, so they cannot see an eviction-order
change; these goldens can.  Regenerating is only legitimate when the
*workload generator* changes, never to paper over a policy or heap
difference.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.registry import POLICY_NAMES
from repro.simulation.simulator import simulate
from repro.simulation.sweep import cache_sizes_from_fractions
from repro.workload.generator import generate_trace
from repro.workload.profiles import dfn_like, rtp_like

DATA_FILE = Path(__file__).parent / "data" / "golden_policies.json"

#: The deterministic workloads every golden runs against.
TRACE_SCALE = 1.0 / 512.0
PROFILES = {"dfn": dfn_like, "rtp": rtp_like}

#: Three of the paper's cache sizes, as fractions of distinct bytes.
SIZE_FRACTIONS = (0.005, 0.02, 0.04)


def golden_traces():
    return {name: generate_trace(profile(scale=TRACE_SCALE))
            for name, profile in PROFILES.items()}


def cell_key(trace_name, policy, fraction):
    return f"{trace_name}|{policy}|{fraction}"


def rates(acc):
    return {"requests": acc.requests, "hits": acc.hits,
            "requested_bytes": acc.requested_bytes,
            "hit_bytes": acc.hit_bytes}


def cell_record(result):
    metrics = result.metrics
    return {
        "total_requests": result.total_requests,
        "warmup_requests": result.warmup_requests,
        "overall": rates(metrics.overall),
        "by_type": {doc_type.value: rates(acc)
                    for doc_type, acc in sorted(
                        metrics.by_type.items(),
                        key=lambda item: item[0].value)},
        "evictions": result.evictions,
        "invalidations": result.invalidations,
        "bypasses": result.bypasses,
        "final_beta": result.final_beta,
    }


def generate():
    cells = {}
    meta = {"trace_scale": TRACE_SCALE, "size_fractions": SIZE_FRACTIONS,
            "traces": {}}
    for trace_name, trace in golden_traces().items():
        capacities = cache_sizes_from_fractions(trace, SIZE_FRACTIONS)
        meta["traces"][trace_name] = {
            "requests": len(trace),
            "capacity_bytes": dict(zip(map(str, SIZE_FRACTIONS),
                                       capacities))}
        for policy in POLICY_NAMES:
            for fraction, capacity in zip(SIZE_FRACTIONS, capacities):
                result = simulate(trace, policy, capacity)
                cells[cell_key(trace_name, policy, fraction)] = \
                    cell_record(result)
    DATA_FILE.parent.mkdir(parents=True, exist_ok=True)
    DATA_FILE.write_text(json.dumps({"meta": meta, "cells": cells},
                                    indent=1, sort_keys=True) + "\n")
    print(f"{len(cells)} cells")


if __name__ == "__main__":
    generate()
