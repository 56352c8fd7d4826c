"""Tests for the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Workloads run at a tiny scale (a few thousand requests) so the whole
file finishes in well under a minute.
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
from checks import CheckTally, check_grid, check_replays  # noqa: E402
from repro.simulation.engine import SimulationConfig, run_cells  # noqa: E402
from repro.workload.generator import generate_trace  # noqa: E402
from repro.workload.profiles import dfn_like  # noqa: E402
from tracing import LAYER_METRICS, Tracer, entry_points  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Trace-size multiplier for smoke runs (paper-grid ~650 DFN requests).
TINY = 0.05
NAME = re.compile(r"[A-Za-z0-9_.-]+")
EXACT_COUNTS = ("core.reference_calls", "core.evictions",
                "structures.heap_ops", "structures.fenwick_ops")


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_plain_and_match_the_spec():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    per_layer = [(m.name, m.unit, m.better) for m in LAYER_METRICS]
    per_layer += [(f"tracing.{name}.delta", unit, better[name])
                  for name, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


@pytest.fixture(scope="module")
def grid():
    trace = generate_trace(dfn_like(scale=1 / 4096, seed=3))
    # Every capacity holds the largest document, so LRU bypasses
    # nothing and its hit rate must grow with capacity.
    largest = max(request.size for request in trace.requests)
    configs = [SimulationConfig(capacity_bytes=capacity, policy=policy,
                                warmup_fraction=0.1)
               for policy in ("lru", "gds(1)")
               for capacity in (largest, 2 * largest, 4 * largest)]
    return run_cells(trace, configs)


def test_correct_grid_passes_its_checks(grid):
    tally = CheckTally()
    digests = check_grid(tally, "first", grid, None)
    check_grid(tally, "again", copy.deepcopy(grid), digests)
    assert (tally.attempted, tally.failed) == (2 * len(grid), 0)


@pytest.mark.parametrize("plant", ["hits", "type_total", "lru_order"])
def test_planted_wrong_cell_raises_fail_ratio(grid, plant):
    wrong = copy.deepcopy(grid)
    if plant == "hits":
        wrong[4].metrics.overall.hits += 1
    elif plant == "type_total":
        next(iter(wrong[1].metrics.by_type.values())).requests += 1
    else:
        # The largest LRU cache now never hits, consistently per type.
        for acc in [wrong[2].metrics.overall,
                    *wrong[2].metrics.by_type.values()]:
            acc.hits = acc.hit_bytes = 0
    tally = CheckTally()
    check_grid(tally, "planted", wrong, None)
    assert tally.failed == 1
    assert tally.fail_ratio > 0
    if plant == "lru_order":
        assert "LRU hit rate" in tally.reasons[0]


def test_digest_mismatch_across_passes_fails(grid):
    tally = CheckTally()
    digests = check_grid(tally, "first", grid, None)
    wrong = copy.deepcopy(grid)
    wrong[0].evictions += 1
    check_grid(tally, "second", wrong, digests)
    assert tally.failed == 1


def test_planted_wrong_shard_raises_fail_ratio():
    from types import SimpleNamespace

    shard = SimpleNamespace(shard="shard-0", requests=10, hits=4,
                            misses=6, hit_rate=0.4)
    validation = SimpleNamespace(shards=[SimpleNamespace(
        shard="shard-0", simulated_hit_rate=0.5)])
    tally = CheckTally()
    check_replays(tally, [SimpleNamespace(per_shard=[shard])], validation)
    assert tally.fail_ratio == 1.0


def _originals():
    return [(point.owner, point.attr, point.owner.__dict__[point.attr])
            for point in entry_points()]


def test_tracer_restores_every_entry_point():
    originals = _originals()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(owner.__dict__[attr] is not original
                       for owner, attr, original in originals)
            raise RuntimeError("a pass failed")
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_untraced(name, capsys):
    result = run.run(name, seed=2, seconds=0.01, trace=False, scale=TINY)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {key for key, _ in run.END_TO_END}
    for key, unit in run.END_TO_END:
        assert result["metrics"][key]["unit"] == unit
        assert result["metrics"][key]["value"] > 0
    assert "fail_ratio 0.0" in capsys.readouterr().out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_counts_repeat_and_wrappers_are_gone(name):
    originals = _originals()
    first = run.run(name, seed=5, seconds=0.01, trace=True, scale=TINY)
    second = run.run(name, seed=5, seconds=0.01, trace=True, scale=TINY)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
    assert first["correct"] and second["correct"]
    expected = {m["name"] for m in _spec()["per_layer"]}
    assert set(first["metrics"]) == expected
    for key in EXACT_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    metrics = first["metrics"]
    if name == "paper-grid":
        assert metrics["structures.heap_ops"]["value"] > 0
        assert metrics["structures.fenwick_ops"]["value"] == 0
    elif name == "lru-ladder":
        assert metrics["structures.fenwick_ops"]["value"] > 0
        assert metrics["structures.heap_ops"]["value"] == 0
    else:
        assert metrics["serving.drive_rps"]["value"] > 0
        assert metrics["core.reference_calls"]["value"] > 0
