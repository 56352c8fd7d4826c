"""Output checks, run outside the timed region.

Every check counts *attempted* outputs (one per grid cell per pass,
one per shard per replay) and *failed* ones; ``fail_ratio`` is their
quotient.  The grid invariants hold for any seed, so a failure always
means a wrong answer, never an unlucky draw.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.simulation.engine import run_cells


@dataclass
class CheckTally:
    """Attempted and failed outputs, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, label: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(f"{label}: {p}" for p in problems)

    def fail_all(self, count: int, reason: str) -> None:
        """``count`` outputs that were never produced (a pass raised)."""
        self.attempted += count
        self.failed += count
        self.reasons.append(reason)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


_COUNT_FIELDS = ("requests", "hits", "requested_bytes", "hit_bytes")


def cell_problems(result) -> List[str]:
    """Seed-independent invariants of one simulated cell."""
    problems = []
    overall = result.metrics.overall
    measured = result.total_requests - result.warmup_requests
    if overall.requests != measured:
        problems.append(f"{overall.requests} requests counted, "
                        f"{measured} measured")
    if not 0 <= overall.hits <= overall.requests:
        problems.append(f"hits {overall.hits} outside "
                        f"[0, {overall.requests}]")
    if not 0 <= overall.hit_bytes <= overall.requested_bytes:
        problems.append(f"hit bytes {overall.hit_bytes} outside "
                        f"[0, {overall.requested_bytes}]")
    for name in _COUNT_FIELDS:
        by_type = sum(getattr(acc, name)
                      for acc in result.metrics.by_type.values())
        if by_type != getattr(overall, name):
            problems.append(f"per-type {name} sum to {by_type}, overall "
                            f"is {getattr(overall, name)}")
    return problems


def cell_digest(result) -> str:
    """Digest of one cell's exact counts (no floats, no timings)."""
    overall = result.metrics.overall
    parts = [result.policy, result.capacity_bytes, result.evictions,
             result.invalidations, result.bypasses]
    parts += [getattr(overall, name) for name in _COUNT_FIELDS]
    for doc_type in sorted(result.metrics.by_type, key=lambda t: t.value):
        acc = result.metrics.by_type[doc_type]
        parts += [getattr(acc, name) for name in _COUNT_FIELDS]
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def lru_monotone_problems(results) -> Dict[int, str]:
    """LRU cells whose hit rate falls as capacity grows, by index.

    Only cells that bypassed nothing are compared: byte-capacity LRU
    keeps the longest recency-stack prefix that fits, so a bigger cache
    holds a superset and hits at least as often (the inclusion the LRU
    ladder relies on).  A document too big for the smaller cache breaks
    that — the bigger cache admits it and evicts others for it — so a
    cell with bypasses may legitimately hit less often.
    """
    lru = sorted((r.capacity_bytes, i) for i, r in enumerate(results)
                 if r.policy == "lru" and r.bypasses == 0)
    problems = {}
    for (_, smaller), (capacity, larger) in zip(lru, lru[1:]):
        low = results[smaller].hit_rate()
        high = results[larger].hit_rate()
        if high < low:
            problems[larger] = (f"LRU hit rate {high:.6f} at {capacity} "
                                f"bytes is below {low:.6f} at the next "
                                "smaller capacity")
    return problems


def check_grid(tally: CheckTally, label: str, results,
               expected_digests: Optional[List[str]]) -> List[str]:
    """Check one pass's cells; returns their digests.

    ``expected_digests`` are the first pass's digests for the same
    inputs; every later pass must repeat them cell for cell.
    """
    digests = [cell_digest(result) for result in results]
    monotone = lru_monotone_problems(results)
    for index, result in enumerate(results):
        problems = cell_problems(result)
        if index in monotone:
            problems.append(monotone[index])
        if (expected_digests is not None
                and digests[index] != expected_digests[index]):
            problems.append("counts differ from the first pass")
        tally.record(f"{label} cell {index} {result.policy}@"
                     f"{result.capacity_bytes}", problems)
    return digests


def check_ladder_cell(tally: CheckTally, trace, config,
                      ladder_result) -> None:
    """Re-run one ladder capacity through the per-reference loop."""
    [simulated] = run_cells(trace, [config], lru_fast_path=False)
    problems = []
    if simulated.as_dict() != ladder_result.as_dict():
        problems.append("ladder cell differs from the per-reference "
                        "simulation of the same capacity")
    tally.record(f"ladder recheck @{config.capacity_bytes}", problems)


def check_replays(tally: CheckTally, reports, validation) -> None:
    """Every replay's shards against the per-shard simulation.

    ``validation`` is :func:`repro.serving.replay.validate_replay` of
    the first report; the replay is deterministic (one thread per
    shard), so every later replay must reproduce the simulated hit
    rate exactly too.
    """
    simulated = {s.shard: s.simulated_hit_rate for s in validation.shards}
    for number, report in enumerate(reports):
        for shard in report.per_shard:
            problems = []
            if shard.hits + shard.misses != shard.requests:
                problems.append(f"hits {shard.hits} + misses "
                                f"{shard.misses} != requests "
                                f"{shard.requests}")
            expected = simulated.get(shard.shard)
            if shard.requests and expected != shard.hit_rate:
                problems.append(f"replayed hit rate {shard.hit_rate!r} "
                                f"!= simulated {expected!r}")
            tally.record(f"replay {number} {shard.shard}", problems)
