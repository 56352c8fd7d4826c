"""The benchmark's three workloads.

Each workload turns ``--seed`` into its inputs (the program only ever
sees the generated traces), builds what one timed pass needs, runs the
pass, and checks the pass's outputs afterwards.  Set-up covers trace
generation, ``.rcol`` write and open, capacity sizing and cache
construction; the timed pass starts at the first request.

Layer entry points are called through their modules
(``engine.run_cells``, ``generator.generate_trace`` ...) so that the
traced run's wrappers see them.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import List, Optional

from checks import (
    CheckTally,
    check_grid,
    check_ladder_cell,
    check_replays,
)
from repro.serving.sharding import ShardedCache
from repro.simulation import engine
from repro.simulation.engine import CacheCell, SimulationConfig
from repro.simulation.sweep import (
    PAPER_SIZE_FRACTIONS,
    cache_sizes_from_fractions,
)
from repro.trace import columnar
from repro.types import Trace
from repro.workload import generator
from repro.workload.profiles import dfn_like, rtp_like

# ``repro.serving`` re-exports the ``replay`` function under the
# submodule's name, so fetch the module itself.
replay_module = importlib.import_module("repro.serving.replay")

#: The paper's warm-up share: the first 10 % of a trace fills caches.
WARMUP_FRACTION = 0.10


@dataclass
class PassResult:
    """One timed pass: its wall time, its work and its outputs."""

    seconds: float
    requests: int
    cell_requests: int
    outputs: object
    #: Replay only: per-request service time quantiles (µs) from the
    #: report's sampled histogram, and how many requests it sampled.
    latency_us: Optional[dict] = None
    latency_samples: int = 0


class Workload:
    """Inputs from a seed, one timed pass, and its output checks."""

    name = ""
    why = ""
    outputs_per_pass = 1
    #: Exact per-output counts from :meth:`check`, kept in the record
    #: so that two runs of one seed can be compared.
    digests = None

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self):
        """Fresh caches for one pass (built outside the timed region)."""
        raise NotImplementedError

    def run_pass(self, prepared) -> PassResult:
        raise NotImplementedError

    def check(self, passes: List[PassResult], tally: CheckTally) -> None:
        raise NotImplementedError

    def describe(self) -> dict:
        """Trace sizes and grid shape, recorded with every result."""
        raise NotImplementedError

    def close(self) -> None:
        """Release files opened by :meth:`setup`."""


def _cells(policies, capacities) -> List[CacheCell]:
    return [CacheCell(SimulationConfig(capacity_bytes=capacity,
                                       policy=policy,
                                       warmup_fraction=WARMUP_FRACTION))
            for policy in policies for capacity in capacities]


class PaperGrid(Workload):
    """Figure 2 on a DFN-like trace plus the §4.4 packet-cost grid on
    an RTP-like ``.rcol`` trace."""

    name = "paper-grid"
    why = ("the paper's headline grid: 4 policies x 4 sizes on DFN "
           "(in memory) and RTP packet-cost (.rcol); policy and heap "
           "work dominate")
    DFN_SCALE = 1.0 / 512.0
    RTP_SCALE = 1.0 / 512.0
    DFN_POLICIES = ("lru", "lfu-da", "gds(1)", "gd*(1)")
    RTP_POLICIES = ("lru", "lfu-da", "gds(p)", "gd*(p)")
    outputs_per_pass = 32

    def setup(self) -> None:
        self.dfn = generator.generate_trace(
            dfn_like(scale=self.DFN_SCALE * self.scale, seed=self.seed))
        rtp = generator.generate_trace(
            rtp_like(scale=self.RTP_SCALE * self.scale, seed=self.seed))
        path = self.workdir / "paper-grid-rtp.rcol"
        columnar.write_columnar(path, rtp.requests, name=rtp.name)
        self.rtp = columnar.open_columnar(path)
        self.dfn_capacities = cache_sizes_from_fractions(
            self.dfn, PAPER_SIZE_FRACTIONS)
        self.rtp_capacities = cache_sizes_from_fractions(
            self.rtp, PAPER_SIZE_FRACTIONS)

    def prepare(self):
        return (_cells(self.DFN_POLICIES, self.dfn_capacities),
                _cells(self.RTP_POLICIES, self.rtp_capacities))

    def run_pass(self, prepared) -> PassResult:
        dfn_cells, rtp_cells = prepared
        started = perf_counter()
        dfn_results = engine.run_cells(self.dfn, dfn_cells)
        rtp_results = engine.run_cells(self.rtp, rtp_cells)
        seconds = perf_counter() - started
        n_dfn, n_rtp = len(self.dfn), len(self.rtp)
        return PassResult(
            seconds, n_dfn + n_rtp,
            len(dfn_cells) * n_dfn + len(rtp_cells) * n_rtp,
            (dfn_results, rtp_results))

    def check(self, passes, tally) -> None:
        expected = {"dfn": None, "rtp": None}
        for number, result in enumerate(passes):
            for label, results in zip(("dfn", "rtp"), result.outputs):
                digests = check_grid(tally, f"pass {number} {label}",
                                     results, expected[label])
                if expected[label] is None:
                    expected[label] = digests
        self.digests = expected

    def describe(self) -> dict:
        return {"dfn_requests": len(self.dfn),
                "rtp_requests": len(self.rtp),
                "dfn_capacities": self.dfn_capacities,
                "rtp_capacities": self.rtp_capacities,
                "dfn_policies": list(self.DFN_POLICIES),
                "rtp_policies": list(self.RTP_POLICIES)}

    def close(self) -> None:
        self.rtp.close()


class LruLadder(Workload):
    """The exact all-capacities LRU ladder on a stable-size ``.rcol``
    DFN-like trace."""

    name = "lru-ladder"
    why = ("32 LRU capacities over 0.5-4% from one stack-distance pass "
           "on .rcol: Fenwick loop and column reads, no heap")
    SCALE = 1.0 / 64.0
    POINTS = 32
    #: Largest cacheable object (``bench_columnar.py``'s cap): with
    #: sizes pinned per document, every capacity is ladder-eligible.
    MAX_OBJECT_BYTES = 200_000
    outputs_per_pass = POINTS

    def setup(self) -> None:
        dfn = generator.generate_trace(
            dfn_like(scale=self.SCALE * self.scale, seed=self.seed))
        first = {}
        requests = []
        for request in dfn.requests:
            size = first.setdefault(
                request.url, min(request.size, self.MAX_OBJECT_BYTES))
            requests.append(replace(
                request, size=size,
                transfer_size=min(request.transfer_size, size) or size))
        stable = Trace(requests, name="dfn-stable")
        path = self.workdir / "lru-ladder.rcol"
        columnar.write_columnar(path, stable.requests, name=stable.name)
        self.trace = columnar.open_columnar(path)
        low, high = min(PAPER_SIZE_FRACTIONS), max(PAPER_SIZE_FRACTIONS)
        step = (high - low) / (self.POINTS - 1)
        self.capacities = cache_sizes_from_fractions(
            self.trace, [low + step * i for i in range(self.POINTS)])

    def prepare(self):
        return _cells(("lru",), self.capacities)

    def run_pass(self, prepared) -> PassResult:
        started = perf_counter()
        results = engine.run_cells(self.trace, prepared)
        seconds = perf_counter() - started
        n = len(self.trace)
        return PassResult(seconds, n, len(prepared) * n, results)

    def check(self, passes, tally) -> None:
        expected = None
        for number, result in enumerate(passes):
            digests = check_grid(tally, f"pass {number}", result.outputs,
                                 expected)
            expected = expected or digests
        self.digests = expected
        index = random.Random(self.seed).randrange(len(self.capacities))
        ladder_result = passes[0].outputs[index]
        config = SimulationConfig(
            capacity_bytes=ladder_result.capacity_bytes, policy="lru",
            warmup_fraction=WARMUP_FRACTION)
        check_ladder_cell(tally, self.trace, config, ladder_result)

    def describe(self) -> dict:
        return {"requests": len(self.trace),
                "capacities": self.capacities,
                "max_object_bytes": self.MAX_OBJECT_BYTES}

    def close(self) -> None:
        self.trace.close()


class ReplayLru(Workload):
    """Serving replay through a 2-shard LRU cache, one thread per
    shard (a closed loop with 2 clients)."""

    name = "replay-lru"
    why = ("2-shard LRU serving replay at 2% of distinct bytes, one "
           "thread per shard: ring routing, shard locks and thread "
           "handoff dominate")
    SCALE = 1.0 / 64.0
    SHARDS = 2
    SIZE_FRACTION = 0.02
    outputs_per_pass = SHARDS

    def setup(self) -> None:
        self.trace = generator.generate_trace(
            dfn_like(scale=self.SCALE * self.scale, seed=self.seed))
        [capacity] = cache_sizes_from_fractions(self.trace,
                                                [self.SIZE_FRACTION])
        self.config = replay_module.ReplayConfig(
            capacity_bytes=capacity, n_shards=self.SHARDS, policy="lru")

    def prepare(self):
        config = self.config
        return ShardedCache(config.capacity_bytes,
                            n_shards=config.n_shards,
                            policy=config.policy, vnodes=config.vnodes)

    def run_pass(self, prepared) -> PassResult:
        started = perf_counter()
        report = replay_module.replay(self.trace, self.config,
                                      cache=prepared)
        seconds = perf_counter() - started
        quantiles = report.latency_quantiles
        return PassResult(
            seconds, report.requests, report.requests, report,
            latency_us={"p50": quantiles["p50"] * 1e6,
                        "p99": quantiles["p99"] * 1e6},
            latency_samples=report.latency_samples)

    def check(self, passes, tally) -> None:
        reports = [result.outputs for result in passes]
        validation = replay_module.validate_replay(
            self.trace, self.config, reports[0])
        check_replays(tally, reports, validation)
        self.digests = [f"{s.shard}:{s.hits}/{s.requests}"
                        for s in reports[0].per_shard]

    def describe(self) -> dict:
        return {"requests": len(self.trace),
                "capacity_bytes": self.config.capacity_bytes,
                "shards": self.SHARDS,
                "latency_sample_every": self.config.latency_sample_every}


WORKLOADS = {cls.name: cls for cls in (PaperGrid, LruLadder, ReplayLru)}
