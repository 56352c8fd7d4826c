"""Retrieval cost models (paper Section 3).

Two cost models parameterize the Greedy-Dual family:

* **constant cost** ``c(p) = 1`` — every retrieval costs the same; a
  policy maximizing saved cost then maximizes the *hit rate* (the
  institutional-proxy objective);
* **packet cost** ``c(p) = 2 + s(p) / 536`` — retrieval cost is the TCP
  packet count (SYN + request packet plus one 536-byte MSS segment per
  payload chunk); maximizing saved packets approximates maximizing the
  *byte hit rate* (the backbone-proxy objective).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError

#: Default TCP maximum segment size used by the packet cost model.
DEFAULT_MSS = 536


class CostModel(ABC):
    """Maps a document size to a retrieval cost."""

    name: str = "abstract"
    #: Short tag used in policy display names: GDS(1) vs GDS(P).
    tag: str = "?"

    @abstractmethod
    def cost(self, size: int) -> float:
        """Retrieval cost of a document of ``size`` bytes."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class ConstantCost(CostModel):
    """c(p) = constant (default 1)."""

    name = "constant"
    tag = "1"

    def __init__(self, value: float = 1.0):
        if value <= 0:
            raise ConfigurationError("constant cost must be positive")
        self.value = value

    def cost(self, size: int) -> float:
        return self.value


class PacketCost(CostModel):
    """c(p) = 2 + s(p) / mss, the paper's TCP packet count.

    ``ceil_packets=True`` rounds the payload term up to whole packets;
    the paper's formula is the plain quotient, which is the default.
    """

    name = "packet"
    tag = "P"

    def __init__(self, mss: int = DEFAULT_MSS, ceil_packets: bool = False):
        if mss <= 0:
            raise ConfigurationError("mss must be positive")
        self.mss = mss
        self.ceil_packets = ceil_packets

    def cost(self, size: int) -> float:
        payload = size / self.mss
        if self.ceil_packets:
            payload = math.ceil(payload)
        return 2.0 + payload


class ByteCost(CostModel):
    """c(p) = s(p): saved cost equals saved bytes exactly.

    Not in the paper; included because GDS with byte cost degenerates to
    a pure recency policy (c/s = 1 for all documents), a useful sanity
    baseline for tests and ablations.
    """

    name = "byte"
    tag = "B"

    def cost(self, size: int) -> float:
        return float(size)


class LatencyCost(CostModel):
    """c(p) = rtt + s(p) / bandwidth: estimated download time.

    The latency-optimizing member of Cao & Irani's cost-function
    family: a Greedy-Dual policy under this model minimizes user-
    perceived delay rather than request count or traffic.  Defaults
    model a 2001-era WAN path (70 ms RTT, 1.5 Mbit/s ≈ 187 KB/s).
    """

    name = "latency"
    tag = "L"

    def __init__(self, rtt_seconds: float = 0.070,
                 bandwidth_bytes_per_second: float = 187_500.0):
        if rtt_seconds <= 0:
            raise ConfigurationError("rtt_seconds must be positive")
        if bandwidth_bytes_per_second <= 0:
            raise ConfigurationError("bandwidth must be positive")
        self.rtt_seconds = rtt_seconds
        self.bandwidth = bandwidth_bytes_per_second

    def cost(self, size: int) -> float:
        return self.rtt_seconds + size / self.bandwidth


def make_cost_model(name: str) -> CostModel:
    """Build a cost model from its name ("constant"/"1", "packet"/"p")."""
    key = name.strip().lower()
    if key in ("constant", "const", "1"):
        return ConstantCost()
    if key in ("packet", "packets", "p"):
        return PacketCost()
    if key in ("byte", "bytes", "b"):
        return ByteCost()
    if key in ("latency", "l"):
        return LatencyCost()
    raise ConfigurationError(f"unknown cost model: {name!r}")
