"""Single-cache policy goldens: every registry policy, replayed exactly.

``data/golden_policies.json`` (see ``gen_policy_goldens.py``) pins the
per-cell counters of each registry policy at three paper cache sizes on
the DFN-like and RTP-like traces.  Any change to a policy's eviction
order — including one inside the shared heap, which the engine
equivalence matrices cannot see — shows up here as a counter mismatch.
"""

import json
from pathlib import Path

import pytest

from repro.simulation.simulator import simulate

from tests.simulation.gen_policy_goldens import cell_record

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_policies.json").read_text())


@pytest.fixture(scope="session")
def golden_traces(tiny_dfn_trace, tiny_rtp_trace):
    """The goldens were generated at the shared fixtures' scale."""
    traces = {"dfn": tiny_dfn_trace, "rtp": tiny_rtp_trace}
    assert GOLDEN["meta"]["trace_scale"] == 1.0 / 512.0
    for name, trace in traces.items():
        assert GOLDEN["meta"]["traces"][name]["requests"] == len(trace)
    return traces


def test_golden_covers_every_policy():
    from repro.core.registry import POLICY_NAMES

    policies = {key.split("|")[1] for key in GOLDEN["cells"]}
    assert policies == set(POLICY_NAMES)
    assert len(GOLDEN["cells"]) == len(POLICY_NAMES) * 3 * 2


@pytest.mark.parametrize("key", sorted(GOLDEN["cells"]))
def test_cell(key, golden_traces):
    trace_name, policy, fraction = key.split("|")
    capacity = GOLDEN["meta"]["traces"][trace_name]["capacity_bytes"][
        fraction]
    result = simulate(golden_traces[trace_name], policy, capacity)
    assert cell_record(result) == GOLDEN["cells"][key]
