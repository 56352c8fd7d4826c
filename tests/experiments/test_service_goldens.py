"""Experiment-service goldens: hashes, payloads and reports, pinned.

``data/golden_service.json`` (see ``gen_service_goldens.py``) holds
each trial kind's config hash, queue trial id and stored-payload
digest, plus the report text and regression verdicts over a fixed
classic-only store.  A refactor of how specs are defined, dispatched or
grouped must leave every one of them byte-identical: that is what keeps
existing stores, queues and classic reports valid.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.queue import trial_id_for
from repro.experiments.store import ResultsStore

from tests.experiments.gen_service_goldens import (
    executed_payloads,
    fixture_outputs,
    kind_specs,
    payload_digest,
    populate_fixture_store,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_service.json").read_text())

KINDS = sorted(GOLDEN["kinds"])


def test_golden_covers_every_kind():
    assert KINDS == ["classic", "network", "serving"]


@pytest.mark.parametrize("kind", KINDS)
def test_spec_hashes_pinned(kind):
    spec = kind_specs()[kind]
    golden = GOLDEN["kinds"][kind]
    assert spec.as_dict() == golden["spec"]
    assert spec.config_key() == golden["config_key"]
    assert trial_id_for(spec.as_dict()) == golden["trial_id"]


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    return executed_payloads(tmp_path_factory.mktemp("golden") / "svc")


@pytest.mark.parametrize("kind", KINDS)
def test_stored_payload_pinned(kind, payloads):
    assert payload_digest(payloads[kind]) == \
        GOLDEN["kinds"][kind]["payload_sha256"]


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    store = ResultsStore(tmp_path_factory.mktemp("fixture") / "store")
    populate_fixture_store(store)
    return fixture_outputs(store)


@pytest.mark.parametrize("output", ["report_text", "regress_json",
                                    "regress_text"])
def test_classic_reports_pinned(fixture, output):
    assert fixture[output] == GOLDEN["fixture"][output]
