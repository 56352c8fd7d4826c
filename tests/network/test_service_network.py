"""Network trials through the durable experiment service."""

import pytest

from repro.errors import ServiceError
from repro.experiments.service import (
    NetworkTrialSpec,
    TrialSpec,
    build_report,
    enqueue_grid,
    execute_network_trial,
    open_service,
    work,
)

TINY = 1 / 512


def make_spec(**overrides):
    base = dict(trace="dfn", scale=TINY, topology="two-level",
                strategy="lce", policy="lru", size_fraction=0.01,
                seed=42, n=3)
    base.update(overrides)
    return NetworkTrialSpec(**base)


class TestNetworkTrialSpec:
    def test_validation(self):
        with pytest.raises(ServiceError, match="trace"):
            make_spec(trace="nonsense")
        with pytest.raises(ServiceError, match="topology"):
            make_spec(topology="torus")
        with pytest.raises(ServiceError, match="strategy"):
            make_spec(strategy="mcd")
        with pytest.raises(ServiceError, match="size_fraction"):
            make_spec(size_fraction=0.0)
        with pytest.raises(ServiceError, match="n must"):
            make_spec(n=0)

    def test_from_dict_roundtrip(self):
        spec = make_spec()
        assert NetworkTrialSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ServiceError, match="malformed"):
            NetworkTrialSpec.from_dict({"trace": "dfn"})

    def test_config_key_groups_replicas_across_seeds(self):
        assert make_spec(seed=1).config_key() == \
            make_spec(seed=2).config_key()
        assert make_spec(strategy="lcd").config_key() != \
            make_spec(strategy="lce").config_key()

    def test_spec_dict_carries_topology_discriminator(self):
        """The worker dispatches on the ``topology`` key: network
        specs must carry it and classic specs must not."""
        assert "topology" in make_spec().as_dict()
        classic = TrialSpec(trace="dfn", scale=TINY, policy="lru",
                            size_fraction=0.01, seed=1)
        assert "topology" not in classic.as_dict()


class TestExecuteNetworkTrial:
    def test_payload_deterministic(self):
        spec = make_spec(topology="mesh", strategy="probcache")
        assert execute_network_trial(spec) == \
            execute_network_trial(spec)

    def test_payload_shape(self):
        payload = execute_network_trial(make_spec())
        assert payload["spec"] == make_spec().as_dict()
        assert payload["n_caches"] == 4           # 3 children + parent
        assert 0.0 <= payload["hit_rate"] <= 1.0
        assert 0.0 <= payload["edge_hit_rate"] <= payload["hit_rate"]
        assert "html" in payload["type_hit_rates"]
        assert any(key.startswith("html/")
                   for key in payload["placement_shares"])

    def test_seed_feeds_probcache(self):
        base = make_spec(topology="path", strategy="probcache")
        same = execute_network_trial(base)
        other = execute_network_trial(make_spec(
            topology="path", strategy="probcache", seed=1042))
        assert same["spec"] != other["spec"]
        assert same["hit_rate"] != other["hit_rate"]


class TestServiceRoundTrip:
    def test_enqueue_work_report(self, tmp_path):
        root = tmp_path / "svc"
        queue, store = open_service(root)
        ids = enqueue_grid(
            queue, traces=["dfn"], scale=TINY,
            topologies=["two-level", "mesh"], strategies=["lce"],
            policies=["lru"], size_fractions=[0.01], seeds=[42],
            n=3)
        assert len(ids) == 2
        # Enqueueing the same grid again is a no-op.
        assert enqueue_grid(
            queue, traces=["dfn"], scale=TINY,
            topologies=["two-level", "mesh"], strategies=["lce"],
            policies=["lru"], size_fractions=[0.01], seeds=[42],
            n=3) == ids
        # A classic trial shares the queue and store.
        enqueue_grid(queue, traces=["dfn"], scale=TINY,
                     policies=["lru"], size_fractions=[0.01],
                     seeds=[42])
        executed = work(queue, store, git_hash="testhash")
        assert executed == 3
        assert queue.status().pending == 0

        records = store.records()
        assert len(records) == 3
        topologies = {record["payload"]["spec"].get("topology")
                      for record in records.values()}
        assert topologies == {"two-level", "mesh", None}

        report = build_report(store)
        # Network and classic conditions land in separate groups.
        assert "topology=two-level strategy=lce" in report.text
        assert "topology=mesh strategy=lce" in report.text
        assert len(report.data["groups"]) == 3
