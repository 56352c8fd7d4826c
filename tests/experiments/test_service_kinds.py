"""The service's trial kinds side by side: one protocol, one condition.

Classic, network and serving trials share one queue and one store.  A
report, a regression check or an HTML panel must therefore compare
trials only within one *condition* — everything in the spec but the
policy and the seed — or results of different kinds silently overwrite
each other.
"""

import json

import pytest

from repro.errors import ServiceError
from repro.experiments.htmlreport import _store_groups
from repro.experiments.regress import build_parser as regress_parser
from repro.experiments.regress import collect_samples
from repro.experiments.service import (
    NetworkTrialSpec,
    ServingTrialSpec,
    TrialSpec,
    _WorkerTraceCache,
    build_parser,
    build_report,
    execute_serving_trial,
    main,
    open_service,
    work,
)

TINY = 1 / 512
SHARED = dict(trace="dfn", scale=TINY, policy="lru", size_fraction=0.01,
              seed=42)

#: One valid spec per kind; each kind's own fields on top of SHARED.
KINDS = {
    "classic": (TrialSpec, {}),
    "network": (NetworkTrialSpec, dict(topology="two-level",
                                       strategy="lce", n=3)),
    "serving": (ServingTrialSpec, dict(shards=2)),
}


def make(kind, **overrides):
    cls, extra = KINDS[kind]
    return cls(**{**SHARED, **extra, **overrides})


@pytest.fixture(scope="module")
def mixed_store(tmp_path_factory):
    """Four trials that agree on trace/scale/policy/fraction/seed."""
    queue, store = open_service(tmp_path_factory.mktemp("mixed") / "svc")
    for spec in (make("classic"), make("serving"),
                 make("network", n=2), make("network", n=4)):
        queue.enqueue(spec.as_dict())
    assert work(queue, store, git_hash="mixed") == 4
    return store


class TestMixedKindConditions:
    def test_regress_keeps_every_condition(self, mixed_store):
        assert len(collect_samples(mixed_store)) == 4

    def test_html_groups_keep_every_payload(self, mixed_store):
        payloads = [payload
                    for group in _store_groups(mixed_store).values()
                    for by_policy in group.values()
                    for seeds in by_policy.values()
                    for payload in seeds.values()]
        assert len(payloads) == 4

    def test_report_renders_one_group_per_condition(self, mixed_store):
        report = build_report(mixed_store)
        assert len(report.data["groups"]) == 4
        headers = [line for line in report.text.splitlines()
                   if line.startswith("== ")]
        assert len(headers) == 4
        network = [line for line in headers if "topology=" in line]
        assert any(" n=2 " in line for line in network)
        assert any(" n=4 " in line for line in network)
        assert any(" shards=2 " in line for line in headers)


class TestKindValidation:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("field,value,match", [
        ("trace", "nonsense", "trace"),
        ("size_fraction", 0.0, "size_fraction"),
        ("size_fraction", 1.5, "size_fraction"),
        ("scale", -1.0, "scale"),
    ])
    def test_shared_checks(self, kind, field, value, match):
        with pytest.raises(ServiceError, match=match):
            make(kind, **{field: value})

    @pytest.mark.parametrize("kind,field,value,match", [
        ("network", "topology", "torus", "topology"),
        ("network", "strategy", "mcd", "strategy"),
        ("network", "n", 0, "n must"),
        ("serving", "shards", 0, "shards must"),
    ])
    def test_kind_checks(self, kind, field, value, match):
        with pytest.raises(ServiceError, match=match):
            make(kind, **{field: value})

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_from_dict_roundtrip(self, kind):
        spec = make(kind)
        assert type(spec).from_dict(spec.as_dict()) == spec

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_from_dict_rejects_malformed(self, kind):
        cls, _ = KINDS[kind]
        with pytest.raises(ServiceError, match="malformed"):
            cls.from_dict({"trace": "dfn"})
        bad = dict(make(kind).as_dict(), seed="not-a-number")
        with pytest.raises(ServiceError, match="malformed"):
            cls.from_dict(bad)


class TestServingTrials:
    def test_payload_deterministic(self):
        spec = make("serving")
        first = execute_serving_trial(spec)
        assert first == execute_serving_trial(spec)
        assert first["spec"] == spec.as_dict()
        assert sorted(first["shard_hit_rates"]) == ["shard-0", "shard-1"]
        assert 0.0 <= first["hit_rate"] <= 1.0

    def test_dispatched_by_worker(self, tmp_path):
        queue, store = open_service(tmp_path / "svc")
        spec = make("serving")
        queue.enqueue(spec.as_dict())
        assert work(queue, store, git_hash="serving") == 1
        (record,) = store.records().values()
        assert record["payload"] == execute_serving_trial(spec)

    def test_columnar_worker_generates_each_trace_once(
            self, tmp_path, monkeypatch):
        import repro.experiments.service as service

        calls = []
        generate = _WorkerTraceCache._generate

        def counting(trace, scale, seed):
            calls.append((trace, scale, seed))
            return generate(trace, scale, seed)

        monkeypatch.setattr(_WorkerTraceCache, "_generate",
                            staticmethod(counting))
        monkeypatch.setattr(service, "_TRACES", _WorkerTraceCache())
        monkeypatch.setenv("REPRO_TRACE_FORMAT", "columnar")
        monkeypatch.setenv("REPRO_SERVICE_TRACE_DIR",
                           str(tmp_path / "traces"))
        lru = execute_serving_trial(make("serving"))
        gdsf = execute_serving_trial(make("serving", policy="gdsf(1)"))
        assert lru["spec"]["policy"] != gdsf["spec"]["policy"]
        assert len(calls) == 1


class TestRegressVerb:
    def test_same_flags_as_module_form(self):
        def flags(parser):
            return {option for action in parser._actions
                    for option in action.option_strings}

        service_parser = build_parser()
        verbs = next(action for action in service_parser._actions
                     if action.dest == "verb")
        assert flags(verbs.choices["regress"]) == \
            flags(regress_parser()) - {"--root"}

    def test_metric_filters_verdicts(self, tmp_path, capsys):
        root = tmp_path / "svc"
        _, store = open_service(root)
        spec = make("classic")
        for git_hash, base in (("base", 0.5), ("cand", 0.4)):
            for seed in range(5):
                rate = base + 0.01 * seed
                store.append(spec.config_key(), git_hash, seed, {
                    "spec": dict(spec.as_dict(), seed=seed),
                    "hit_rate": rate, "byte_hit_rate": rate / 2,
                    "type_hit_rates": {"image": rate}})
        assert main(["--root", str(root), "regress", "--baseline",
                     "base", "--candidate", "cand", "--metric",
                     "hit_rate", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [v["metric"] for v in data["verdicts"]] == ["hit_rate"]
        assert data["summary"]["regressed"] == 1
