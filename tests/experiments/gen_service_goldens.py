"""Regenerate the pinned experiment-service goldens.

Run from the repo root::

    PYTHONPATH=src python tests/experiments/gen_service_goldens.py

``data/golden_service.json`` pins two things that must survive any
refactor of the service's trial kinds:

* for one tiny spec of each kind (classic, network, serving): its
  ``config_key()``, its queue trial id and the sha256 of the canonical
  JSON payload a worker stores for it — so existing stores and queues
  keep resolving to the same hashes and bytes;
* over a fixed classic-only store holding two git revisions: the
  ``build_report`` text, and the ``detect_regressions`` JSON and table.

``test_service_goldens.py`` recomputes all of them and asserts exact
equality.  Regenerating is only legitimate when the workload generator
or a policy changes, never to paper over a spec, dispatch or report
difference.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.experiments.queue import trial_id_for
from repro.experiments.regress import detect_regressions
from repro.experiments.service import (
    NetworkTrialSpec,
    ServingTrialSpec,
    TrialSpec,
    build_report,
    open_service,
    work,
)
from repro.experiments.store import ResultsStore, canonical_json

DATA_FILE = Path(__file__).parent / "data" / "golden_service.json"

TINY = 1.0 / 512.0

#: One tiny spec per trial kind, as constructor keywords.
KIND_SPECS = {
    "classic": (TrialSpec, dict(trace="dfn", scale=TINY,
                                policy="gds(1)", size_fraction=0.01,
                                seed=42)),
    "network": (NetworkTrialSpec, dict(trace="dfn", scale=TINY,
                                       topology="two-level",
                                       strategy="lcd", policy="lru",
                                       size_fraction=0.01, seed=42,
                                       n=3)),
    "serving": (ServingTrialSpec, dict(trace="rtp", scale=TINY,
                                       policy="lru", size_fraction=0.02,
                                       seed=7, shards=2)),
}

#: The classic-only fixture store: two revisions, one of which drops
#: ``lru``'s hit rate on dfn at 1% by ten points.
BASELINE, CANDIDATE = "base1111", "cand2222"
FIXTURE_SEEDS = (0, 1, 2, 3, 4)


def kind_specs():
    return {kind: cls(**kwargs)
            for kind, (cls, kwargs) in KIND_SPECS.items()}


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


def executed_payloads(root: Path) -> dict:
    """Run every kind's spec through a real queue + worker; returns
    kind -> stored payload."""
    specs = kind_specs()
    queue, store = open_service(root)
    for spec in specs.values():
        queue.enqueue(spec.as_dict())
    work(queue, store, git_hash="golden")
    by_config = {key.config_hash: record["payload"]
                 for key, record in store.records().items()}
    return {kind: by_config[spec.config_key()]
            for kind, spec in specs.items()}


def populate_fixture_store(store: ResultsStore) -> None:
    """Deterministic synthetic classic records under two revisions."""
    for git_hash in (BASELINE, CANDIDATE):
        for t, trace in enumerate(("dfn", "rtp")):
            for p, policy in enumerate(("gds(1)", "lru")):
                for f, fraction in enumerate((0.01, 0.04)):
                    spec = TrialSpec(trace=trace, scale=TINY,
                                     policy=policy,
                                     size_fraction=fraction, seed=0)
                    for seed in FIXTURE_SEEDS:
                        rate = (0.30 + 0.05 * t + 0.04 * p + 0.1 * f
                                + 0.007 * ((seed * 3 + p) % 5))
                        if git_hash == CANDIDATE:
                            rate += 0.002 * (seed % 3)
                            if trace == "dfn" and policy == "lru" \
                                    and f == 0:
                                rate -= 0.1
                        store.append(spec.config_key(), git_hash, seed, {
                            "spec": dict(spec.as_dict(), seed=seed),
                            "capacity_bytes": 1000 * (f + 1),
                            "hit_rate": rate,
                            "byte_hit_rate": rate * 0.6,
                            "type_hit_rates": {
                                "image": rate + 0.02,
                                "html": rate - 0.02 * seed,
                            },
                        })


def fixture_outputs(store: ResultsStore) -> dict:
    regression = detect_regressions(store, baseline=BASELINE,
                                    candidate=CANDIDATE)
    return {
        "report_text": build_report(store).text,
        "regress_json": canonical_json(regression.as_dict()),
        "regress_text": regression.render(),
    }


def generate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        payloads = executed_payloads(Path(tmp) / "svc")
        store = ResultsStore(Path(tmp) / "fixture")
        populate_fixture_store(store)
        fixture = fixture_outputs(store)
    kinds = {}
    for kind, spec in kind_specs().items():
        kinds[kind] = {
            "spec": spec.as_dict(),
            "config_key": spec.config_key(),
            "trial_id": trial_id_for(spec.as_dict()),
            "payload_sha256": payload_digest(payloads[kind]),
        }
    DATA_FILE.parent.mkdir(parents=True, exist_ok=True)
    DATA_FILE.write_text(json.dumps({"kinds": kinds, "fixture": fixture},
                                    indent=1, sort_keys=True) + "\n")
    print(f"{len(kinds)} kinds pinned", file=sys.stderr)


if __name__ == "__main__":
    generate()
