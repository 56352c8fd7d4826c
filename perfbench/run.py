"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time, then again with the layer
wrappers installed, and prints the per-layer breakdown plus the
tracing overhead (traced minus untraced end-to-end numbers).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (host
fingerprint, trace sizes, every pass, check failures, the layer map,
and in traced runs every span) goes to ``.perfbench-out/``.

See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import mean, median, quantiles
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from checks import CheckTally  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402

#: End-to-end metrics: (name, unit).  Every workload reports all six.
END_TO_END = (
    ("setup_s", "s"),
    ("cell_req_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
)
#: Set-up runs this many times per measured run; setup_s is the median.
SETUP_REPEATS = 3
OUT_DIR = ROOT / ".perfbench-out"
#: The calibration loop's length, and its time on the host the
#: benchmark was defined on (2-core x86_64 VM, CPython 3.11, in a fast
#: phase).  Shared hosts drift in speed by up to ~1.6x over minutes,
#: far beyond any useful regression bound; time metrics are scaled by
#: ``REFERENCE_CALIBRATION_S / mean(calibration times)`` of their own
#: run, so they read as if measured on that host.
CALIBRATION_STEPS = 200_000
REFERENCE_CALIBRATION_S = 0.025


def calibrate() -> float:
    """Time one fixed interpreter-bound loop (dict reads and writes,
    like the simulators' hot loops)."""
    started = perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for step in range(CALIBRATION_STEPS):
        key = step & 1023
        total += table.get(key, 0)
        table[key] = step
    return perf_counter() - started


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_hash(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "git": git_hash(ROOT)}


def end_to_end(setups: List[float], passes: List[PassResult],
               rss_mb: float, speed: float) -> Dict[str, float]:
    """The end-to-end metrics of one measured run, with times
    multiplied by ``speed`` (the run's calibrated host speed, see
    :data:`REFERENCE_CALIBRATION_S`).

    Rates are all passes' work over their total wall time; set-up and
    latency are medians.
    """
    seconds = sum(p.seconds for p in passes)
    values = {
        "setup_s": median(setups) * speed,
        "cell_req_per_s": sum(p.cell_requests for p in passes)
                          / seconds / speed,
        "req_per_s": sum(p.requests for p in passes) / seconds / speed,
        "peak_rss_mb": rss_mb,
    }
    if passes[0].latency_us is not None:
        p50 = median(p.latency_us["p50"] for p in passes)
        p99 = median(p.latency_us["p99"] for p in passes)
    else:
        # A grid answers no request on its own: a request's service
        # time is its share of the pass, one sample per pass.
        per_request = [p.seconds / p.requests * 1e6 for p in passes]
        p50 = median(per_request)
        p99 = (quantiles(per_request, n=100, method="inclusive")[98]
               if len(per_request) > 1 else per_request[0])
    values["latency_p50_us"] = p50 * speed
    values["latency_p99_us"] = p99 * speed
    return values


def latency_samples(passes: List[PassResult]) -> str:
    first = passes[0]
    if first.latency_us is not None:
        return (f"{first.latency_samples} sampled requests per replay "
                f"({first.latency_samples // 100} above p99), median "
                f"over {len(passes)} replays")
    return f"{len(passes)} passes (one sample each)"


def measure(cls, seed: int, seconds: float, scale: float, workdir: Path,
            tally: CheckTally, tracer: Optional[Tracer] = None):
    """Set up ``SETUP_REPEATS`` times, then run passes for ``seconds``.

    Returns ``(workload, setup times, passes, peak RSS, calibration
    times)``; the caller checks the passes and closes the workload.
    The calibration loop runs before every set-up and every pass.
    """
    def scope(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    setups = []
    calibrations = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = cls(seed, scale, workdir)
        calibrations.append(calibrate())
        with scope("setup"):
            started = perf_counter()
            workload.setup()
            prepared = workload.prepare()
            setups.append(perf_counter() - started)
    passes: List[PassResult] = []
    deadline = perf_counter() + seconds
    while True:
        calibrations.append(calibrate())
        try:
            with scope("pass"):
                passes.append(workload.run_pass(prepared))
        except Exception:
            tally.fail_all(workload.outputs_per_pass,
                           f"pass {len(passes)} raised:\n"
                           + traceback.format_exc())
            break
        if perf_counter() >= deadline:
            break
        prepared = workload.prepare()
    return workload, setups, passes, peak_rss_mb(), calibrations


def conclude(measured, tally: CheckTally) -> dict:
    """Check a measured run's outputs, then release its inputs (so the
    next run's peak RSS does not include them)."""
    workload, setups, passes, rss_mb, calibrations = measured
    try:
        if not passes:
            raise RuntimeError("no pass completed:\n"
                               + "\n".join(tally.reasons))
        workload.check(passes, tally)
        # The mean, not the median: a pass spans the host's fast and
        # slow phases in proportion, and so does the mean.
        speed = REFERENCE_CALIBRATION_S / mean(calibrations)
        return {
            "end_to_end": end_to_end(setups, passes, rss_mb, speed),
            "raw_end_to_end": end_to_end(setups, passes, rss_mb, 1.0),
            "host_speed": speed,
            "calibrations_s": calibrations,
            "latency_samples": latency_samples(passes),
            "inputs": workload.describe(),
            "digests": workload.digests,
            "setups_s": setups,
            "passes": [{"seconds": p.seconds, "requests": p.requests,
                        "cell_requests": p.cell_requests,
                        "latency_us": p.latency_us} for p in passes],
        }
    finally:
        workload.close()


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> dict:
    """Run one workload; returns the result line's object."""
    cls = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    tally = CheckTally()
    tracer = Tracer() if trace else None
    budget = seconds / 2 if trace else seconds
    try:
        untraced = conclude(measure(cls, seed, budget, scale, workdir,
                                    tally), tally)
        if tracer is not None:
            with tracer.installed():
                measured = measure(cls, seed, budget, scale, workdir,
                                   tally, tracer)
            traced = conclude(measured, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": name, "why": cls.why, "seed": seed,
              "seconds": seconds, "trace": trace, "scale": scale,
              "host": host_fingerprint(), "units": dict(END_TO_END),
              **untraced}
    values = untraced["end_to_end"]
    lines = [f"workload {name} seed {seed}: {cls.why}",
             f"host {json.dumps(record['host'], sort_keys=True)}",
             f"inputs {json.dumps(record['inputs'], sort_keys=True)}",
             f"latency samples: {untraced['latency_samples']}",
             f"host speed {untraced['host_speed']:.4f} (reference / "
             "measured calibration loop time; time metrics are scaled "
             "by it, raw values are in the record)"]
    if tracer is None:
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in END_TO_END}
        for key, unit in END_TO_END:
            lines.append(f"  {key:<16} {_format(values[key]):>14} {unit}")
    else:
        layers = layer_metrics(tracer)
        metrics = {}
        lines.append("  layer metric                   value  unit   "
                     "-> moves           on")
        for metric in LAYER_METRICS:
            value = layers[metric.name]
            metrics[metric.name] = {"value": value, "unit": metric.unit}
            lines.append(
                f"  {metric.name:<26} {_format(value):>12}  "
                f"{metric.unit:<6} -> {metric.moves:<15} "
                f"{','.join(metric.workloads)}")
        lines.append("  tracing overhead     untraced        traced   "
                     "traced-untraced")
        traced_values = traced["end_to_end"]
        for key, unit in END_TO_END:
            delta = traced_values[key] - values[key]
            metrics[f"tracing.{key}.delta"] = {"value": delta,
                                               "unit": unit}
            lines.append(f"  {key:<16} {_format(values[key]):>12} "
                         f"{_format(traced_values[key]):>12} "
                         f"{_format(delta):>12} {unit}")
        record["traced"] = traced
        record["layer_metrics"] = layers
        record["layer_map"] = [
            {"metric": m.name, "layer": m.layer, "moves": m.moves,
             "workloads": list(m.workloads)} for m in LAYER_METRICS]
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()) + "\n")
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    lines.append(f"  fail_ratio {tally.fail_ratio} ({tally.failed} of "
                 f"{tally.attempted} outputs failed their checks)")
    lines.extend(f"  FAILED {reason}" for reason in tally.reasons[:20])
    record.update({"fail_ratio": tally.fail_ratio,
                   "failures": tally.reasons})
    record_path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append(f"record written to {record_path.relative_to(ROOT)}")
    print("\n".join(lines))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with "
                               f"{child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
