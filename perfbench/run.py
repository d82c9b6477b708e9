#!/usr/bin/env python3
"""Run one workload of the Chisel serving-stack benchmark.

    python3 perfbench/run.py --workload churn-durable --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  The line before it carries the details (sample
counts, host, failures).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: name -> unit for every end-to-end metric, in report order.  Timings
#: other than set-up are in host-calibration units (see calibration.py):
#: ``cal`` is one calibration-kernel duration; the name keeps the unit the
#: raw figure had, which the details line also reports.
END_TO_END = {
    "setup_s": "s",
    "lookups_per_s": "keys/cal",
    "batch_p50_us": "cal",
    "batch_p90_us": "cal",
    "update_p50_us": "cal",
    "update_p99_us": "cal",
    "storage_bits_per_prefix": "bit",
    "peak_rss_mb": "MB",
}


#: Updates per block of the update tail (see README.md).
UPDATE_BLOCK = 1000


def end_to_end(raw):
    """End-to-end metrics, their raw (uncalibrated) values, and the
    sample count behind each."""
    from perfbench.percentiles import blocked_percentile, percentile

    batches = raw["batch_cal"]
    updates = raw["update_cal"]
    values = {
        "setup_s": statistics.median(raw["setup_times"]),
        "lookups_per_s": raw["keys"] / raw["lookup_cal"],
        "batch_p50_us": percentile(batches, 50),
        "batch_p90_us": percentile(batches, 90),
        "update_p50_us": percentile(updates, 50),
        "update_p99_us": blocked_percentile(updates, 99, UPDATE_BLOCK),
        "storage_bits_per_prefix": raw["storage_bits_per_prefix"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    uncalibrated = {
        "calibration_us": 1e6 * raw["calibration_s"],
        "lookups_per_s": raw["keys"] / raw["lookup_seconds"],
        "batch_p50_us": 1e6 * percentile(raw["batch_latencies"], 50),
        "batch_p90_us": 1e6 * percentile(raw["batch_latencies"], 90),
        "update_p50_us": 1e6 * percentile(raw["update_latencies"], 50),
        "update_p99_us": 1e6 * blocked_percentile(raw["update_latencies"],
                                                  99, UPDATE_BLOCK),
    }
    samples = {
        "setup_s": len(raw["setup_times"]),
        "lookups_per_s": len(batches),
        "batch_p50_us": len(batches),
        "batch_p90_us": len(batches),
        "update_p50_us": len(updates),
        "update_p99_us": len(updates),
    }
    return values, uncalibrated, samples


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Teardown has already stopped the shard worker and the replica; any
    child still alive after a failed teardown is killed here.  Creating
    a shared-memory segment also starts multiprocessing's resource
    tracker, a process that would otherwise outlive the run by design.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def host():
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("read-burst", "churn-durable", "scaleout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still tears down its processes and segments.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program to measure: {source}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    from perfbench.layers import UNITS
    from perfbench.workloads import execute

    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        raw = execute(args.workload, args.seed, args.seconds,
                      bool(args.trace), workdir)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run's directory is still there

    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "host": host(),
               "failures": raw["failures"]}
    if args.trace:
        metrics = {name: {"value": float(raw["layers"][name]), "unit": unit}
                   for name, unit in UNITS.items()}
        out = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        raw["tracer"].write(os.path.join(out, f"spans-{args.workload}.txt"))
    else:
        values, details["uncalibrated"], details["samples"] = end_to_end(raw)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        details["setup_times"] = raw["setup_times"]
        details["rss_baseline_mb"] = raw["rss_baseline_mb"]
        details["facts"] = {key: value for key, value in raw["facts"].items()
                            if not isinstance(value, list)}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
