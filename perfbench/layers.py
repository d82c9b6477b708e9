"""Per-layer metrics from a traced run.

:class:`LayerTrace` wraps the public entry points of each layer (the
repo's modules) in spans, zeroes the program's own ``repro.obs`` registry
at the start of the window and reads its counters and histograms at the
end, and turns both into the per-layer metrics listed in README.md.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core import BatchLookup, ChiselLPM
from repro.obs import get_registry
from repro.replicate import ReplicationCoordinator
from repro.router import ForwardingEngine
from repro.serve import SnapshotRouter
from repro.shard import ShardCoordinator
from repro.store import SnapshotStore

from .percentiles import TooFewSamples, percentile
from .spans import SpanStats, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .workloads import Plane, Run

#: name -> unit for every per-layer metric, in report order.
UNITS: Dict[str, str] = {
    "core.batch_calls": "count",
    "core.batch_us_per_call": "us",
    "core.batch_ns_per_key": "ns",
    "core.scalar_lookups": "count",
    "core.scalar_us_per_lookup": "us",
    "core.update_us": "us",
    "core.words_written_per_update": "count",
    "router.update_self_us": "us",
    "serve.overlay_key_frac": "ratio",
    "serve.lookup_self_us_per_call": "us",
    "serve.update_self_us": "us",
    "serve.recompiles": "count",
    "serve.recompile_ms": "ms",
    "serve.recompile_retry_frac": "ratio",
    "serve.lock_hold_p99_us": "us",
    "store.append_us": "us",
    "store.fsyncs_per_update": "count",
    "store.fsync_us": "us",
    "store.checkpoints": "count",
    "store.checkpoint_ms": "ms",
    "store.checkpoint_bytes": "B",
    "store.replay_ms": "ms",
    "store.updates_replayed": "count",
    "store.recover_s": "s",
    "store.disk_bytes_per_update": "B",
    "shard.lookup_self_us_per_call": "us",
    "shard.worker_batch_us": "us",
    "shard.publishes": "count",
    "shard.publish_ms": "ms",
    "shard.publish_discard_frac": "ratio",
    "shard.overlay_patched_frac": "ratio",
    "replicate.update_self_us": "us",
    "replicate.records_streamed": "count",
    "replicate.recon_sessions": "count",
    "replicate.resyncs": "count",
    "replicate.lag_p50_ms": "ms",
    "replicate.lag_p90_ms": "ms",
    "replicate.lag_resolution_ms": "ms",
    "replicate.wire_bytes_per_update": "B",
    "bench.sched_late_p99_ms": "ms",
    "bench.backlog_max": "count",
    "bench.trace_overhead_frac": "ratio",
}


def _keys(_self: Any, keys: Any, *_args: Any, **_kwargs: Any) -> int:
    return len(keys)


#: (owner, attribute, span name, items) for every traced entry point.
ENTRY_POINTS: List[Tuple[object, str, str, Optional[Callable[..., int]]]] = [
    (BatchLookup, "lookup_batch", "core.batch", _keys),
    (ChiselLPM, "lookup", "core.scalar", None),
    (ChiselLPM, "announce", "core.update", None),
    (ChiselLPM, "withdraw", "core.update", None),
    (ForwardingEngine, "announce", "router.update", None),
    (ForwardingEngine, "withdraw", "router.update", None),
    (SnapshotRouter, "lookup_batch", "serve.lookup", _keys),
    (SnapshotRouter, "announce", "serve.update", None),
    (SnapshotRouter, "withdraw", "serve.update", None),
    (SnapshotRouter, "recompile", "serve.recompile", None),
    (SnapshotStore, "checkpoint", "store.checkpoint", None),
    (os, "fsync", "store.fsync", None),
    (ShardCoordinator, "lookup_batch", "shard.lookup", _keys),
    (ShardCoordinator, "publish", "shard.publish", None),
    (ReplicationCoordinator, "announce", "replicate.update", None),
    (ReplicationCoordinator, "withdraw", "replicate.update", None),
]

_COUNTERS = ("serve_recompile_retries_total", "shard_publish_discards_total",
             "shard_overlay_patched_total", "shard_lookups_total",
             "repl_records_streamed_total")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tail(samples: List[float], q: float) -> float:
    """Percentile when enough samples exist, else 0 (the layer idled)."""
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return 0.0


class LayerTrace:
    """Spans at every layer boundary plus program counters, per window."""

    def __init__(self, tracer: Tracer, plane: "Plane"):
        self.tracer = tracer
        self.plane = plane
        self._journal: Any = None

    def install(self) -> None:
        for owner, attribute, name, items in ENTRY_POINTS:
            self.tracer.patch(owner, attribute, name, items)
        router = self.plane.router
        assert router is not None
        journal = router.journal
        if journal is not None:
            # The journal hook is the store's append (churn-durable) or
            # the replication journal (scaleout).
            owner = getattr(journal, "__self__", None)
            name = ("store.append" if isinstance(owner, SnapshotStore)
                    else "replicate.journal")
            self._journal = journal
            router.set_journal(self.tracer.wrap(name, journal))

    def uninstall(self) -> None:
        self.tracer.unpatch_all()
        if self._journal is not None:
            assert self.plane.router is not None
            self.plane.router.set_journal(self._journal)
            self._journal = None

    def begin(self, run: "Run") -> None:
        """Zero the program's registry and read its other counters at the
        start of the window."""
        router = self.plane.router
        assert router is not None
        self.tracer.reset()
        # The program only writes the registry, so zeroing it is harmless.
        get_registry().reset()
        self._words = router.fib.engine.words_written()
        self._served = (router.metrics.lookups_served,
                        router.metrics.overlay_lookups)
        repl = getattr(self.plane, "repl", None)
        self._repl = ((repl.recon_sessions, repl.resyncs)
                      if repl is not None else (0, 0))

    def end(self) -> None:
        """Read the program's counters at the end of the window, before
        the end-of-run checks add their own lookups."""
        router = self.plane.router
        assert router is not None
        registry = get_registry()
        self._counters = {name: registry.value(name) for name in _COUNTERS}
        lock = registry.get("serve_lock_hold_seconds")
        self._lock_p99 = lock.quantile(0.99) if lock is not None else 0.0
        worker = registry.get("shard_worker_batch_seconds")
        self._worker = ((worker.sum, worker.count) if worker is not None
                        else (0.0, 0))
        self._words = router.fib.engine.words_written() - self._words
        self._served = (router.metrics.lookups_served - self._served[0],
                        router.metrics.overlay_lookups - self._served[1])

    def metrics(self, run: "Run", overhead: float) -> Dict[str, float]:
        """Every per-layer metric; call after :meth:`end` and the
        end-of-run checks (which supply the store and replica facts)."""
        by_name, by_parent = self.tracer.summarize()
        counter = self._counters
        worker_sum, worker_count = self._worker

        def span(name: str) -> SpanStats:
            return by_name.get(name, SpanStats())

        def under(name: str, *parents: str) -> SpanStats:
            total = SpanStats()
            for parent in parents:
                part = by_parent.get((name, parent))
                if part is not None:
                    total.calls += part.calls
                    total.total += part.total
                    total.self_time += part.self_time
                    total.items += part.items
            return total

        batch = span("core.batch")
        scalar = under("core.scalar", "serve.lookup", "shard.lookup")
        serve_update = span("serve.update")
        recompile = span("serve.recompile")
        append = span("store.append")
        fsync = under("store.fsync", "store.append")
        checkpoint = span("store.checkpoint")
        shard = span("shard.lookup")
        publish = span("shard.publish")
        repl_update = span("replicate.update")
        repl_journal = span("replicate.journal")
        retries = counter["serve_recompile_retries_total"]
        discards = counter["shard_publish_discards_total"]
        served, overlay = self._served
        facts = self.plane.facts
        lags = [1e3 * lag for lag in facts.get("lag_samples", [])]
        repl = getattr(self.plane, "repl", None)
        sched = run.sched
        if batch.items:
            ns_per_key = 1e9 * batch.self_time / batch.items
        else:
            # scaleout: the datapath runs in the shard worker, which
            # reports its serve time per batch slice.
            ns_per_key = 1e9 * _ratio(worker_sum,
                                      counter["shard_lookups_total"])
        return {
            "core.batch_calls": batch.calls,
            "core.batch_us_per_call": 1e6 * _ratio(batch.self_time,
                                                   batch.calls),
            "core.batch_ns_per_key": ns_per_key,
            "core.scalar_lookups": scalar.calls,
            "core.scalar_us_per_lookup": 1e6 * _ratio(scalar.total,
                                                      scalar.calls),
            "core.update_us": 1e6 * _ratio(span("core.update").total,
                                           span("core.update").calls),
            "core.words_written_per_update": _ratio(self._words, run.acks),
            "router.update_self_us": 1e6 * _ratio(
                span("router.update").self_time, span("router.update").calls),
            "serve.overlay_key_frac": _ratio(overlay, served),
            "serve.lookup_self_us_per_call": 1e6 * _ratio(
                span("serve.lookup").self_time, span("serve.lookup").calls),
            "serve.update_self_us": 1e6 * _ratio(serve_update.self_time,
                                                 serve_update.calls),
            "serve.recompiles": recompile.calls,
            "serve.recompile_ms": 1e3 * _ratio(recompile.total,
                                               recompile.calls),
            "serve.recompile_retry_frac": _ratio(retries,
                                                 recompile.calls + retries),
            "serve.lock_hold_p99_us": 1e6 * self._lock_p99,
            "store.append_us": 1e6 * _ratio(append.total, append.calls),
            "store.fsyncs_per_update": _ratio(fsync.calls, append.calls),
            "store.fsync_us": 1e6 * _ratio(fsync.total, fsync.calls),
            "store.checkpoints": checkpoint.calls,
            "store.checkpoint_ms": 1e3 * _ratio(checkpoint.total,
                                                checkpoint.calls),
            "store.checkpoint_bytes": facts.get("checkpoint_bytes", 0.0),
            "store.replay_ms": facts.get("replay_ms", 0.0),
            "store.updates_replayed": facts.get("updates_replayed", 0),
            "store.recover_s": facts.get("recover_s", 0.0),
            "store.disk_bytes_per_update": facts.get(
                "disk_bytes_per_update", 0.0),
            "shard.lookup_self_us_per_call": 1e6 * _ratio(
                shard.self_time - worker_sum, shard.calls),
            "shard.worker_batch_us": 1e6 * _ratio(worker_sum, worker_count),
            "shard.publishes": publish.calls,
            "shard.publish_ms": 1e3 * _ratio(publish.total, publish.calls),
            "shard.publish_discard_frac": _ratio(discards,
                                                 publish.calls + discards),
            "shard.overlay_patched_frac": _ratio(
                counter["shard_overlay_patched_total"],
                counter["shard_lookups_total"]),
            "replicate.update_self_us": 1e6 * _ratio(
                repl_update.self_time + repl_journal.self_time,
                repl_update.calls),
            "replicate.records_streamed": counter[
                "repl_records_streamed_total"],
            "replicate.recon_sessions": (repl.recon_sessions - self._repl[0]
                                         if repl is not None else 0),
            "replicate.resyncs": (repl.resyncs - self._repl[1]
                                  if repl is not None else 0),
            "replicate.lag_p50_ms": _tail(lags, 50),
            "replicate.lag_p90_ms": _tail(lags, 90),
            "replicate.lag_resolution_ms": facts.get("poll_p50_ms", 0.0),
            "replicate.wire_bytes_per_update": facts.get(
                "wire_bytes_per_update", 0.0),
            "bench.sched_late_p99_ms": 1e3 * _tail(sched.lateness, 99),
            "bench.backlog_max": sched.backlog_max,
            "bench.trace_overhead_frac": overhead,
        }
