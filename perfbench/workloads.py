"""The three workloads and the client loop that drives them.

Each run is one client thread in one process (scaleout adds one helper
thread that polls the replica).  The client alternates a timed
``lookup_batch`` call, an untimed check of a fixed sample of its answers
against the reference LPM, the updates that have come due on the
open-loop schedule, and the inline maintenance the workload's planes
need (recompile, checkpoint, publish).
"""

from __future__ import annotations

import gc
import os
import statistics
import shutil
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.core.config import ChiselConfig
from repro.core.updates import ANNOUNCE
from repro.replicate import ReplicaHandle, ReplicationCoordinator, bootstrap
from repro.replicate.harness import HarnessError
from repro.replicate.replica import CMD_PROBE
from repro.router import ForwardingEngine
from repro.router.nexthop import NextHopInfo
from repro.serve import SnapshotRouter
from repro.shard import ShardCoordinator
from repro.store import SnapshotStore, cold_start

from . import layers
from .calibration import Calibration
from .inputs import Inputs, Reference, Update, make_inputs, probe_keys
from .openloop import OpenLoop
from .spans import Tracer

TABLE_SIZE = 100_000
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Bound on any wait for another process (replica catch-up, probes).
WAIT_SECONDS = 30.0


@dataclass(frozen=True)
class Shape:
    """What one workload sends."""

    batch_size: int
    pool_rows: int          # distinct batches cycled through
    check_keys: int         # answers checked per batch
    update_rate: float      # updates/s on the open-loop schedule, 0 = none
    #: Destination skew, an assumption rather than a measurement: no
    #: per-prefix traffic trace is available to fit it.  Zipf exponent
    #: 1.0 is the textbook form of a heavy-tailed popularity and a
    #: 2% unrouted share keeps the miss path in use without making it a
    #: workload of its own.
    zipf: Optional[float] = None
    unrouted_share: float = 0.0
    #: read-burst only: updates applied back to back after the read window
    after_updates: int = 0


SHAPES: Dict[str, Shape] = {
    "read-burst": Shape(batch_size=64, pool_rows=4096, check_keys=8,
                        update_rate=0.0, zipf=1.0, unrouted_share=0.02,
                        after_updates=15_000),
    "churn-durable": Shape(batch_size=20_000, pool_rows=32, check_keys=16,
                           update_rate=150.0),
    "scaleout": Shape(batch_size=20_000, pool_rows=32, check_keys=16,
                      update_rate=150.0),
}


class RunFailure(RuntimeError):
    """A check the benchmark makes on the program's behaviour failed."""


def resolve(fib: ForwardingEngine, ids: np.ndarray) -> List[Any]:
    resolve_id = fib.next_hops.resolve
    return [None if value < 0 else resolve_id(int(value)) for value in ids]


class DiskMeter:
    """Bytes written to a store directory, from the files' sizes.

    Logs only grow and checkpoints are written once, so the largest size
    seen for each file is what was written to it; the directory is
    polled around every maintenance call, before pruning can remove a
    file.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.sizes: Dict[str, int] = {}
        self.base: Dict[str, int] = {}

    def poll(self) -> None:
        for name in os.listdir(self.directory):
            size = os.path.getsize(os.path.join(self.directory, name))
            self.sizes[name] = max(self.sizes.get(name, 0), size)

    def start(self) -> None:
        self.poll()
        self.base = dict(self.sizes)

    def written(self) -> int:
        return sum(size - self.base.get(name, 0)
                   for name, size in self.sizes.items())

    def new_checkpoints(self) -> List[int]:
        return [size for name, size in self.sizes.items()
                if name.startswith("checkpoint-") and name not in self.base]


class Plane:
    """The serving planes one workload builds; subclasses fill them in."""

    def __init__(self, inputs: Inputs, workdir: str, index: int):
        self.inputs = inputs
        self.workdir = workdir
        self.index = index
        self.router: Optional[SnapshotRouter] = None
        self.facts: Dict[str, Any] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        assert self.router is not None
        return self.router.lookup_batch(keys)

    def announce(self, prefix, gateway: str, interface: str) -> None:
        assert self.router is not None
        self.router.announce(prefix, gateway, interface)

    def withdraw(self, prefix) -> None:
        assert self.router is not None
        self.router.withdraw(prefix)

    def maintain(self, run: "Run") -> None:
        assert self.router is not None
        self.router.maybe_recompile()

    def start_window(self, traced: bool) -> None:
        """Called when the timed window starts."""

    def acked(self) -> None:
        """Called after every acknowledged update."""

    def check_more(self, run: "Run", batch: int, keys: np.ndarray) -> int:
        """Check planes other than the one answering; returns mismatches."""
        return 0

    def finish(self, run: "Run") -> None:
        """End-of-run durability/convergence checks (counted as ops)."""

    def teardown(self) -> None:
        self.router = None


class InProcess(Plane):
    """read-burst: one ``SnapshotRouter`` in this process, no store."""

    def setup(self) -> None:
        fib = ForwardingEngine.from_table(self.inputs.table)
        self.router = SnapshotRouter(fib)


class Durable(Plane):
    """churn-durable: ``SnapshotRouter`` journaled by an fsynced store."""

    def setup(self) -> None:
        self.directory = os.path.join(self.workdir, f"store-{self.index}")
        fib = ForwardingEngine.from_table(self.inputs.table)
        self.router = SnapshotRouter(fib)
        self.store: Optional[SnapshotStore] = SnapshotStore.create(
            self.directory, self.router, sync=True)
        self.disk = DiskMeter(self.directory)

    def start_window(self, traced: bool) -> None:
        self.disk.start()

    def maintain(self, run: "Run") -> None:
        assert self.router is not None and self.store is not None
        self.router.maybe_recompile()
        with run.bookkeeping():
            self.disk.poll()
        if self.store.maybe_checkpoint():
            with run.bookkeeping():
                self.disk.poll()

    def finish(self, run: "Run") -> None:
        """Boot a fresh router from the store left unclosed, as after a
        crash, and check every acknowledged update on a probe key."""
        assert self.router is not None
        probe = probe_keys(run.applied, self.inputs.table.width,
                           np.random.default_rng(run.seed + 2))
        boot_fn = cold_start
        if run.tracer is not None:
            boot_fn = run.tracer.wrap("store.cold_start", cold_start)
        started = time.perf_counter()
        boot = boot_fn(self.directory)
        answers = boot.router.lookup_batch(probe)
        self.facts["recover_s"] = time.perf_counter() - started
        self.facts["replay_ms"] = boot.report.replay_seconds * 1e3
        self.facts["updates_replayed"] = boot.report.updates_replayed
        try:
            run.expect(resolve(boot.router.fib, answers), probe,
                       "cold start")
        finally:
            boot.store.close()
            if boot.checkpoint is not None:
                boot.checkpoint.close()
        written = self.disk.written()
        self.facts["disk_bytes_per_update"] = written / max(1, run.acks)
        sizes = self.disk.new_checkpoints()
        self.facts["checkpoint_bytes"] = (sum(sizes) / len(sizes)
                                          if sizes else 0.0)

    def teardown(self) -> None:
        if getattr(self, "store", None) is not None:
            self.store.close()
            self.store = None
        self.router = None
        shutil.rmtree(self.directory, ignore_errors=True)


class LagMonitor(threading.Thread):
    """Polls the replica's applied seq; times each acked update until
    the replica reports it."""

    def __init__(self, handle: ReplicaHandle, lock: threading.Lock):
        super().__init__(name="perfbench-lag", daemon=True)
        self.handle = handle
        self.lock = lock
        self.pending: deque = deque()   # (seq, ack time), client appends
        self.lags: List[float] = []
        self.polls: List[float] = []    # round trip of each status poll
        self.errors = 0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            sent = time.perf_counter()
            try:
                with self.lock:
                    seq = self.handle.status()["seq"]
            except HarnessError:  # the replica timed out or died
                self.errors += 1
                self._halt.wait(0.05)
                continue
            seen = time.perf_counter()
            self.polls.append(seen - sent)
            while self.pending and self.pending[0][0] <= seq:
                self.lags.append(seen - self.pending.popleft()[1])
            self._halt.wait(0.0005)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=WAIT_SECONDS)


class Scaleout(Plane):
    """scaleout: reads through a 1-worker ``ShardCoordinator``, updates
    through a ``ReplicationCoordinator`` to one replica process over
    loopback TCP."""

    replica_every = 64   # batches between replica sample checks
    router_every = 16    # batches between router-plane sample checks

    def setup(self) -> None:
        table = self.inputs.table
        config = ChiselConfig(width=table.width)
        fib, ledger = bootstrap(table, config)
        self.router = SnapshotRouter(fib)
        self.shard: Optional[ShardCoordinator] = ShardCoordinator(
            self.router, workers=1)
        self.repl: Optional[ReplicationCoordinator] = ReplicationCoordinator(
            self.router, ledger, config)
        port = self.repl.listen()
        self.handle: Optional[ReplicaHandle] = ReplicaHandle(
            0, port, table, config,
            os.path.join(self.workdir, f"replica-{self.index}"),
            status_interval=0.1, scrub_interval=60.0)
        self.handle.spawn()
        self.repl.start()
        self.command_lock = threading.Lock()
        self.monitor: Optional[LagMonitor] = None
        if not self._wait_converged():
            raise RunFailure("replica did not connect")

    def _wait_converged(self) -> bool:
        assert self.repl is not None and self.handle is not None
        deadline = time.monotonic() + WAIT_SECONDS
        while time.monotonic() < deadline:
            with self.command_lock:
                state = self.handle.status()
            if (state["connected"] and state["seq"] == self.repl.seq
                    and state["checksum"] == self.repl.ledger.checksum):
                return True
            time.sleep(0.005)
        return False

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        assert self.shard is not None
        return self.shard.lookup_batch(keys)

    def announce(self, prefix, gateway: str, interface: str) -> None:
        assert self.repl is not None
        self.repl.announce(prefix, gateway, interface)

    def withdraw(self, prefix) -> None:
        assert self.repl is not None
        self.repl.withdraw(prefix)

    def acked(self) -> None:
        if self.monitor is not None:
            assert self.repl is not None
            self.monitor.pending.append((self.repl.seq, time.perf_counter()))

    def maintain(self, run: "Run") -> None:
        assert self.shard is not None
        self.shard.maybe_publish()

    def start_window(self, traced: bool) -> None:
        assert self.handle is not None and self.repl is not None
        traffic = self.repl.traffic()
        self.wire_base = traffic["bytes_sent"] + traffic["bytes_received"]
        if traced:
            # Only the traced run reports lag: the poller competes with
            # the client for the interpreter and with the replica loop.
            self.monitor = LagMonitor(self.handle, self.command_lock)
            self.monitor.start()

    def _probe_replica(self, run: "Run", keys: np.ndarray, label: str) -> int:
        assert self.handle is not None
        if not self._wait_converged():
            raise RunFailure(f"{label}: replica did not catch up within "
                             f"{WAIT_SECONDS:.0f}s")
        with self.command_lock:
            answers = self.handle.command(CMD_PROBE, [int(k) for k in keys])[2]
        # The replica answers (gateway, interface) pairs.
        return run.reference.mismatches(
            keys, [None if answer is None else NextHopInfo(*answer)
                   for answer in answers])

    def check_more(self, run: "Run", batch: int, keys: np.ndarray) -> int:
        assert self.router is not None
        wrong = 0
        if batch % self.router_every == 0:
            answers = self.router.lookup_batch(keys)
            wrong += run.reference.mismatches(
                keys, resolve(self.router.fib, answers))
        if batch % self.replica_every == 0:
            wrong += self._probe_replica(run, keys, f"batch {batch}")
        return wrong

    def finish(self, run: "Run") -> None:
        """The replica must converge to the writer's seq and ledger
        checksum, then answer every updated prefix like the reference."""
        assert self.repl is not None
        traffic = self.repl.traffic()
        wire = traffic["bytes_sent"] + traffic["bytes_received"]
        self.facts["wire_bytes_per_update"] = ((wire - self.wire_base)
                                               / max(1, run.acks))
        if self.monitor is not None:
            self.monitor.stop()
            if self.monitor.errors:
                run.attempted += 1
                run.fail(f"{self.monitor.errors} replica status polls "
                         f"failed")
            self.facts["lag_samples"] = self.monitor.lags
            self.facts["poll_p50_ms"] = (
                1e3 * float(np.median(self.monitor.polls))
                if self.monitor.polls else 0.0)
        probe = probe_keys(run.applied, self.inputs.table.width,
                           np.random.default_rng(run.seed + 2))
        run.attempted += 1
        try:
            wrong = self._probe_replica(run, probe, "convergence")
            assert self.shard is not None
            wrong += run.reference.mismatches(
                probe, resolve(self.router.fib, self.shard.lookup_batch(probe)))
        except Exception as error:  # a timeout or a dead replica
            run.fail(f"convergence: {error!r}")
            return
        if wrong:
            run.fail(f"convergence: {wrong} of {len(probe)} probe answers "
                     f"disagree with the reference")

    def teardown(self) -> None:
        if getattr(self, "monitor", None) is not None:
            self.monitor.stop()
        self.monitor = None
        if getattr(self, "handle", None) is not None:
            self.handle.stop()
            self.handle = None
        if getattr(self, "repl", None) is not None:
            self.repl.stop()
            self.repl = None
        if getattr(self, "shard", None) is not None:
            self.shard.close()
            self.shard = None
        self.router = None
        shutil.rmtree(os.path.join(self.workdir, f"replica-{self.index}"),
                      ignore_errors=True)


PLANES = {"read-burst": InProcess, "churn-durable": Durable,
          "scaleout": Scaleout}


@dataclass
class Run:
    """State of one benchmark run: counters, samples, schedule."""

    name: str
    seed: int
    inputs: Inputs
    tracer: Optional[Tracer] = None
    sched: OpenLoop = field(default_factory=lambda: OpenLoop(0))
    calib: Calibration = field(default_factory=Calibration)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    applied: List[Update] = field(default_factory=list)
    acks: int = 0

    @property
    def reference(self) -> Reference:
        return self.inputs.reference

    @contextmanager
    def bookkeeping(self) -> Iterator[None]:
        """The benchmark's own work: off the schedule clock, untraced."""
        with self.sched.paused():
            if self.tracer is None:
                yield
            else:
                with self.tracer.suspended():
                    yield

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def expect(self, answers: List[Any], keys: np.ndarray, label: str) -> None:
        """One checked operation: ``answers`` must match the reference."""
        self.attempted += 1
        wrong = self.reference.mismatches(keys, answers)
        if wrong:
            self.fail(f"{label}: {wrong} of {len(keys)} answers disagree "
                      f"with the reference")


def first_answer(plane: Plane, run: Run) -> float:
    """Build the planes; seconds from the table in memory to the first
    answer (the answer is then checked, untimed)."""
    started = time.perf_counter()
    plane.setup()
    answers = plane.lookup(run.inputs.probe)
    elapsed = time.perf_counter() - started
    assert plane.router is not None
    run.expect(resolve(plane.router.fib, answers), run.inputs.probe,
               "first answer")
    return elapsed


class Client:
    """The single client thread's loop over one workload."""

    def __init__(self, run: Run, plane: Plane, shape: Shape):
        self.run = run
        self.plane = plane
        self.shape = shape
        self.batch_latencies: List[float] = []
        self.batch_moments: List[float] = []
        # Per loop iteration: wall-clock end, and seconds spent neither in
        # update calls nor in the benchmark's own bookkeeping.
        self.iteration_moments: List[float] = []
        self.iteration_seconds: List[float] = []
        self.keys_answered = 0
        self.batches = 0
        self.sample = np.random.default_rng(run.seed + 3)

    def apply_update(self, index: int) -> None:
        run = self.run
        if index >= len(run.inputs.updates):
            raise RunFailure("the update trace ran out; raise its length")
        update = run.inputs.updates[index]
        op, prefix, gateway, interface = update
        run.attempted += 1
        try:
            if op == ANNOUNCE:
                self.plane.announce(prefix, gateway, interface)
            else:
                self.plane.withdraw(prefix)
        except Exception as error:
            run.fail(f"update {index} ({op} {prefix}): {error!r}")
        else:
            run.acks += 1
        with run.bookkeeping():
            run.reference.apply(update)
            run.applied.append(update)
            self.plane.acked()

    def one_batch(self) -> float:
        """One timed lookup_batch plus its untimed check; returns seconds."""
        run = self.run
        pool = run.inputs.batches
        keys = pool[self.batches % len(pool)]
        run.attempted += 1
        started = time.perf_counter()
        try:
            answers = self.plane.lookup(keys)
        except Exception as error:
            elapsed = time.perf_counter() - started
            run.fail(f"batch {self.batches}: {error!r}")
            answers = None
        else:
            elapsed = time.perf_counter() - started
        self.batch_moments.append(started)
        with run.bookkeeping():
            run.calib.maybe_sample()
            if answers is not None:
                picks = self.sample.choice(len(keys), self.shape.check_keys,
                                           replace=False)
                assert self.plane.router is not None
                wrong = run.reference.mismatches(
                    keys[picks],
                    resolve(self.plane.router.fib, answers[picks]))
                try:
                    wrong += self.plane.check_more(run, self.batches,
                                                   keys[picks])
                except Exception as error:
                    run.fail(f"batch {self.batches} planes: {error!r}")
                if wrong:
                    run.fail(f"batch {self.batches}: {wrong} sampled "
                             f"answers disagree with the reference")
        self.batches += 1
        self.keys_answered += len(keys)
        return elapsed

    def window(self, seconds: float) -> None:
        """Closed-loop batches with due updates between them."""
        run = self.run
        run.sched = sched = OpenLoop(self.shape.update_rate)
        sched.start()
        self.plane.start_window(run.tracer is not None)
        mark = 0.0
        while mark < seconds:
            self.batch_latencies.append(self.one_batch())
            sched.run_due(self.apply_update)
            self.plane.maintain(run)
            # Lookups are timed apart from updates: the rate's
            # denominator drops the time spent inside update calls.
            now = sched.now() - sched.service
            self.iteration_moments.append(time.perf_counter())
            self.iteration_seconds.append(now - mark)
            mark = now

    def after_updates(self) -> None:
        """read-burst: updates back to back after the read window.

        No reads compete and no recompile runs, so each latency is the
        bare update path's own cost; queueing behind reads, recompiles and
        checkpoints is measured on the open-loop workloads.
        """
        run = self.run
        run.sched = sched = OpenLoop(0)
        sched.start()

        def between() -> bool:
            with run.bookkeeping():
                run.calib.maybe_sample()
            return sched.issued < self.shape.after_updates

        sched.run_back_to_back(self.apply_update, between)


def rate_pairs(client: Client, tracer: Tracer, install, uninstall,
               pairs: int, seconds: float) -> float:
    """Lookup rate traced over untraced, interleaved; returns the
    fractional slowdown tracing causes."""
    rates = {True: [], False: []}
    for index in range(2 * pairs):
        traced = bool(index % 2)
        if traced:
            install()
        keys = 0
        busy = 0.0
        began = time.perf_counter()
        while time.perf_counter() - began < seconds:
            busy += client.one_batch()
            keys += client.shape.batch_size
        if traced:
            uninstall()
        rates[traced].append(keys / busy)
    tracer.reset()
    return 1.0 - float(np.median(rates[True])) / float(np.median(rates[False]))


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


class Memory:
    """The program's share of peak resident memory.

    The benchmark's own inputs (table, reference trie, key pools,
    calibration table) are resident before any plane is built; the
    process's high-water mark is reset there and that resident size is
    the baseline the program's peak is measured from.
    """

    def __init__(self) -> None:
        with open("/proc/self/clear_refs", "w") as clear:
            clear.write("5")    # reset VmHWM to the current VmRSS
        self.baseline_kb = _status_kb("VmRSS")

    def peak_mb(self) -> float:
        """Own peak above the baseline, plus the largest child's peak."""
        import resource
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        own = _status_kb("VmHWM") - self.baseline_kb
        return (own + children) / 1024.0


def execute(name: str, seed: int, seconds: float, trace: bool,
            workdir: str) -> Dict[str, Any]:
    """One run of workload ``name``; returns raw measurements."""
    shape = SHAPES[name]
    updates = int(shape.update_rate * seconds * 1.5) + shape.after_updates
    inputs = make_inputs(seed, TABLE_SIZE, shape.batch_size, shape.pool_rows,
                         updates, shape.zipf, shape.unrouted_share)
    # The benchmark's own objects (table, reference trie, update list) are
    # moved out of the collector's reach, so the program's collections
    # cost what they would without the benchmark around it.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if trace else None
    run = Run(name=name, seed=seed, inputs=inputs, tracer=tracer)
    memory = Memory()
    planes = PLANES[name]
    setup_times: List[float] = []
    plane: Optional[Plane] = None
    result: Dict[str, Any] = {}
    try:
        for index in range(SETUP_REPEATS):
            if plane is not None:
                plane.teardown()
                plane = None
                gc.collect()
            plane = planes(inputs, workdir, index)
            setup_times.append(first_answer(plane, run))
        assert plane is not None
        client = Client(run, plane, shape)
        layer_trace = None
        window = seconds
        if tracer is not None:
            layer_trace = layers.LayerTrace(tracer, plane)
            # A fifth of the run compares traced and untraced lookups.
            result["trace_overhead_frac"] = rate_pairs(
                client, tracer, layer_trace.install, layer_trace.uninstall,
                pairs=4, seconds=seconds / 40)
            window = seconds * 0.8
            layer_trace.install()
            layer_trace.begin(run)
        try:
            client.window(window)
            if shape.after_updates:
                client.after_updates()
        finally:
            if layer_trace is not None:
                layer_trace.uninstall()
                layer_trace.end()
        schedule = run.sched
        try:
            plane.finish(run)
        except Exception as error:
            run.attempted += 1
            run.fail(f"end-of-run check: {error!r}")
        assert plane.router is not None
        calibrated = run.calib.calibrated
        result.update({
            "setup_times": setup_times,
            "batch_latencies": client.batch_latencies,
            "batch_cal": calibrated(client.batch_moments,
                                    client.batch_latencies),
            "keys": client.keys_answered,
            "lookup_seconds": sum(client.iteration_seconds),
            "lookup_cal": sum(calibrated(client.iteration_moments,
                                         client.iteration_seconds)),
            "calibration_s": statistics.median(run.calib.durations),
            "update_latencies": schedule.latencies,
            "update_cal": calibrated(schedule.moments, schedule.latencies),
            "storage_bits_per_prefix": (
                plane.router.fib.engine.total_storage_bits()
                / len(plane.router.fib)),
            "facts": plane.facts,
        })
        if layer_trace is not None:
            result["layers"] = layer_trace.metrics(
                run, result["trace_overhead_frac"])
            result["tracer"] = tracer
    finally:
        if plane is not None:
            plane.teardown()
        gc.unfreeze()
    result.update({
        "peak_rss_mb": memory.peak_mb(),
        "rss_baseline_mb": memory.baseline_kb / 1024.0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
    })
    return result
