"""Randomized differential suite: BatchLookup vs the scalar Fig. 6 datapath.

This is the correctness gate for the serving layer (``repro.serve``): a
``SnapshotRouter`` may only serve traffic from a compiled snapshot because
these tests pin the flat batch plan (``repro.core.flatpath``) bit-for-bit
to the scalar datapath, the only oracle, over both Index Table backends —
across every span 0-6 (including the span-6 all-ones bit-vector whose
inclusive rank mask used to overflow uint64), spillover TCAM entries,
update churn with recompiles, and dirty/purged maintenance states.  It
also pins the plan's degraded paths (the unpacked gather, the true
modulus), the compile-from-engine record lanes, the shard codec's
export/attach round trip, fault injection into fused records, and the
hazards of stacking every sub-cell into one plan: per-sub-cell bounds,
a base-0 sub-cell at width 64, spillover in several sub-cells of one
pass, and batch sizes on both sides of the pair budget.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ChiselConfig, ChiselLPM
from repro.core.batch import BatchLookup
from repro.core import flatpath
from repro.core.flatpath import (PAIR_BUDGET, RECORD_LANES, RECORD_WIDTH,
                                 aligned_zeros)
from repro.faults.inject import FLAT_RECORD_KINDS, corrupt_record_word
from repro.prefix import Prefix, RoutingTable
from repro.workloads import synthetic_table
from repro.workloads.traces import synthesize_trace
from repro.core.updates import ANNOUNCE, apply_trace

BACKENDS = ("bloomier", "fuse")


def assert_batch_matches_scalar(engine, keys, batch=None):
    """The differential oracle: compiled answers == scalar answers."""
    batch = batch or BatchLookup(engine)
    expected = [engine.lookup(int(key)) for key in keys]
    got = batch.lookup_many(list(keys))
    assert got == expected
    return batch


def build_engine(backend, table, seed=2006, stride=4):
    config = ChiselConfig(width=table.width, stride=stride, seed=seed,
                          index_backend=backend)
    return ChiselLPM.build(table, config)


def shift_region_pointers(batch, delta):
    """Move every compiled Region pointer by ``delta`` (corruption)."""
    lane = RECORD_LANES["regionptr"]
    for cell in batch.plan.cell_views():
        pointers = cell.records[:, lane].view(np.int64)
        cell.records[:, lane] = (pointers + delta).view(np.uint64)


def random_table(rng, width, routes):
    table = RoutingTable(width=width)
    for _ in range(routes):
        length = rng.randint(0, width)
        value = rng.getrandbits(length) if length else 0
        table.add(Prefix(value, length, width), rng.randint(1, 200))
    return table


def probe_keys(engine, rng, extra=400):
    """Random keys plus keys aimed under every stored route, at every
    expansion corner (all-zeros, all-ones, random collapsed bits)."""
    width = engine.config.width
    keys = [rng.getrandbits(width) for _ in range(extra)]
    for prefix, _hop in engine.iter_routes():
        free = width - prefix.length
        base_key = prefix.network_int()
        keys.append(base_key)
        if free:
            keys.append(base_key | ((1 << free) - 1))
            keys.append(base_key | rng.getrandbits(free))
    return keys


class TestEverySpan:
    """Spans 0-6 with all-ones bit-vectors and max expansions."""

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("width", [28, 32])
    def test_span_differential(self, stride, width):
        for backend in BACKENDS:
            rng = random.Random(stride * 101 + width)
            table = RoutingTable(width=width)
            config = ChiselConfig(width=width, stride=stride, seed=stride,
                                  index_backend=backend)
            engine = ChiselLPM.build(table, config)
            # One rel-0 original per sub-cell (all-ones bit-vector: every
            # expansion set) plus rel-span originals (single-bit vectors).
            for cell in engine.plan:
                for _ in range(4):
                    value = rng.getrandbits(cell.base) if cell.base else 0
                    table.add(Prefix(value, cell.base, width),
                              rng.randint(1, 99))
                    top = cell.base + cell.span
                    value = rng.getrandbits(top) if top else 0
                    table.add(Prefix(value, top, width), rng.randint(1, 99))
            engine = ChiselLPM.build(table, config)
            spans = {cell.span for cell in engine.subcells}
            assert spans & {stride}, \
                "expected at least one full-stride sub-cell"
            assert_batch_matches_scalar(engine, probe_keys(engine, rng))

    def test_span6_all_ones_vector_expansion63(self):
        """The uint64 rank-mask overflow regression, pinned explicitly."""
        table = RoutingTable(width=32)
        table.add(Prefix(0b1010101, 7, 32), 5)   # rel 0 in [7..13] -> all-ones
        table.add(Prefix(0b0110011, 7, 32), 7)
        for backend in BACKENDS:
            engine = ChiselLPM.build(
                table, ChiselConfig(stride=6, seed=1, index_backend=backend))
            assert any(cell.span == 6 for cell in engine.subcells)
            subcell = next(c for c in engine.subcells if c.base == 7)
            bucket = subcell.buckets[0b1010101]
            assert bucket.bit_vector() == (1 << 64) - 1
            keys = []
            for value in (0b1010101, 0b0110011):
                # 63 shifts the naive mask by 64.
                for expansion in (0, 1, 31, 62, 63):
                    keys.append((value << 25) | (expansion << 19) | 12345)
            assert_batch_matches_scalar(engine, keys)

    def test_width64_differential(self):
        for backend in BACKENDS:
            rng = random.Random(64)
            table = random_table(rng, 64, 150)
            engine = ChiselLPM.build(table, ChiselConfig(
                width=64, stride=6, seed=3, index_backend=backend))
            assert_batch_matches_scalar(engine, probe_keys(engine, rng))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("span", range(7))
    def test_single_span_table(self, backend, span):
        """Every prefix at one length: each table exercises one span."""
        rng = random.Random(130 + span)
        width = 24
        table = RoutingTable(width=width)
        length = width - span
        for _ in range(80):
            value = rng.getrandbits(length) if length else 0
            table.add(Prefix(value, length, width), rng.randint(1, 200))
        engine = build_engine(backend, table, seed=7 + span)
        assert_batch_matches_scalar(engine, probe_keys(engine, rng, extra=300))


class TestOutOfRangeAddresses:
    """Out-of-range Result-Table addresses are misses."""

    def test_empty_engine_all_miss(self):
        for backend in BACKENDS:
            engine = ChiselLPM.build(RoutingTable(width=32),
                                     ChiselConfig(index_backend=backend))
            batch = BatchLookup(engine)
            rng = random.Random(2)
            keys = [rng.getrandbits(32) for _ in range(256)]
            answers = batch.lookup_batch(keys)
            assert (answers == -1).all()
            assert_batch_matches_scalar(engine, keys, batch=batch)

    def test_empty_subcell_regression(self):
        """A table leaving whole sub-cells empty (empty arenas) never
        fabricates next hop 0 for keys landing in them."""
        table = RoutingTable(width=32)
        table.add(Prefix(0b10, 2, 32), 3)  # only the shortest cell populated
        for backend in BACKENDS:
            engine = ChiselLPM.build(
                table, ChiselConfig(seed=4, index_backend=backend))
            empty_cells = [c for c in engine.subcells if not c.buckets]
            assert empty_cells, "expected empty sub-cells under full tiling"
            rng = random.Random(4)
            keys = [rng.getrandbits(32) for _ in range(512)]
            assert_batch_matches_scalar(engine, keys)

    def test_corrupted_region_pointer_is_miss_not_arena0(self, small_table):
        """With the old np.clip, a wild address clamped onto the arena and
        returned a plausible next hop; it must read as a miss."""
        for backend in BACKENDS:
            engine = ChiselLPM.build(
                small_table, ChiselConfig(seed=5, index_backend=backend))
            batch = BatchLookup(engine)
            rng = random.Random(5)
            keys = probe_keys(engine, rng, extra=0)[:300]
            hits = batch.lookup_batch(keys)
            assert (hits != -1).any()
            shift_region_pointers(batch, 1_000_000)
            answers = batch.lookup_batch(keys)
            assert (answers == -1).all()

    def test_negative_address_is_miss(self, small_table):
        for backend in BACKENDS:
            engine = ChiselLPM.build(
                small_table, ChiselConfig(seed=6, index_backend=backend))
            batch = BatchLookup(engine)
            shift_region_pointers(batch, -1_000_000)
            rng = random.Random(6)
            keys = [rng.getrandbits(32) for _ in range(200)]
            assert (batch.lookup_batch(keys) == -1).all()


class TestStaleness:
    """Every table mutation moves the staleness counter."""

    def test_stale_after_withdraw_purge(self, small_table):
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=7))
        prefixes = list(small_table.prefixes())
        for prefix in prefixes[:40]:
            engine.withdraw(prefix)
        assert engine.dirty_count() > 0
        batch = BatchLookup(engine)  # compiled with dirty entries parked
        assert not batch.stale
        purged = engine.purge_dirty()
        assert purged > 0
        assert batch.stale, "purge mutated tables but snapshot stayed fresh"

    def test_stale_after_maintenance(self, small_table):
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=8))
        for prefix in list(small_table.prefixes())[:25]:
            engine.withdraw(prefix)
        batch = BatchLookup(engine)
        engine.maintenance()
        assert batch.stale

    def test_stale_after_subcell_grow(self, small_table):
        """A capacity-doubling rebuild rewrites every hardware word of the
        sub-cell; a snapshot compiled before it must read stale.  The seed
        tree copied ``words_written`` verbatim into the grown sub-cell, so
        the rebuild was invisible to ``BatchLookup.stale``."""
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=10))
        batch = BatchLookup(engine)
        assert not batch.stale
        engine._grow_subcell(engine.subcells[0])
        assert batch.stale, (
            "sub-cell grow rebuilt the tables but the snapshot stayed fresh"
        )

    def test_grow_through_announce_flips_stale_and_stays_exact(self):
        """End-to-end: announcing past a sub-cell's capacity triggers the
        RESETUP grow; compiled snapshots must notice and a recompile must
        agree with the scalar path."""
        for backend in BACKENDS:
            rng = random.Random(11)
            engine = ChiselLPM.build(
                RoutingTable(width=32),
                ChiselConfig(seed=11, index_backend=backend))
            target = engine.subcell_for(Prefix(0, 28, 32))
            original_capacity = target.capacity
            batch = BatchLookup(engine)
            for j in range(original_capacity + 1):
                engine.announce(Prefix(j << 4, 28, 32), (j % 200) + 1)
            grown = engine.subcell_for(Prefix(0, 28, 32))
            assert grown.capacity > original_capacity
            assert batch.stale
            keys = probe_keys(engine, rng)
            assert_batch_matches_scalar(engine, keys)

    def test_differential_across_dirty_and_purged_states(self, small_table):
        withdrawn = list(small_table.prefixes())[::7]
        for backend in BACKENDS:
            rng = random.Random(9)
            engine = ChiselLPM.build(
                small_table, ChiselConfig(seed=9, index_backend=backend))
            for prefix in withdrawn:
                engine.withdraw(prefix)
            keys = probe_keys(engine, rng)
            keys += [p.network_int() for p in withdrawn]
            assert_batch_matches_scalar(engine, keys)  # dirty entries parked
            engine.purge_dirty()
            assert_batch_matches_scalar(engine, keys)  # physically retired
            engine.maintenance()
            assert_batch_matches_scalar(engine, keys)  # drained + compacted


class TestSpillover:
    """The vectorized spillover override stays exact."""

    @staticmethod
    def _spill_keys(engine, count):
        """Move ``count`` encoded keys into spillover TCAMs — exactly the
        state a failed Bloomier setup leaves (§4.1): the key is absent
        from its group's encoding and the TCAM answer is authoritative."""
        spilled = 0
        for subcell in engine.subcells:
            index = subcell.index
            for value in list(subcell.buckets)[:2]:
                pointer = index.get(value)
                if pointer is None or spilled >= count:
                    continue
                group_index = index.group_of(value)
                group = index._groups[group_index]
                if value not in group.shadow:
                    continue
                survivors = dict(group.shadow)
                del survivors[value]
                group.setup(survivors)
                index.spillover.insert(value, pointer)
                index._spilled_by_group[group_index][value] = pointer
                spilled += 1
        return spilled

    def test_spillover_differential(self, small_table):
        for backend in BACKENDS:
            engine = ChiselLPM.build(
                small_table, ChiselConfig(seed=16, index_backend=backend))
            assert self._spill_keys(engine, 6) >= 4
            batch = BatchLookup(engine)
            assert sum(len(cell.spill_keys)
                       for cell in batch.plan.cell_views()) >= 4
            rng = random.Random(17)
            assert_batch_matches_scalar(engine, probe_keys(engine, rng),
                                        batch=batch)

    def test_spillover_after_churn(self, small_table):
        for backend in BACKENDS:
            engine = ChiselLPM.build(
                small_table, ChiselConfig(seed=18, index_backend=backend))
            assert self._spill_keys(engine, 4)
            rng = random.Random(18)
            for prefix in list(small_table.prefixes())[:10]:
                engine.withdraw(prefix)
            for _ in range(10):
                engine.announce(Prefix(rng.getrandbits(24), 24, 32),
                                rng.randint(1, 50))
            assert_batch_matches_scalar(engine, probe_keys(engine, rng))

    def test_spillover_drain_moves_staleness(self, small_table):
        """Maintenance draining the TCAM mutates the Index Table; a
        compiled snapshot must notice."""
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=19))
        assert self._spill_keys(engine, 4)
        batch = BatchLookup(engine)
        report = engine.maintenance()
        assert report["spillover_drained"] > 0
        assert batch.stale
        assert_batch_matches_scalar(engine, probe_keys(
            engine, random.Random(19), extra=100))

    @staticmethod
    def _aim_at(engine, subcell, collapsed, rng):
        """Keys whose collapse lands exactly on ``collapsed``."""
        free = engine.config.width - subcell.base
        base_key = collapsed << free
        if not free:
            return [base_key]
        return [base_key, base_key | ((1 << free) - 1),
                base_key | rng.getrandbits(free)]

    def _each_spilled(self, engine):
        for subcell in engine.subcells:
            for spills in subcell.index._spilled_by_group:
                for value, pointer in list(spills.items()):
                    yield subcell, spills, value, pointer

    def test_spilled_pointer_on_dirty_bucket(self, small_table):
        """A TCAM hit whose bucket was lazily withdrawn (dirty) must be
        a miss, exactly as the scalar check orders it: the override
        replaces the pointer, the dirty bit still vetoes the answer."""
        for backend in BACKENDS:
            engine = ChiselLPM.build(
                small_table, ChiselConfig(seed=20, index_backend=backend))
            assert self._spill_keys(engine, 6) >= 4
            rng = random.Random(20)
            aimed = []
            for subcell, _spills, value, pointer in \
                    self._each_spilled(engine):
                subcell.dirty_table[pointer] = True
                aimed.extend(self._aim_at(engine, subcell, value, rng))
            assert aimed, "setup must have parked spilled keys"
            keys = aimed + probe_keys(engine, rng, extra=60)
            assert_batch_matches_scalar(engine, keys)

    def test_spilled_pointer_out_of_range(self, small_table):
        """A poisoned TCAM entry pointing past the bucket table must be
        filtered as a miss — never clamped onto bucket 0."""
        for backend in BACKENDS:
            engine = ChiselLPM.build(
                small_table, ChiselConfig(seed=21, index_backend=backend))
            assert self._spill_keys(engine, 6) >= 4
            rng = random.Random(21)
            aimed = []
            for subcell, spills, value, _ptr in self._each_spilled(engine):
                bad_pointer = subcell.capacity + 7
                subcell.index.spillover.insert(value, bad_pointer)
                spills[value] = bad_pointer
                aimed.extend(self._aim_at(engine, subcell, value, rng))
            assert aimed, "setup must have parked spilled keys"
            keys = aimed + probe_keys(engine, rng, extra=60)
            assert_batch_matches_scalar(engine, keys)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spilled_keys_resolve_identically(self, backend):
        """Engines big enough to park entries in the TCAM on their own:
        the spill override must shadow the decode exactly like the
        scalar path."""
        table = synthetic_table(4_000, seed=17)
        engine = build_engine(backend, table, seed=17)
        batch = BatchLookup(engine)
        spilled = [cell for cell in batch.plan.cell_views()
                   if len(cell.spill_keys)]
        rng = random.Random(17)
        assert_batch_matches_scalar(engine, probe_keys(engine, rng, extra=300),
                                    batch=batch)
        # Aim keys straight at every spilled collapsed prefix.
        width = engine.config.width
        aimed = []
        for cell in spilled:
            free = width - cell.base
            for collapsed in cell.spill_keys[:32]:
                base_key = int(collapsed) << free
                aimed.append(base_key)
                aimed.append(base_key | rng.getrandbits(free)
                             if free else base_key)
        assert_batch_matches_scalar(engine, aimed, batch=batch)


class TestChurnRecompile:
    """Update churn + recompile: the snapshot lifecycle stays exact."""

    def test_trace_churn_differential(self, small_table):
        trace = synthesize_trace(small_table, 600, seed=20)
        for backend in BACKENDS:
            rng = random.Random(20)
            engine = ChiselLPM.build(
                small_table, ChiselConfig(seed=20, index_backend=backend))
            for start in range(0, len(trace), 150):
                window = trace[start:start + 150]
                apply_trace(engine, window)
                touched = [op.prefix.network_int() | rng.getrandbits(
                    32 - op.prefix.length) if op.prefix.length < 32
                    else op.prefix.network_int() for op in window]
                assert_batch_matches_scalar(
                    engine, probe_keys(engine, rng, extra=100) + touched
                )

    def test_stale_flag_over_trace(self, small_table):
        engine = ChiselLPM.build(small_table, ChiselConfig(seed=21))
        trace = synthesize_trace(small_table, 80, seed=21)
        batch = BatchLookup(engine)
        mutated = False
        for op in trace:
            if op.op == ANNOUNCE:
                mutated |= engine.announce(op.prefix, op.next_hop) is not None
            else:
                mutated |= engine.withdraw(op.prefix) is not None
        assert mutated and batch.stale
        assert not BatchLookup(engine).stale

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_churn_recompiles_stay_exact(self, backend):
        table = synthetic_table(1_500, seed=11)
        engine = build_engine(backend, table, seed=11)
        rng = random.Random(11)
        trace = synthesize_trace(table, 300, seed=12)
        for start in range(0, 300, 60):
            apply_trace(engine, trace[start:start + 60])
            assert_batch_matches_scalar(
                engine, probe_keys(engine, rng, extra=150))

    def test_stale_flag_tracks_updates(self):
        table = synthetic_table(400, seed=13)
        engine = build_engine("fuse", table, seed=13)
        batch = BatchLookup(engine)
        assert not batch.stale
        apply_trace(engine, synthesize_trace(table, 5, seed=14)[:5])
        assert batch.stale


class TestDegradedPaths:
    """The plan's fallbacks must stay bit-exact, not just the fast path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unpacked_gather_fallback(self, backend, monkeypatch):
        table = synthetic_table(900, seed=23)
        engine = build_engine(backend, table, seed=23)
        monkeypatch.setattr(flatpath, "_PACK_BITS", 0)  # nothing packs
        batch = BatchLookup(engine)
        assert batch.plan.flat_packed is None
        assert batch.plan.hash_tables is not None
        assert_batch_matches_scalar(
            engine, probe_keys(engine, random.Random(23), extra=300),
            batch=batch)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_true_modulus_fallback(self, backend):
        table = synthetic_table(900, seed=29)
        engine = build_engine(backend, table, seed=29)
        batch = BatchLookup(engine)
        assert batch.plan.condsub_ok
        batch.plan.condsub_ok = False  # force np.mod
        assert_batch_matches_scalar(
            engine, probe_keys(engine, random.Random(29), extra=300),
            batch=batch)


class TestCodecFlatRoundtrip:
    def test_flat_plans_survive_export_attach(self):
        from repro.router import ForwardingEngine
        from repro.serve import RecompilePolicy, SnapshotRouter
        from repro.shard.codec import SharedSnapshot

        table = synthetic_table(1_200, seed=43)
        fib = ForwardingEngine.from_table(table)
        router = SnapshotRouter(fib, RecompilePolicy())
        snapshot = router._snapshot  # the compiled BatchLookup
        keys = [random.Random(43).getrandbits(table.width)
                for _ in range(3_000)]
        segment = SharedSnapshot.export(
            snapshot, router.overlay_arrays(), 3)
        try:
            attached = SharedSnapshot.attach(segment.name)
            shared = attached.to_lookup()
            assert shared.plan.cells == snapshot.plan.cells
            assert np.array_equal(shared.lookup_batch(keys),
                                  snapshot.lookup_batch(keys))
            assert_batch_matches_scalar(fib.engine, keys, batch=shared)
            attached.close()
        finally:
            segment.retire()


class TestRecordFaults:
    """Scrub/injection must locate words inside the fused records."""

    def _live_bucket(self):
        table = synthetic_table(600, seed=47)
        engine = build_engine("bloomier", table, seed=47)
        batch = BatchLookup(engine)
        for index, cell in enumerate(batch.plan.cell_views()):
            live = np.flatnonzero(cell.records[:, RECORD_LANES["valid"]])
            if live.size:
                return engine, batch, index, int(live[0])
        pytest.fail("no live bucket found")

    @pytest.mark.parametrize("kind", sorted(FLAT_RECORD_KINDS))
    def test_corrupt_record_word_flips_one_lane(self, kind):
        _engine, batch, cell, pointer = self._live_bucket()
        plan = batch.plan
        before = plan.records.copy()
        record = corrupt_record_word(plan, cell, kind, pointer, bit=3)
        assert record.kind == kind
        assert record.subcell_base == plan.cells[cell]["base"]
        changed = np.argwhere(before != plan.records)
        assert len(changed) == 1
        row, lane = changed[0]
        assert row == plan.row_base[cell, 0] + pointer
        assert lane == FLAT_RECORD_KINDS[kind]

    def test_dirty_corruption_changes_answers(self):
        engine, batch, cell, pointer = self._live_bucket()
        keys = probe_keys(engine, random.Random(47), extra=300)
        before = batch.lookup_batch(keys).copy()
        corrupt_record_word(batch.plan, cell, "dirty", pointer)
        after = batch.lookup_batch(keys)
        assert not np.array_equal(before, after), \
            "invalidating a live bucket must change some answer"

    def test_unknown_kind_rejected(self):
        _engine, batch, cell, pointer = self._live_bucket()
        with pytest.raises(ValueError):
            corrupt_record_word(batch.plan, cell, "index", pointer)

    def test_pointer_past_own_capacity_rejected(self):
        """A pointer is local to its sub-cell: one past the capacity
        would address the neighbouring sub-cell's first row."""
        _engine, batch, cell, _pointer = self._live_bucket()
        capacity = batch.plan.cells[cell]["capacity"]
        with pytest.raises(ValueError, match="outside"):
            corrupt_record_word(batch.plan, cell, "filter", capacity)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fault_only_moves_keys_of_its_sub_cell(self, backend):
        """Invalidating one record changes answers only for keys that
        sub-cell served; every other key keeps its answer."""
        table = synthetic_table(800, seed=48)
        engine = build_engine(backend, table, seed=48)
        keys = probe_keys(engine, random.Random(48), extra=300)
        served_by = [engine.lookup_with_subcell(key)[1] for key in keys]
        changed_cells = 0
        for index, cell in enumerate(BatchLookup(engine).plan.cell_views()):
            live = np.flatnonzero(cell.records[:, RECORD_LANES["valid"]])
            if not live.size:
                continue
            batch = BatchLookup(engine)
            before = batch.lookup_batch(keys).copy()
            corrupt_record_word(batch.plan, index, "dirty", int(live[0]))
            moved = np.flatnonzero(batch.lookup_batch(keys) != before)
            assert all(served_by[key] == cell.base for key in moved), \
                f"a fault in sub-cell /{cell.base} moved another's key"
            changed_cells += bool(moved.size)
        assert changed_cells >= 2


class TestStackingHazards:
    """Stacking every sub-cell into one plan must keep each sub-cell's
    bounds its own, and the pass rule must not change any answer."""

    @staticmethod
    def _neighbour_poisoned(batch, cell, row=0):
        """Make the next sub-cell's ``row`` a perfect record for nothing
        in particular: valid, every expansion bit set, region 0."""
        neighbour = batch.plan.cell_view(cell + 1)
        neighbour.records[row, RECORD_LANES["valid"]] = 1
        neighbour.records[row, RECORD_LANES["bitvector"]] = \
            np.uint64(2 ** 64 - 1)
        neighbour.records[row, RECORD_LANES["regionptr"]] = 0
        return neighbour

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pointer_equal_to_capacity_misses(self, backend):
        """A TCAM pointer equal to its own sub-cell's capacity is the
        first row of the next sub-cell in the stack; it must miss."""
        table = synthetic_table(900, seed=71)
        engine = build_engine(backend, table, seed=71)
        rng = random.Random(71)
        cells = engine.subcells
        aimed = []
        for index, subcell in enumerate(cells[:-1]):
            value = next((v for v in subcell.buckets if v), None)
            if value is None:
                continue
            subcell.index.spillover.insert(value, subcell.capacity)
            aimed.append((index, value,
                          TestSpillover._aim_at(engine, subcell, value, rng)))
        assert len(aimed) >= 2
        batch = BatchLookup(engine)
        for index, value, _keys in aimed:
            neighbour = self._neighbour_poisoned(batch, index)
            neighbour.records[0, RECORD_LANES["filter"]] = value
        keys = [key for _index, _value, group in aimed for key in group]
        assert_batch_matches_scalar(engine, keys, batch=batch)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_address_equal_to_arena_size_misses(self, backend):
        """A Result address equal to its own sub-cell's arena size is the
        next sub-cell's first arena entry; it must miss, exactly like
        the same bucket marked invalid."""
        table = synthetic_table(900, seed=73)
        engine = build_engine(backend, table, seed=73)
        rng = random.Random(73)
        hazard, control = BatchLookup(engine), BatchLookup(engine)
        keys = []
        for index, subcell in enumerate(engine.subcells[:-1]):
            cell = hazard.plan.cell_view(index)
            live = np.flatnonzero(cell.records[:, RECORD_LANES["valid"]])
            if not live.size or not len(cell.arena):
                continue
            pointer = int(live[0])
            value = int(cell.records[pointer, RECORD_LANES["filter"]])
            # Only expansion 0 with bit 0 set: rank 1, address = region.
            cell.records[pointer, RECORD_LANES["bitvector"]] = 1
            cell.records[pointer, RECORD_LANES["regionptr"]] = len(cell.arena)
            corrupt_record_word(control.plan, index, "dirty", pointer)
            free = engine.config.width - subcell.base
            keys.append(value << free)
            keys.extend(TestSpillover._aim_at(engine, subcell, value, rng))
        assert len(keys) >= 4
        for batch in (hazard, control):
            for index in range(len(engine.subcells) - 1):
                arena = batch.plan.cell_view(index + 1).arena
                if len(arena):
                    arena[0] = 4242  # a hop no route uses
        assert np.array_equal(hazard.lookup_batch(keys),
                              control.lookup_batch(keys))
        assert 4242 not in hazard.lookup_batch(keys)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_width64_base0_subcell(self, backend):
        """``key >> 64`` is undefined in numpy: the base-0 sub-cell of a
        width-64 engine must still collapse every key to 0."""
        rng = random.Random(640)
        table = RoutingTable(width=64)
        table.add(Prefix(0, 0, 64), 9)  # the default route
        for length in (1, 3, 5, 7, 13, 40, 64):
            for _ in range(5):
                table.add(Prefix(rng.getrandbits(length), length, 64),
                          rng.randint(10, 200))
        engine = ChiselLPM.build(table, ChiselConfig(
            width=64, stride=6, seed=64, index_backend=backend))
        assert any(cell.base == 0 for cell in engine.subcells)
        keys = probe_keys(engine, rng, extra=200)
        keys += [0, 2 ** 64 - 1, 2 ** 63, 2 ** 63 - 1]
        answers = assert_batch_matches_scalar(engine, keys).lookup_batch(keys)
        assert (answers != -1).all(), "the default route covers every key"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spillover_in_several_sub_cells_of_one_pass(self, backend,
                                                        small_table,
                                                        monkeypatch):
        engine = build_engine(backend, small_table, seed=77)
        assert TestSpillover._spill_keys(engine, 8) >= 4
        batch = BatchLookup(engine)
        spilled = [cell for cell in batch.plan.cell_views()
                   if len(cell.spill_keys)]
        assert len(spilled) >= 2
        rng = random.Random(77)
        keys = [key for cell in spilled
                for value in cell.spill_keys
                for key in TestSpillover._aim_at(
                    engine, cell, int(value), rng)]
        keys = (keys + probe_keys(engine, rng, extra=64))[:64]
        passes = self._record_passes(monkeypatch)
        assert_batch_matches_scalar(engine, keys, batch=batch)
        assert passes == [(0, len(engine.subcells), 64)]

    @staticmethod
    def _record_passes(monkeypatch):
        passes = []
        real = flatpath.StackedPlan._pass

        def spy(plan, keys, first, last, pool):
            passes.append((first, last, keys.size))
            return real(plan, keys, first, last, pool)

        monkeypatch.setattr(flatpath.StackedPlan, "_pass", spy)
        return passes

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", ["0", "1", "64", "under", "over",
                                      "20000"])
    def test_batch_sizes_around_the_pair_budget(self, backend, size,
                                                monkeypatch):
        table = synthetic_table(1_500, seed=79)
        engine = build_engine(backend, table, seed=79)
        cells = len(engine.subcells)
        count = {"under": PAIR_BUDGET // cells,
                 "over": PAIR_BUDGET // cells + 1}.get(size) or int(size)
        pool = probe_keys(engine, random.Random(79), extra=500)
        keys = [pool[index % len(pool)] for index in range(count)]
        passes = self._record_passes(monkeypatch)
        assert_batch_matches_scalar(engine, keys)
        if count and count * cells <= PAIR_BUDGET:
            assert passes == [(0, cells, count)]  # one pass, every sub-cell
        elif count:
            assert passes[0][1] - passes[0][0] < cells
            # Each pass stays within the budget (or probes one sub-cell),
            # and only keys no earlier pass resolved go on.
            assert all((last - first) * size <= PAIR_BUDGET
                       or last - first == 1 for first, last, size in passes)
            assert [size for _first, _last, size in passes] == sorted(
                (size for _first, _last, size in passes), reverse=True)


class TestFlatLayoutPrimitives:
    def test_aligned_zeros_is_cache_line_aligned(self):
        for shape in ((7, 8), (1, 8), (129, 8), 64):
            array = aligned_zeros(shape)
            assert array.ctypes.data % 64 == 0
            assert not array.any()

    def test_record_rows_are_one_cache_line(self):
        """32-byte rows from a line-aligned base: a row never straddles
        two cache lines (two rows share one)."""
        table = synthetic_table(200, seed=53)
        engine = build_engine("bloomier", table, seed=53)
        records = BatchLookup(engine).plan.records
        assert records.strides[0] == 8 * RECORD_WIDTH == 32
        assert 64 % records.strides[0] == 0
        assert records.ctypes.data % 64 == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_record_lanes_match_subcell_tables(self, backend):
        """Compile-from-engine: each record lane is the sub-cell's own
        table, after churn has left dirty and free buckets behind."""
        table = synthetic_table(600, seed=59)
        engine = build_engine(backend, table, seed=59)
        apply_trace(engine, synthesize_trace(table, 120, seed=60))
        for prefix in list(table.prefixes())[:30]:
            engine.withdraw(prefix)
        assert engine.dirty_count() > 0
        batch = BatchLookup(engine)
        views = batch.plan.cell_views()
        assert len(views) == len(engine.subcells)
        for cell, subcell in zip(views, engine.subcells):
            assert (cell.base, cell.span) == (subcell.base, subcell.span)
            records = cell.records
            assert records[:, RECORD_LANES["filter"]].tolist() == [
                0 if value is None else value
                for value in subcell.filter_table]
            assert records[:, RECORD_LANES["valid"]].tolist() == [
                int(value is not None and not dirty)
                for value, dirty in zip(subcell.filter_table,
                                        subcell.dirty_table)]
            assert records[:, RECORD_LANES["bitvector"]].tolist() == \
                list(subcell.bv_table)
            assert records[:, RECORD_LANES["regionptr"]].view(
                np.int64).tolist() == list(subcell.region_ptr)
            assert cell.arena.tolist() == list(subcell.result.arena)

    def test_packed_layout_active_on_standard_builds(self):
        for backend in BACKENDS:
            table = synthetic_table(400, seed=61)
            engine = build_engine(backend, table, seed=61)
            plan = BatchLookup(engine).plan
            assert plan.flat_packed is not None
            assert plan.condsub_ok
            assert len(plan.packed_shifts) == plan.num_hashes
            if backend == "fuse":
                assert plan.start_shift is not None


# -- hypothesis: arbitrary tables, widths <= 64 ------------------------------

@st.composite
def table_and_config(draw):
    width = draw(st.integers(min_value=4, max_value=64))
    stride = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    routes = draw(st.integers(min_value=0, max_value=80))
    backend = draw(st.sampled_from(BACKENDS))
    rng = random.Random(seed)
    table = random_table(rng, width, routes)
    config = ChiselConfig(width=width, stride=stride, seed=seed,
                          index_backend=backend)
    return table, config, seed


@given(table_and_config())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_differential_random_tables(params):
    table, config, seed = params
    engine = ChiselLPM.build(table, config)
    rng = random.Random(seed ^ 0xBEEF)
    assert_batch_matches_scalar(engine, probe_keys(engine, rng, extra=150))


@given(st.integers(min_value=0, max_value=2**16), st.sampled_from(BACKENDS))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_differential_random_churn(seed, backend):
    rng = random.Random(seed)
    table = synthetic_table(300, seed=seed % 97)
    engine = ChiselLPM.build(table, ChiselConfig(seed=seed & 0xFFFF,
                                                 index_backend=backend))
    prefixes = list(table.prefixes())
    for _ in range(60):
        prefix = prefixes[rng.randrange(len(prefixes))]
        if rng.random() < 0.5:
            engine.withdraw(prefix)
        else:
            engine.announce(prefix, rng.randint(1, 200))
    if rng.random() < 0.5:
        engine.purge_dirty()
    assert_batch_matches_scalar(engine, probe_keys(engine, rng, extra=100))


class TestHypothesisDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           width=st.sampled_from([16, 24, 32]),
           routes=st.integers(min_value=1, max_value=220))
    def test_random_tables(self, backend, seed, width, routes):
        rng = random.Random(seed)
        table = random_table(rng, width, routes)
        engine = build_engine(backend, table, seed=seed & 0xFFFF)
        assert_batch_matches_scalar(engine,
                                    probe_keys(engine, rng, extra=120))
