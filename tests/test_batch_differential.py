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
export/attach round trip, and fault injection into fused records.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ChiselConfig, ChiselLPM
from repro.core.batch import BatchLookup
from repro.core.flatpath import RECORD_LANES, aligned_zeros
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
    for plan in batch._plans:
        pointers = plan.records[:, lane].view(np.int64)
        plan.records[:, lane] = (pointers + delta).view(np.uint64)


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
            assert sum(len(plan.spill_keys) for plan in batch._plans) >= 4
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
        spilled = [plan for plan in batch._plans if len(plan.spill_keys)]
        rng = random.Random(17)
        assert_batch_matches_scalar(engine, probe_keys(engine, rng, extra=300),
                                    batch=batch)
        # Aim keys straight at every spilled collapsed prefix.
        width = engine.config.width
        aimed = []
        for plan in spilled:
            free = width - plan.base
            for collapsed in plan.spill_keys[:32]:
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
    def test_unpacked_gather_fallback(self, backend):
        table = synthetic_table(900, seed=23)
        engine = build_engine(backend, table, seed=23)
        batch = BatchLookup(engine)
        for plan in batch._plans:
            assert plan.fused.packed_tables is not None
            plan.fused.packed_tables = None  # force the unpacked loop
        assert_batch_matches_scalar(
            engine, probe_keys(engine, random.Random(23), extra=300),
            batch=batch)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_true_modulus_fallback(self, backend):
        table = synthetic_table(900, seed=29)
        engine = build_engine(backend, table, seed=29)
        batch = BatchLookup(engine)
        for plan in batch._plans:
            assert plan.fused.condsub_ok
            plan.fused.condsub_ok = False  # force np.mod
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
            assert len(shared._plans) == len(snapshot._plans)
            assert np.array_equal(shared.lookup_batch(keys),
                                  snapshot.lookup_batch(keys))
            assert_batch_matches_scalar(fib.engine, keys, batch=shared)
            attached.close()
        finally:
            segment.retire()


class TestRecordFaults:
    """Scrub/injection must locate words inside the fused records."""

    def _plan_with_live_bucket(self):
        table = synthetic_table(600, seed=47)
        engine = build_engine("bloomier", table, seed=47)
        batch = BatchLookup(engine)
        for plan in batch._plans:
            live = np.flatnonzero(
                plan.records[:, RECORD_LANES["valid"]])
            if live.size:
                return engine, batch, plan, int(live[0])
        pytest.fail("no live bucket found")

    @pytest.mark.parametrize("kind", sorted(FLAT_RECORD_KINDS))
    def test_corrupt_record_word_flips_one_lane(self, kind):
        _engine, _batch, plan, pointer = self._plan_with_live_bucket()
        before = plan.records.copy()
        record = corrupt_record_word(plan, kind, pointer, bit=3)
        assert record.kind == kind
        after = plan.records
        changed = np.argwhere(before != after)
        assert len(changed) == 1
        row, lane = changed[0]
        assert row == pointer
        assert lane == FLAT_RECORD_KINDS[kind]

    def test_dirty_corruption_changes_answers(self):
        engine, batch, plan, pointer = self._plan_with_live_bucket()
        keys = probe_keys(engine, random.Random(47), extra=300)
        before = batch.lookup_batch(keys).copy()
        corrupt_record_word(plan, "dirty", pointer)
        after = batch.lookup_batch(keys)
        assert not np.array_equal(before, after), \
            "invalidating a live bucket must change some answer"

    def test_unknown_kind_rejected(self):
        _engine, _batch, plan, pointer = self._plan_with_live_bucket()
        with pytest.raises(ValueError):
            corrupt_record_word(plan, "index", pointer)


class TestFlatLayoutPrimitives:
    def test_aligned_zeros_is_cache_line_aligned(self):
        for shape in ((7, 8), (1, 8), (129, 8), 64):
            array = aligned_zeros(shape)
            assert array.ctypes.data % 64 == 0
            assert not array.any()

    def test_record_rows_are_one_cache_line(self):
        table = synthetic_table(200, seed=53)
        engine = build_engine("bloomier", table, seed=53)
        for plan in BatchLookup(engine)._plans:
            assert plan.records.strides[0] == 64
            assert plan.records.ctypes.data % 64 == 0

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
        assert len(batch._plans) == len(engine.subcells)
        for plan, subcell in zip(batch._plans, engine.subcells):
            assert (plan.base, plan.span) == (subcell.base, subcell.span)
            records = plan.records
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

    def test_packed_layout_active_on_standard_builds(self):
        for backend in BACKENDS:
            table = synthetic_table(400, seed=61)
            engine = build_engine(backend, table, seed=61)
            for plan in BatchLookup(engine)._plans:
                fused = plan.fused
                assert fused.packed_tables is not None
                assert fused.condsub_ok
                assert len(fused.packed_shifts) == fused.num_hashes
                if backend == "fuse":
                    assert fused.packed_start_shift is not None


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
