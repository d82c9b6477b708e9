"""Cache-aware stacked datapath: every sub-cell in one plan, one pass.

# chisel-analyze-scope: dtype

``BatchLookup`` compiles a built engine into one :class:`StackedPlan`,
the batch form of the Fig. 6 datapath.  Chisel searches all sub-cells in
parallel and a priority encoder picks the longest match (§4.3.2); the
plan does the same over a ``(sub-cells × keys)`` broadcast, on one
contiguous layout as "Cache-aware data structures for packet forwarding
tables" (PAPERS.md) recommends:

* **Stacked layout** — every sub-cell's checksum and tabulation byte
  tables, Index-Table words, fused records and Result arena live in
  single arrays; each sub-cell keeps a column of constants (shifts,
  masks, lane/row/arena bases, segment, capacity) read as a
  ``(cells, 1)`` broadcast operand.
* **Fused records** — one 32-byte row per bucket pointer (Filter value,
  valid flag, bit-vector, Region pointer) from a cache-line-aligned
  base: one cache line per probe.
* **Packed decode** — the k hash byte-tables share one uint64 table in
  disjoint bit fields: one gather per key byte decodes every hash.
* **Pair budget** — a pass covers the longest run of remaining
  sub-cells whose ``keys × cells`` fits :data:`PAIR_BUDGET`, and keys a
  pass resolves drop out before the next (docs/DATAPATH.md §4).
* **Allocation-free** — intermediates live in a per-thread scratch pool.

The plan is bit-exact with the scalar datapath
(``tests/test_batch_differential.py`` is the gate).
"""

from __future__ import annotations

import sys
import threading
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

_MISS = np.int64(-1)
_LITTLE_ENDIAN = sys.byteorder == "little"

#: Lanes of one fused record row (32 bytes = 4 uint64 words).  Lane
#: order is load-bearing for the shard codec and the fault injector.
RECORD_LANES: Dict[str, int] = {
    "filter": 0,      # collapsed key stored in the Filter Table
    "valid": 1,       # 1 = entry present and not dirty
    "bitvector": 2,   # the 2**span expansion bit-vector word
    "regionptr": 3,   # Result-Table region pointer (int64 bit pattern)
}

#: uint64 words per record row: 4 × 8 bytes, half a 64-byte cache line.
RECORD_WIDTH = 4

#: Most (key, sub-cell) pairs one stacked pass broadcasts over.  Below
#: it a pass covers every remaining sub-cell at once (a 64-key batch is
#: one pass); above it, per-sub-cell passes let resolved keys drop out
#: before the shorter sub-cells are probed.  Chosen by measurement
#: (docs/DATAPATH.md §4): 6144 tied the best of 4096 and 8192 at 1k and
#: 2k keys and beat both at 4k.
PAIR_BUDGET = 6144

#: Per-sub-cell scalars a plan is rebuilt from (the codec's metadata);
#: all partition groups of a sub-cell share segment, length and range.
CELL_FIELDS = (
    "base", "span", "capacity", "partitions", "key_bytes", "segment",
    "group_length", "start_range", "arena_size", "spill_count",
)

_TOP_BIT = np.uint64(1 << 63)
_ROW_SHIFT = np.uint64(RECORD_WIDTH.bit_length() - 1)
_U63 = np.uint64(63)
_ZERO = np.uint64(0)
_ONE = np.uint64(1)
#: Word offsets of the record lanes, one plane each, in lane order.
_LANES = np.array(list(RECORD_LANES.values()), np.uint64).reshape(-1, 1, 1)
_BITWISE_COUNT = getattr(np, "bitwise_count", None)  # numpy >= 2.0
#: Bits of one packed hash word (see ``StackedPlan._pack``).
_PACK_BITS = 64
#: Gather mode.  Every index is in range by construction (bytes < 256,
#: clamped record rows, sentinel arena entry), and numpy buffers ``out``
#: under the default ``mode="raise"``: "clip" skips that copy (~2x).
_CLIP = "clip"


def aligned_zeros(shape, dtype=np.uint64, align: int = 64) -> np.ndarray:
    """A zeroed array whose base address is ``align``-byte aligned.

    numpy only guarantees 16-byte alignment; fused record rows divide a
    cache line, so the base must start on one for no row to straddle
    two lines.  Over-allocate and slice to the aligned offset.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape)) if shape else 1
    raw = np.zeros(count * dtype.itemsize + align, dtype=np.uint8)
    offset = (-raw.ctypes.data) % align
    view = raw[offset:offset + count * dtype.itemsize].view(dtype)
    return view.reshape(shape)


class _ScratchPool:
    """Named reusable buffers for one thread's batch pipeline.

    Buffers grow geometrically and are handed out as prefix slices, so a
    steady stream of equal-size batches allocates nothing after warmup.
    The pool is per-thread (see :func:`scratch`): two threads sharing a
    snapshot never share an intermediate.
    """

    __slots__ = ("_buffers", "_views")

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self._views: Dict[tuple, np.ndarray] = {}

    def array(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Buffer ``name`` as a ``shape`` array of ``dtype``, cached so a
        repeated batch shape costs one dict lookup.  Views of one name
        under two dtypes of one itemsize alias the same memory."""
        key = (name, shape, dtype)
        view = self._views.get(key)
        if view is None:
            size = int(np.prod(shape))
            buffer = self._buffers.get(name)
            if buffer is None or buffer.size < size:
                capacity = max(size, 1024)
                if buffer is not None:
                    capacity = max(capacity, 2 * buffer.size)
                buffer = np.empty(capacity, dtype=dtype)
                self._buffers[name] = buffer
                self._views.clear()  # views of the replaced buffer
            elif len(self._views) >= 256:
                self._views.clear()
            view = buffer[:size].view(dtype).reshape(shape)
            self._views[key] = view
        return view


_LOCAL = threading.local()


def scratch() -> _ScratchPool:
    """This thread's scratch pool."""
    pool = getattr(_LOCAL, "pool", None)
    if pool is None:
        pool = _ScratchPool()
        _LOCAL.pool = pool
    return pool


def popcount64(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """SWAR popcount over uint64 (numpy before 2.0 lacks a builtin).

    Writes into ``out`` when given; the shifted halves live in this
    thread's scratch pool, so the whole fold runs in place.
    """
    if out is None:
        out = values.copy()
    elif out is not values:
        np.copyto(out, values)
    tmp = scratch().array("popcount_tmp", out.shape, np.uint64)
    np.right_shift(out, np.uint64(1), out=tmp)
    np.bitwise_and(tmp, np.uint64(0x5555555555555555), out=tmp)
    np.subtract(out, tmp, out=out)
    np.right_shift(out, np.uint64(2), out=tmp)
    np.bitwise_and(tmp, np.uint64(0x3333333333333333), out=tmp)
    np.bitwise_and(out, np.uint64(0x3333333333333333), out=out)
    np.add(out, tmp, out=out)
    np.right_shift(out, np.uint64(4), out=tmp)
    np.add(out, tmp, out=out)
    np.bitwise_and(out, np.uint64(0x0F0F0F0F0F0F0F0F), out=out)
    # The SWAR multiply wraps mod 2**64 on purpose: the per-byte counts
    # it folds into the top byte never carry past it.
    np.multiply(out, np.uint64(0x0101010101010101), out=out)  # chisel: noqa[ANZ302]
    np.right_shift(out, np.uint64(56), out=out)
    return out


def write_records(subcell, rows: np.ndarray) -> None:
    """Fill one sub-cell's fused record rows (its slice of the stack).

    One row per bucket pointer; see :data:`RECORD_LANES` for the lane
    layout.  Region pointers are stored as their int64 bit pattern so a
    (test-injected) negative pointer round-trips exactly.
    """
    filters = subcell.filter_table
    rows[:, RECORD_LANES["filter"]] = np.fromiter(
        (0 if value is None else value for value in filters),
        np.uint64, len(rows))
    rows[:, RECORD_LANES["valid"]] = np.fromiter(
        (value is not None and not dirty
         for value, dirty in zip(filters, subcell.dirty_table)),
        np.uint64, len(rows))
    rows[:, RECORD_LANES["bitvector"]] = np.asarray(subcell.bv_table)
    rows[:, RECORD_LANES["regionptr"]] = np.asarray(
        subcell.region_ptr, dtype=np.int64).view(np.uint64)


def _byte_tables(hash_fn) -> np.ndarray:
    """One tabulation hash's byte tables, ``(key bytes, 256)``."""
    return np.array(hash_fn.byte_tables, dtype=np.uint64)


def _group_shape(group, kind: str):
    """(offset hashes, start hash, segment, start range) of one group."""
    if kind == "fuse":
        return (group.offset_hashes, group.start_hash, group.segment_length,
                group.start_range)
    return group.hash_group.hashes, None, group.hash_group.segment_size, 0


def _column(values: Sequence[int], dtype=np.uint64) -> np.ndarray:
    return np.array(values, dtype=dtype).reshape(-1, 1)


def _offsets(sizes: Sequence[int]) -> List[int]:
    """Start offset of each block when ``sizes`` are laid back to back."""
    return list(accumulate(sizes, initial=0))[:-1]


#: The arrays a plan is rebuilt from: the packed hash table and its
#: field widths, or the unpacked byte tables when they do not pack.
_TABLES = ("checksum", "packed", "fields", "hash_tables", "start_tables",
           "table", "records", "arena", "spill_keys", "spill_values")


class CellView(NamedTuple):
    """One sub-cell's slice of a stacked plan (views, not copies)."""

    base: int
    span: int
    capacity: int
    records: np.ndarray
    arena: np.ndarray
    spill_keys: np.ndarray
    spill_values: np.ndarray


class StackedPlan:
    """Every sub-cell of one engine as stacked arrays plus base columns.

    Construct with :meth:`compile` (from an engine) or directly from the
    per-cell scalars ``cells`` and the arrays of :meth:`tables` (the
    shard codec's attach path); everything else is derived.
    """

    def __init__(self, width: int, kind: str, num_hashes: int,
                 cells: Sequence[Dict[str, int]],
                 tables: Dict[str, Optional[np.ndarray]]) -> None:
        self.width = width
        self.kind = kind
        self.num_hashes = num_hashes
        self.cells = [{name: int(cell[name]) for name in CELL_FIELDS}
                      for cell in cells]
        for name in _TABLES:
            setattr(self, name, tables.get(name))
        if self.packed is None:
            self._pack()
        self._derive_columns()
        self._derive_packing()

    @classmethod
    def compile(cls, engine) -> "StackedPlan":
        """Compile a built engine, writing every table in place.

        ``engine.subcells`` is longest-base-first, which is the priority
        order the encoder needs.  Each array is sized once and each
        sub-cell writes its own slice of it: no per-sub-cell copy is
        kept.
        """
        subcells = engine.subcells
        kind = subcells[0].index.groups[0].kind if subcells else "xor"
        cells: List[Dict[str, int]] = []
        for subcell in subcells:
            # Every partition group of a sub-cell is built alike, so the
            # first one gives the shape of all.
            index = subcell.index
            hashes, start, segment, start_range = _group_shape(
                index.groups[0], kind)
            num_hashes = len(hashes)
            hash_fns = [index.checksum_hash, *hashes] + (
                [start] if start is not None else [])
            cells.append({
                "base": subcell.base, "span": subcell.span,
                "capacity": subcell.capacity, "partitions": index.partitions,
                "key_bytes": max(len(fn.byte_tables) for fn in hash_fns),
                "segment": segment, "group_length": len(index.groups[0].table),
                "start_range": start_range,
                "arena_size": len(subcell.result.arena),
                "spill_count": len(index.spillover),
            })
        # Byte tables are (owner, byte, 256): a sub-cell owns its
        # checksum hash's, a partition group its hashes'.
        key_bytes = max([cell["key_bytes"] for cell in cells] or [1])
        groups = sum(cell["partitions"] for cell in cells)
        hash_tables = np.zeros((num_hashes, groups, key_bytes, 256), np.uint64)
        tables = {
            "checksum": np.zeros((len(cells), key_bytes, 256), np.uint64),
            "hash_tables": hash_tables,
            "start_tables": np.zeros((groups, key_bytes, 256), np.uint64)
            if kind == "fuse" else None,
            # Index-Table words are pointers: 32 bits cover any capacity
            # a sub-cell can have, and halve the plan's largest array.
            "table": np.zeros(sum(cell["partitions"] * cell["group_length"]
                                  for cell in cells), np.uint32),
            # A trailing zero record row and a trailing -1 arena entry
            # are where misses read: every gather stays legal unmasked.
            "records": aligned_zeros(
                (sum(cell["capacity"] for cell in cells) + 1, RECORD_WIDTH)),
            "arena": np.full(sum(cell["arena_size"] for cell in cells) + 1,
                             _MISS, np.int64),
        }
        spills = [item for subcell in subcells
                  for item in sorted(subcell.index.spillover)]
        tables["spill_keys"] = np.array([key for key, _ in spills], np.uint64)
        tables["spill_values"] = np.array([value for _, value in spills],
                                          np.uint64)
        group_id = word = row = entry = 0
        for position, (subcell, cell) in enumerate(zip(subcells, cells)):
            checksum = _byte_tables(subcell.index.checksum_hash)
            tables["checksum"][position, :len(checksum)] = checksum
            for group in subcell.index.groups:
                hashes, start, _segment, _range = _group_shape(group, kind)
                for hash_index, hash_fn in enumerate(hashes):
                    planes = _byte_tables(hash_fn)
                    hash_tables[hash_index, group_id, :len(planes)] = planes
                if start is not None:
                    planes = _byte_tables(start)
                    tables["start_tables"][group_id, :len(planes)] = planes
                tables["table"][word:word + len(group.table)] = group.table
                group_id += 1
                word += len(group.table)
            write_records(subcell,
                          tables["records"][row:row + cell["capacity"]])
            tables["arena"][entry:entry + cell["arena_size"]] = \
                subcell.result.arena
            row += cell["capacity"]
            entry += cell["arena_size"]
        return cls(engine.config.width, kind, num_hashes, cells, tables)

    def tables(self) -> Dict[str, np.ndarray]:
        """The arrays the plan is rebuilt from (the constructor's
        ``tables``)."""
        return {name: getattr(self, name) for name in _TABLES
                if getattr(self, name) is not None}

    def _derive_columns(self) -> None:
        """Per-sub-cell constants as broadcast columns.

        ``(cells, 1)`` columns pair with a ``(cells, keys)`` pass;
        ``(bytes, cells, 1)`` and ``(hashes, cells, 1)`` ones pair with
        the per-byte and per-hash stacks of the same pass.
        """
        width = self.width
        field = {name: [cell[name] for cell in self.cells]
                 for name in CELL_FIELDS}
        base, span = field["base"], field["span"]
        partitions, segment = field["partitions"], field["segment"]
        self.flat_checksum = self.checksum.reshape(-1)
        self.flat_records = self.records.reshape(-1)
        self.row_limit = np.uint64(self.records.shape[0] - 1)
        self.arena_limit = np.uint64(len(self.arena) - 1)
        self.key_bytes = field["key_bytes"]
        self.spill_base = _offsets(field["spill_count"])
        self.spilled_cells = [index for index, count
                              in enumerate(field["spill_count"]) if count]
        # A base-0 sub-cell collapses every key to 0 through its zero
        # mask; its shift is clipped to 63, so no pass depends on how an
        # oversized shift count behaves.
        self.key_shift = _column([min(width - b, 63) for b in base])
        self.key_mask = _column([(1 << b) - 1 for b in base])
        # A byte-table word sits at (owner * key bytes + byte) * 256 +
        # value; ``plane_base`` holds byte * 256 for each byte plane.
        stride = 256 * self.checksum.shape[1]
        self.owner_stride = np.uint64(stride)
        self.plane_base = np.arange(0, stride, 256,
                                    dtype=np.uint64).reshape(-1, 1, 1)
        self.checksum_base = _column([stride * index
                                      for index in range(len(base))])
        self.pow2_partitions = all(d & (d - 1) == 0 for d in partitions)
        self.route = _column(
            [d - 1 if self.pow2_partitions else d for d in partitions])
        self.group_base = _column(_offsets(partitions))
        self.segment = _column(segment)
        self.group_length = _column(field["group_length"])
        self.table_base = _column(_offsets(
            [d * length for d, length
             in zip(partitions, field["group_length"])]))
        self.start_range = _column(field["start_range"])
        self.hash_offset = np.arange(
            self.num_hashes, dtype=np.uint64).reshape(-1, 1, 1) * self.segment
        self.capacity = _column(field["capacity"])
        self.row_base = _column(_offsets(field["capacity"]))
        self.expansion_shift = _column(
            [min(width - b - s, 63) for b, s in zip(base, span)])
        self.expansion_mask = _column([(1 << s) - 1 for s in span])
        self.arena_base = _column(_offsets(field["arena_size"]))
        self.arena_size = _column(field["arena_size"])

    def _pack(self) -> None:
        """Replace the byte tables with one packed table if they fit.

        Tabulation entries are just wide enough for their segment and an
        XOR fold never carries between bit fields, so the k (plus, for
        fuse, the start hash's) tables usually fit disjoint fields of
        one uint64 word.  Widths come from the table maxima: a family
        with wider entries keeps the unpacked tables.
        """
        planes = list(self.hash_tables)
        if self.start_tables is not None:
            planes.append(self.start_tables)
        widths = [max(1, int(plane.max(initial=0)).bit_length())
                  for plane in planes]
        if sum(widths[:self.num_hashes]) > _PACK_BITS:
            return
        if sum(widths) > _PACK_BITS:
            # The start hash keeps its own gathers; only the offset
            # hashes share the packed one.
            planes, widths = planes[:-1], widths[:-1]
        else:
            self.start_tables = None
        self.packed = np.zeros_like(planes[0])
        for plane, shift in zip(planes, _offsets(widths)):
            self.packed |= plane << np.uint64(shift)
        self.fields = np.array(widths, dtype=np.uint64)
        self.hash_tables = None

    def _derive_packing(self) -> None:
        """Field shifts and masks, and ``condsub_ok``: folded hashes are
        < 2 * segment in every group (from each field's per-group
        maximum), so the modulus can be one subtract and a minimum
        instead of a 64-bit division (~5x cheaper per numpy call)."""
        self.flat_packed = self.packed_shifts = self.packed_masks = None
        self.start_shift = self.start_mask = None
        planes = self.hash_tables
        if self.packed is not None:
            widths = [int(width) for width in self.fields]
            shifts = np.array(_offsets(widths), dtype=np.uint64)
            masks = np.array([(1 << width) - 1 for width in widths],
                             dtype=np.uint64)
            hashes = self.num_hashes
            self.flat_packed = self.packed.reshape(-1)
            self.packed_shifts = shifts[:hashes].reshape(-1, 1, 1)
            self.packed_masks = masks[:hashes].reshape(-1, 1, 1)
            if len(widths) > hashes:
                self.start_shift, self.start_mask = shifts[-1], masks[-1]
            planes = (self.packed >> shifts[:hashes, None, None, None]) \
                & masks[:hashes, None, None, None]
        segments = np.repeat([cell["segment"] for cell in self.cells],
                             [cell["partitions"] for cell in self.cells])
        group_max = planes.reshape(len(planes), len(segments), -1).max(
            axis=2, initial=0)
        self.condsub_ok = all(
            1 << max(int(value).bit_length() - 1, 0) <= int(segment)
            for row in group_max for value, segment in zip(row, segments))

    def cell_view(self, index: int) -> CellView:
        """Sub-cell ``index``'s slices of the stacked arrays."""
        cell = self.cells[index]
        row = int(self.row_base[index, 0])
        entry = int(self.arena_base[index, 0])
        spill = slice(self.spill_base[index],
                      self.spill_base[index] + cell["spill_count"])
        return CellView(
            cell["base"], cell["span"], cell["capacity"],
            self.records[row:row + cell["capacity"]],
            self.arena[entry:entry + cell["arena_size"]],
            self.spill_keys[spill], self.spill_values[spill])

    def cell_views(self) -> List[CellView]:
        return [self.cell_view(index) for index in range(len(self.cells))]

    # -- lookup --------------------------------------------------------------

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Next hops for a uint64 key batch (a fresh int64 array); -1 = miss.

        Each pass probes a run of sub-cells for every pending key, and
        the priority encoder takes the first (longest-base) hit of each
        key.  Keys still unresolved move on to the next run.
        """
        result = np.full(keys.size, _MISS, dtype=np.int64)
        pool = scratch()
        pending = np.arange(keys.size)  # result position of each key
        first = 0
        while first < len(self.cells) and keys.size:
            size = keys.size
            last = min(len(self.cells), first + max(1, PAIR_BUDGET // size))
            answers, valid = self._pass(keys, first, last, pool)
            # The Fig. 6 priority encoder: each key takes its first
            # (longest-base) valid row.  Invalid rows hold -1, so the
            # last row is the default and earlier hits overwrite it.
            found = answers[-1]
            for row in range(last - first - 2, -1, -1):
                np.copyto(found, answers[row], where=valid[row])
            result[pending] = found
            first = last
            if first < len(self.cells):
                unresolved = ~np.logical_or.reduce(valid, axis=0)
                keys, pending = keys[unresolved], pending[unresolved]
        return result

    def _pass(self, keys: np.ndarray, first: int, last: int,
              pool: _ScratchPool):
        """Answers and hit mask of sub-cells ``[first, last)``, one row each.

        Both are ``(last - first, keys.size)`` scratch-backed arrays,
        valid until this thread's next pass.
        """
        cells = slice(first, last)
        shape = (last - first, keys.size)
        num_bytes = max(self.key_bytes[cells])
        # Collapse: key >> (width - base), masked to the base's bits.
        collapsed = pool.array("collapsed", shape, np.uint64)
        np.right_shift(keys, self.key_shift[cells], out=collapsed)
        np.bitwise_and(collapsed, self.key_mask[cells], out=collapsed)
        # Tabulation hashing consumes the collapsed key byte by byte:
        # planes[p] = p * 256 + byte p of every (cell, key), built by one
        # strided widening add over every byte plane at once.
        planes = pool.array("planes", (num_bytes,) + shape, np.uint64)
        octets = collapsed.view(np.uint8).reshape(shape + (8,))
        if not _LITTLE_ENDIAN:
            octets = octets[..., ::-1]  # byte 0 is the low-order one
        np.add(octets[..., :num_bytes].transpose(2, 0, 1),
               self.plane_base[:num_bytes], out=planes)
        pointers = self._decode(planes, cells, pool)
        # Spillover overrides (exact-match TCAM): same priority as the
        # scalar path — the TCAM answer replaces the decoded pointer and
        # then flows through the same Filter/bit-vector/range checks.
        for cell in self.spilled_cells:
            if first <= cell < last:
                start = self.spill_base[cell]
                stop = start + self.cells[cell]["spill_count"]
                spill_keys = self.spill_keys[start:stop]
                row = collapsed[cell - first]
                slot = np.searchsorted(spill_keys, row)
                np.minimum(slot, len(spill_keys) - 1, out=slot)
                np.copyto(pointers[cell - first],
                          self.spill_values[start:stop].take(slot),
                          where=spill_keys.take(slot) == row)
        # Bounds + one gather of the four fused-record lanes.  Pointers
        # past a sub-cell's capacity are misses; their row is clamped
        # to the trailing zero row so the gather stays legal.
        valid = pool.array("valid", shape, bool)
        np.less(pointers, self.capacity[cells], out=valid)
        row = pool.array("row", shape, np.uint64)
        np.add(pointers, self.row_base[cells], out=row)
        np.minimum(row, self.row_limit, out=row)
        np.left_shift(row, _ROW_SHIFT, out=row)  # × RECORD_WIDTH
        lanes = (len(_LANES),) + shape
        np.add(row, _LANES, out=pool.array("lane_index", lanes, np.uint64))
        fields = pool.array("fields", lanes, np.uint64)
        self.flat_records.take(
            pool.array("lane_index", lanes, np.int64), out=fields, mode=_CLIP)
        fvalues, flags, vectors, address = fields
        # Filter-table check: key compare & present-and-not-dirty.
        hit = pool.array("hit", shape, bool)
        np.equal(fvalues, collapsed, out=hit)
        np.logical_and(valid, hit, out=valid)
        np.not_equal(flags, _ZERO, out=hit)
        np.logical_and(valid, hit, out=valid)
        # Bit-vector test and rank of the key's expansion bits.
        expansion = pool.array("expansion", shape, np.uint64)
        np.right_shift(keys, self.expansion_shift[cells], out=expansion)
        np.bitwise_and(expansion, self.expansion_mask[cells], out=expansion)
        # Shift the key's expansion bit to the top (a shift of at most 63,
        # overflow-safe at span 6): the top bit is the bit-vector test and
        # the popcount is the inclusive rank of bits [0, expansion].
        word = pool.array("word", shape, np.uint64)
        np.subtract(_U63, expansion, out=word)
        np.left_shift(vectors, word, out=word)
        np.greater_equal(word, _TOP_BIT, out=hit)
        np.logical_and(valid, hit, out=valid)
        if _BITWISE_COUNT is not None:
            _BITWISE_COUNT(word, out=word)
        else:
            popcount64(word, out=word)
        # Result address = region + rank - 1, in the region pointer's
        # uint64 bit pattern: a negative or past-the-end address wraps
        # to >= arena_size, so one unsigned compare bounds both sides
        # (a miss, never a read of a neighbour's arena).
        np.add(address, word, out=address)  # chisel: noqa[ANZ302]
        np.subtract(address, _ONE, out=address)
        np.less(address, self.arena_size[cells], out=hit)
        np.logical_and(valid, hit, out=valid)
        np.add(address, self.arena_base[cells], out=address)
        np.logical_not(valid, out=hit)
        np.copyto(address, self.arena_limit, where=hit)  # the -1 sentinel
        answers = pool.array("answers", shape, np.int64)
        self.arena.take(address.view(np.int64), out=answers, mode=_CLIP)
        return answers, valid

    def _decode(self, planes: np.ndarray, cells: slice,
                pool: _ScratchPool) -> np.ndarray:
        """Checksum-route and XOR-decode pointers for every (cell, key)."""
        stack = planes.shape
        shape = stack[1:]
        words = pool.array("words", stack, np.uint64)
        index = pool.array("index", stack, np.uint64)
        gather = pool.array("index", stack, np.int64)
        # Checksum routing: one gather over every (byte, cell, key).
        np.add(planes, self.checksum_base[cells], out=index)
        self.flat_checksum.take(gather, out=words, mode=_CLIP)
        group = _xor_fold(words, pool.array("group", shape, np.uint64))
        if self.pow2_partitions:
            np.bitwise_and(group, self.route[cells], out=group)
        else:
            np.mod(group, self.route[cells], out=group)
        # The group's words start at table_base + group * group_length.
        offsets = pool.array("offsets", shape, np.uint64)
        np.multiply(group, self.group_length[cells], out=offsets)  # chisel: noqa[ANZ302]
        np.add(offsets, self.table_base[cells], out=offsets)
        # Partition routing folds into the hash gather index: the
        # group's byte tables start at (group_base + group) * stride.
        np.add(group, self.group_base[cells], out=group)
        np.multiply(group, self.owner_stride, out=group)  # chisel: noqa[ANZ302]
        np.add(planes, group, out=index)
        packed = None
        if self.flat_packed is not None:
            # One gather per key byte decodes every hash at once: the
            # fields XOR-fold independently (no carries), and each hash
            # unpacks below with a shift + mask.
            self.flat_packed.take(gather, out=words, mode=_CLIP)
            packed = _xor_fold(words, pool.array("packed", shape, np.uint64))
        hashes = (self.num_hashes,) + shape
        accumulator = pool.array("accumulator", hashes, np.uint64)
        if packed is not None:
            np.right_shift(packed, self.packed_shifts, out=accumulator)
            np.bitwise_and(accumulator, self.packed_masks, out=accumulator)
        else:
            for hash_index in range(self.num_hashes):
                self.hash_tables[hash_index].reshape(-1).take(
                    gather, out=words, mode=_CLIP)
                _xor_fold(words, accumulator[hash_index])
        if self.kind == "fuse":
            start = pool.array("start", shape, np.uint64)
            if packed is not None and self.start_shift is not None:
                np.right_shift(packed, self.start_shift, out=start)
                np.bitwise_and(start, self.start_mask, out=start)
            else:
                self.start_tables.reshape(-1).take(
                    gather, out=words, mode=_CLIP)
                _xor_fold(words, start)
            # The start hash is deliberately wider than its range (the
            # builder pads by 4 bits), so it keeps the true modulus;
            # slot = (start + i) * segment + offset_hash + group offset.
            np.mod(start, self.start_range[cells], out=start)
            np.multiply(start, self.segment[cells], out=start)  # chisel: noqa[ANZ302]
            np.add(offsets, start, out=offsets)
        else:
            segment = self.segment[cells]
            if self.condsub_ok:
                # Folded hashes are < 2 * segment (out_bits sizing), so
                # the modulus is one conditional subtract: the wrapped
                # difference only wins the minimum when the value was
                # >= segment.
                wrapped = pool.array("wrapped", hashes, np.uint64)
                np.subtract(accumulator, segment, out=wrapped)
                np.minimum(accumulator, wrapped, out=accumulator)
            else:
                np.mod(accumulator, segment, out=accumulator)
        # slot = hash + hash_index * segment + group offset; the sums stay
        # far below 2**64 (tables are megabytes, not exabytes).
        np.add(accumulator, self.hash_offset[:, cells], out=accumulator)
        np.add(accumulator, offsets, out=accumulator)
        found = pool.array("found", hashes, np.uint32)
        self.table.take(
            pool.array("accumulator", hashes, np.int64), out=found, mode=_CLIP)
        return _xor_fold(found, pool.array("pointers", shape, np.uint64))


def _xor_fold(stack: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` = XOR of ``stack`` along its first axis."""
    if len(stack) == 1:
        np.copyto(out, stack[0])
    else:
        np.bitwise_xor(stack[0], stack[1], out=out)
    for plane in stack[2:]:
        np.bitwise_xor(out, plane, out=out)
    return out
