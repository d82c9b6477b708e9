"""Vectorized batch lookups (numpy), for software-throughput use cases.

The scalar ``ChiselLPM.lookup`` models the hardware datapath one key at a
time; offline consumers (trace analysis, simulation sweeps, test oracles)
want millions of lookups, and every step of the datapath — tabulation
hashing, the XOR decode, the filter compare, the bit-vector rank — is a
pure array operation.  ``BatchLookup`` compiles a built engine's tables
into numpy arrays once and then answers whole key batches at a time,
typically one to two orders of magnitude faster per key.

Restrictions: key widths up to 64 bits (IPv4 comfortably; not IPv6 —
numpy has no 128-bit integers) and a snapshot semantics: rebuild the
``BatchLookup`` after updating the engine (``stale`` turns True when the
engine's update counter moves).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..prefix.table import NextHop
from .chisel import ChiselLPM
from .flatpath import FlatSubCellPlan

_MISS = np.int64(-1)

_KEY_LIMIT = 2 ** 64


def normalize_keys(keys) -> np.ndarray:
    """Keys as a 1-D uint64 array, with clear errors for bad input.

    Accepts a scalar, any integer sequence, or an integer ndarray.  The
    raw ``np.asarray(keys, dtype=np.uint64)`` this replaces had three
    sharp edges: 0-d input crashed the batch loop downstream
    (``result[indices]`` on a 0-d array raises), negative Python ints
    raised an opaque ``OverflowError``, and negative values inside a
    signed ndarray silently wrapped modulo 2**64 — answering a lookup
    for a key the caller never asked about.
    """
    array = np.asarray(keys)
    if array.size == 0:
        # An empty batch has no keys to validate — ``[]`` arrives as
        # float64 and must still be accepted.
        return np.empty(0, dtype=np.uint64)
    kind = array.dtype.kind
    if kind == "f" and not isinstance(keys, np.ndarray):
        # numpy quietly promotes a Python sequence holding ints beyond
        # int64 range to float64 (losing exactness past 2**53); re-read
        # the original values exactly through the object path.
        array = np.asarray(keys, dtype=object)
        kind = "O"
    if kind not in "iuO":
        raise ValueError(
            f"keys must be integers, got dtype {array.dtype}"
        )
    if array.ndim != 1:
        array = array.reshape(-1)
    if kind == "u":
        return array if array.dtype == np.uint64 \
            else array.astype(np.uint64)
    if kind == "i":
        if array.size and int(array.min()) < 0:
            raise ValueError(
                f"keys must be non-negative, got {int(array.min())}"
            )
        return array.astype(np.uint64)
    # Object dtype: Python ints numpy could not narrow (too large for
    # int64, negative alongside huge, or outright non-integers).
    normalized = np.empty(array.size, dtype=np.uint64)
    for position, value in enumerate(array.tolist()):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"keys must be integers, got {type(value).__name__}"
            )
        if value < 0 or value >= _KEY_LIMIT:
            raise ValueError(
                f"key {value} outside the representable range [0, 2**64)"
            )
        normalized[position] = value
    return normalized


class BatchLookup:
    """Compiled, read-only batch-lookup view of a built engine.

    Each sub-cell compiles to one :class:`FlatSubCellPlan` (fused
    per-bucket records + one-pass decode, ``core.flatpath``), bit-exact
    with the scalar ``ChiselLPM.lookup``.
    """

    def __init__(self, engine: ChiselLPM):
        if engine.config.width > 64:
            raise ValueError("batch lookups support key widths up to 64 bits")
        self.engine = engine
        self.width = engine.config.width
        self._words_at_build = engine.words_written()
        # engine.subcells is already longest-base-first.
        self._plans = [
            FlatSubCellPlan.compile(subcell, self.width)
            for subcell in engine.subcells
        ]

    @property
    def stale(self) -> bool:
        """True once the engine has been updated since compilation."""
        return self.engine.words_written() != self._words_at_build

    def lookup_batch(self, keys) -> np.ndarray:
        """Next hops for a batch of keys (1-D int64); -1 marks misses.

        Input is normalized to 1-D: a scalar key yields a 1-element
        result.  Negative or >=2**64 keys raise ``ValueError``.
        """
        key_array = normalize_keys(keys)
        result = np.full(key_array.shape, _MISS, dtype=np.int64)
        unresolved = np.ones(key_array.shape, dtype=bool)
        for plan in self._plans:
            if not unresolved.any():
                break
            answers = plan.lookup(key_array[unresolved])
            hit = answers != _MISS
            indices = np.flatnonzero(unresolved)[hit]
            result[indices] = answers[hit]
            unresolved[indices] = False
        return result

    def lookup_many(self, keys) -> List[Optional[NextHop]]:
        """Convenience: python list with None for misses."""
        return [
            None if value == _MISS else int(value)
            for value in self.lookup_batch(keys)
        ]
