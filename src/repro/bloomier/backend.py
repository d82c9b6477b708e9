"""Pluggable Index Table backends (`IndexBackend`).

The paper's Bloomier filter (§3.1/§4.2) is one point in a design space
that has moved since 2006: Graf & Lemire's xor filters and the
spatially-coupled binary-fuse / "Fuse XORier" constructions peel at far
lower overprovisioning.  Everything above this layer — the partitioned
wrapper with its spillover TCAM, the sub-cell datapath, the batch plan
compiler, the shard codec, the scrub engine, the invariant verifier —
only relies on a small shared surface, captured here as the
:class:`IndexBackend` protocol:

* a *static function* ``setup(items)`` that XOR-encodes key -> value and
  reports what spilled (:class:`SetupReport`),
* ``lookup(key)``: XOR of the table words over ``neighborhood(key)``
  (garbage for non-members; a Filter Table eliminates those, §4.2),
* O(1) ``try_insert`` via per-slot refcount singletons (§4.4.2),
* the raw ``table`` words, a software ``shadow`` of the encoded
  function (§4.4), and ``storage_bits()`` hardware accounting.

:class:`XorIndexTable` implements that surface once over two hooks —
``neighborhood`` and the rehash/rollback trio — so a concrete backend
only supplies its hash geometry.  ``BloomierFilter`` (3 independent
segments, `bloomier/filter.py`) and ``FuseIndexBackend`` (3 consecutive
coupled segments, `bloomier/fuse.py`) register themselves in
:data:`BACKENDS`; ``make_backend`` is how the partitioned wrapper and
``ChiselConfig.index_backend`` pick one by name.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import (
    Callable, Dict, List, Mapping, MutableSequence, Optional, Sequence,
)

try:  # Protocol is typing-only; keep 3.7-era importers alive.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from ..wordarray import ArraysPickleAsLists
from .peeling import PeelStallError, peel


class BloomierSetupError(RuntimeError):
    """Setup failed to converge within the rehash and spill budgets."""


@dataclass
class SetupReport:
    """What a (re)setup did: keys encoded, keys spilled, rehashes needed."""

    encoded: int
    spilled: Dict[int, int]
    rehash_attempts: int


@runtime_checkable
class IndexBackend(Protocol):
    """The surface every Index Table backend provides.

    Values must XOR-decode: ``lookup(key)`` is the XOR of ``table`` over
    ``neighborhood(key)``, and ``neighborhood`` must return ``num_hashes``
    pairwise-distinct slots (the peeling argument and the scrub engine's
    group-rebuild repair both rely on it).
    """

    capacity: int
    key_bits: int
    value_bits: int
    num_hashes: int
    num_slots: int
    max_rehash: int
    max_spill: int
    kind: str

    def setup(self, items: Mapping[int, int]) -> SetupReport: ...

    def lookup(self, key: int) -> int: ...

    def neighborhood(self, key: int) -> Sequence[int]: ...

    def find_singleton(self, key: int) -> Optional[int]: ...

    def try_insert(self, key: int, value: int) -> bool: ...

    def storage_bits(self) -> int: ...

    def load_factor(self) -> float: ...

    @property
    def shadow(self) -> Dict[int, int]: ...

    @property
    def table(self) -> MutableSequence[int]: ...


def _zero_words(num_slots: int) -> "array[int]":
    """Index-Table words as a uint64 array (no int object per word)."""
    return array("Q", bytes(8 * num_slots))


def _zero_counts(num_slots: int) -> "array[int]":
    """Per-slot key counts: 2 bytes a slot instead of a list's 8.

    A slot's count is the number of encoded keys hashing to it (about
    ``num_hashes / slots_per_key`` on average), far below 2**16; an
    overflow would raise, never wrap.
    """
    return array("H", bytes(2 * num_slots))


class XorIndexTable(ArraysPickleAsLists):
    """Shared machinery for XOR-decoded collision-free index backends.

    Subclasses own the hash geometry and implement:

    * ``neighborhood(key)`` — the k pairwise-distinct slots of ``key``;
    * ``_rehash()`` — draw fresh hash state after a peel stall;
    * ``_hash_state()`` / ``_restore_hash_state(state)`` — snapshot and
      roll back that state, so a failed setup never leaves new hash
      functions over an old table (every encoded key would silently
      decode garbage — see ``tests/test_bloomier_regressions.py``).
    """

    kind: str = "xor"

    __slots__ = (
        "capacity", "key_bits", "value_bits", "num_hashes",
        "max_rehash", "max_spill", "_rng", "num_slots",
        "_table", "_refcount", "_shadow",
    )

    def __init__(self, capacity: int, key_bits: int, value_bits: int,
                 num_hashes: int, num_slots: int,
                 rng: Optional[random.Random],
                 max_rehash: int, max_spill: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.key_bits = key_bits
        self.value_bits = value_bits
        self.num_hashes = num_hashes
        self.max_rehash = max_rehash
        self.max_spill = max_spill
        self._rng = rng or random.Random(0)
        self.num_slots = num_slots
        self._table = _zero_words(num_slots)
        self._refcount = _zero_counts(num_slots)
        # Software shadow of the encoded function (§4.4: the Network
        # Processor keeps shadow copies for incremental updates and
        # re-setups).  Not counted in hardware storage.
        self._shadow: Dict[int, int] = {}

    # -- hashing hooks (subclass responsibility) -----------------------------

    def neighborhood(self, key: int) -> Sequence[int]:
        """HN(key): the k distinct Index Table slots of ``key``."""
        raise NotImplementedError

    def _rehash(self) -> None:
        raise NotImplementedError

    def _hash_state(self) -> object:
        raise NotImplementedError

    def _restore_hash_state(self, state: object) -> None:
        raise NotImplementedError

    # -- setup (Γ ordering + encoding) --------------------------------------

    def setup(self, items: Mapping[int, int]) -> SetupReport:
        """Encode ``items`` (key -> value) from scratch.

        Rehashes with fresh hash state on a stall, up to ``max_rehash``
        times; if stalls persist, up to ``max_spill`` keys are evicted and
        reported for the caller's spillover TCAM.  On failure the hash
        state active *before* the first rehash is restored, so the table
        still decodes whatever the last successful setup encoded.
        """
        if len(items) > self.capacity:
            raise BloomierSetupError(
                f"{len(items)} keys exceed capacity {self.capacity}"
            )
        keys = list(items)
        attempts = 0
        saved_hashes: Optional[object] = None
        while True:
            neighborhoods = [self.neighborhood(key) for key in keys]
            try:
                spill_budget = 0 if attempts < self.max_rehash else self.max_spill
                result = peel(neighborhoods, self.num_slots, spill_budget)
                break
            except PeelStallError:
                attempts += 1
                if attempts > self.max_rehash:
                    # Roll the hash state back before raising: the table
                    # was never rewritten, so leaving the rehashed
                    # matrices in place would silently skew every
                    # already-encoded key's decode.
                    if saved_hashes is not None:
                        self._restore_hash_state(saved_hashes)
                    raise BloomierSetupError(
                        f"setup failed after {attempts} rehashes"
                    ) from None
                if saved_hashes is None:
                    saved_hashes = self._hash_state()
                self._rehash()

        self._table = _zero_words(self.num_slots)
        self._refcount = _zero_counts(self.num_slots)
        self._shadow = {}
        spilled_set = set(result.spilled)
        for key_index, tau in result.encoding_order():
            key = keys[key_index]
            self._encode_at(key, neighborhoods[key_index], tau, items[key])
            self._shadow[key] = items[key]
        spilled = {keys[i]: items[keys[i]] for i in spilled_set}
        return SetupReport(
            encoded=len(keys) - len(spilled),
            spilled=spilled,
            rehash_attempts=attempts,
        )

    def _encode_at(self, key: int, slots: Sequence[int], tau: int,
                   value: int) -> None:
        accumulator = value
        for slot in slots:
            if slot != tau:
                accumulator ^= self._table[slot]
            self._refcount[slot] += 1
        self._table[tau] = accumulator

    # -- lookup (Eq. 2) ------------------------------------------------------

    def lookup(self, key: int) -> int:
        """XOR of the Index Table over HN(key); garbage for non-members."""
        value = 0
        table = self._table
        for slot in self.neighborhood(key):
            value ^= table[slot]
        return value

    # -- incremental insertion (§4.4.2 "singleton" case) ---------------------

    def find_singleton(self, key: int) -> Optional[int]:
        """A zero-refcount slot in HN(key), or None."""
        for slot in self.neighborhood(key):
            if self._refcount[slot] == 0:
                return slot
        return None

    def try_insert(self, key: int, value: int) -> bool:
        """Encode a new key in O(1) if it has a singleton slot.

        Writing a zero-refcount slot cannot disturb any encoded key, because
        no encoded key's neighborhood includes it.
        """
        if key in self._shadow:
            raise KeyError(f"key {key:#x} already encoded")
        if len(self._shadow) >= self.capacity:
            return False
        slots = self.neighborhood(key)
        tau = None
        for slot in slots:
            if self._refcount[slot] == 0:
                tau = slot
                break
        if tau is None:
            return False
        self._table[tau] = 0
        self._encode_at(key, slots, tau, value)
        self._shadow[key] = value
        return True

    # -- shadow bookkeeping ---------------------------------------------------

    @property
    def shadow(self) -> Dict[int, int]:
        """The software copy of the encoded function (read-only use)."""
        return self._shadow

    @property
    def table(self) -> MutableSequence[int]:
        """The raw Index Table words D (read-only use)."""
        return self._table

    def __len__(self) -> int:
        return len(self._shadow)

    def __contains__(self, key: int) -> bool:
        return key in self._shadow

    # -- accounting ------------------------------------------------------------

    def storage_bits(self) -> int:
        """Hardware Index Table bits: num_slots x value width."""
        return self.num_slots * self.value_bits

    def load_factor(self) -> float:
        return len(self._shadow) / self.capacity


#: name -> constructor; populated by `bloomier/filter.py` ("bloomier")
#: and `bloomier/fuse.py` ("fuse").
BACKENDS: Dict[str, Callable[..., IndexBackend]] = {}


def register_backend(name: str,
                     factory: Callable[..., IndexBackend]) -> None:
    """Add a backend constructor under ``name`` (idempotent re-register)."""
    BACKENDS[name] = factory


def backend_names() -> List[str]:
    """Registered backend names, importing the built-ins first."""
    _load_builtin_backends()
    return sorted(BACKENDS)


def make_backend(name: str, **kwargs) -> IndexBackend:
    """Construct a registered backend; all backends share one signature
    (capacity, key_bits, value_bits, num_hashes, slots_per_key, rng,
    max_rehash, max_spill, hash_family)."""
    _load_builtin_backends()
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown index backend {name!r}; known: {sorted(BACKENDS)}"
        ) from None
    return factory(**kwargs)


def _load_builtin_backends() -> None:
    """Import the built-in backend modules so they self-register."""
    if "bloomier" not in BACKENDS or "fuse" not in BACKENDS:
        from . import filter as _filter  # noqa: F401
        from . import fuse as _fuse  # noqa: F401
