"""Seeded inputs and the reference LPM every answer is checked against.

Everything here is generated from ``--seed`` before any timing starts;
the program under test only ever receives the generated table, keys and
update operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.binary_trie import BinaryTrie
from repro.core.updates import ANNOUNCE
from repro.prefix import Prefix, RoutingTable
from repro.router.fib import _default_naming
from repro.router.nexthop import NextHopInfo
from repro.workloads import synthesize_trace, synthetic_table

#: (op, prefix, gateway, interface); gateway and interface are empty for
#: a withdraw.
Update = Tuple[str, Prefix, str, str]


def update_ops(table: RoutingTable, count: int, seed: int) -> List[Update]:
    """The rrc00 ("Amsterdam") mix, which is ``synthesize_trace``'s default."""
    ops: List[Update] = []
    for op in synthesize_trace(table, count, seed=seed):
        if op.op == ANNOUNCE:
            ops.append((ANNOUNCE, op.prefix, f"10.8.{op.next_hop % 256}.1",
                        f"eth{op.next_hop % 8}"))
        else:
            ops.append((op.op, op.prefix, "", ""))
    return ops


def prefix_arrays(table: RoutingTable) -> Tuple[np.ndarray, np.ndarray]:
    values = np.array([prefix.value for prefix, _ in table], dtype=np.uint64)
    lengths = np.array([prefix.length for prefix, _ in table], dtype=np.uint64)
    return values, lengths


def keys_under(values: np.ndarray, lengths: np.ndarray, width: int,
               rng: np.random.Generator) -> np.ndarray:
    """One random address inside each given prefix."""
    shift = np.uint64(width) - lengths
    low = rng.integers(0, 1 << width, size=len(values), dtype=np.uint64)
    mask = (np.uint64(1) << shift) - np.uint64(1)
    return (values << shift) | (low & mask)


def uniform_keys(table: RoutingTable, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Destinations under routed prefixes, every prefix equally likely."""
    values, lengths = prefix_arrays(table)
    pick = rng.integers(0, len(values), size=count)
    return keys_under(values[pick], lengths[pick], table.width, rng)


def zipf_keys(table: RoutingTable, count: int, rng: np.random.Generator,
              exponent: float, unrouted_share: float,
              reference: "Reference") -> np.ndarray:
    """Zipf-popular routed destinations plus a fixed share of unrouted ones.

    Which prefixes are popular is part of the fixed traffic profile (like
    the table); ``rng`` draws the destinations from it.
    """
    values, lengths = prefix_arrays(table)
    ranks = np.random.default_rng(TABLE_SEED).permutation(len(values))
    weights = 1.0 / np.arange(1, len(values) + 1, dtype=float) ** exponent
    pick = ranks[rng.choice(len(values), size=count, p=weights / weights.sum())]
    keys = keys_under(values[pick], lengths[pick], table.width, rng)
    unrouted = int(count * unrouted_share)
    misses: List[int] = []
    while len(misses) < unrouted:
        key = int(rng.integers(0, 1 << table.width, dtype=np.uint64))
        if reference.answer(key) is None:
            misses.append(key)
    positions = rng.choice(count, size=unrouted, replace=False)
    keys[positions] = np.array(misses, dtype=np.uint64)
    return keys


def probe_keys(updates: Sequence[Update], width: int,
               rng: np.random.Generator) -> np.ndarray:
    """One address under each distinct prefix the updates touched."""
    seen = sorted({(prefix.value, prefix.length)
                   for _op, prefix, _gw, _if in updates})
    values = np.array([value for value, _ in seen], dtype=np.uint64)
    lengths = np.array([length for _, length in seen], dtype=np.uint64)
    return keys_under(values, lengths, width, rng)


class Reference:
    """Binary-trie LPM kept in step with every applied update.

    It shares no code with the Chisel engine, so agreement with it is
    the correctness check for every serving plane.
    """

    def __init__(self, table: RoutingTable):
        self.trie = BinaryTrie(table.width)
        # Table next hops become (gateway, interface) pairs through the
        # naming ``ForwardingEngine.from_table`` applies by default, which
        # every plane (and the replica's bootstrap) uses.
        for prefix, next_hop in table:
            self.trie.insert(prefix, _default_naming(next_hop))

    def apply(self, update: Update) -> None:
        op, prefix, gateway, interface = update
        if op == ANNOUNCE:
            self.trie.insert(prefix, NextHopInfo(gateway, interface))
        else:
            self.trie.remove(prefix)

    def answer(self, key: int) -> Optional[NextHopInfo]:
        return self.trie.lookup(key)

    def mismatches(self, keys: Sequence[int],
                   answers: Sequence[Optional[NextHopInfo]]) -> int:
        return sum(1 for key, got in zip(keys, answers)
                   if got != self.trie.lookup(int(key)))


@dataclass
class Inputs:
    table: RoutingTable
    reference: Reference
    batches: np.ndarray        # (pool rows, batch size) destination keys
    updates: List[Update]
    probe: np.ndarray          # keys for the set-up's first answer


#: The routing table is the same in every run, like a router's RIB
#: snapshot; ``--seed`` drives the destinations and the update trace.
#: Tables from different seeds differ by up to a quarter in the cost of
#: a 64-key batch, which would drown run-to-run comparisons in table luck.
TABLE_SEED = 2006


def make_inputs(seed: int, table_size: int, batch_size: int, pool_rows: int,
                update_count: int, zipf: Optional[float],
                unrouted_share: float = 0.0) -> Inputs:
    table = synthetic_table(table_size, seed=TABLE_SEED)
    reference = Reference(table)
    rng = np.random.default_rng(seed)
    count = batch_size * pool_rows
    if zipf is None:
        keys = uniform_keys(table, count, rng)
    else:
        keys = zipf_keys(table, count, rng, zipf, unrouted_share, reference)
    updates = update_ops(table, update_count, seed + 1) if update_count else []
    return Inputs(table=table, reference=reference,
                  batches=keys.reshape(pool_rows, batch_size),
                  updates=updates, probe=uniform_keys(table, 256, rng))
