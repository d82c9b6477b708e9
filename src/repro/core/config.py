"""Configuration for the Chisel LPM engine."""

from __future__ import annotations

from dataclasses import dataclass

from ..prefix.prefix import IPV4_WIDTH


@dataclass(frozen=True)
class ChiselConfig:
    """Design parameters (paper defaults in parentheses).

    ``stride``           maximum bits collapsed per prefix (4, §6.2).
    ``num_hashes``       Bloomier hash functions k (3, §4.1).
    ``slots_per_key``    Index Table slots per key m/n (3, §4.1).
    ``partitions``       logical Index Table groups d for bounded re-setup
                         (§4.4.2; the paper leaves d a knob — 16 here).
    ``spill_capacity``   spillover TCAM entries (16–32, §4.1).
    ``coverage``         "greedy": sub-cells from populated lengths only
                         (§4.3.3, used for the static storage studies);
                         "full": tile every length from 0 to the width so any
                         later announce has a home (the deployable default);
                         "optimal": DP-chosen interval boundaries minimizing
                         average-case storage (static tables).
    ``capacity_slack``   head-room factor when sizing each sub-cell from its
                         as-built load, leaving room for announces.
    ``region_slack``     Result Table regions are over-provisioned to the
                         next power of two ("slightly over-provisioned to
                         accommodate future adds", §4.3.2); this floor keeps
                         tiny regions from reallocating constantly.
    ``next_hop_bits``    width of a next-hop identifier.
    ``seed``             RNG seed for every hash matrix (reproducibility).
    ``index_backend``    Index Table construction: "bloomier" (the paper's
                         3-segment filter, §3.1) or "fuse" (spatially
                         coupled binary-fuse segments — same lookup
                         datapath, fewer slots; docs/BACKENDS.md).
    """

    width: int = IPV4_WIDTH
    stride: int = 4
    num_hashes: int = 3
    slots_per_key: int = 3
    partitions: int = 16
    spill_capacity: int = 32
    coverage: str = "full"
    capacity_slack: float = 1.5
    region_slack: int = 1
    next_hop_bits: int = 16
    seed: int = 0x5EED
    max_rehash: int = 8
    index_backend: str = "bloomier"

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if self.coverage not in ("greedy", "full", "optimal"):
            raise ValueError(f"unknown coverage mode {self.coverage!r}")
        if self.slots_per_key < self.num_hashes:
            raise ValueError("slots_per_key (m/n) must be >= num_hashes (k)")
        from ..bloomier.backend import backend_names

        if self.index_backend not in backend_names():
            raise ValueError(
                f"unknown index backend {self.index_backend!r}; "
                f"known: {backend_names()}"
            )
