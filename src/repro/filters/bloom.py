"""Bloom filters with explicit hash-cost accounting.

§2 ("Optimizing Lookups"): LSM engines keep one Bloom filter per run (in
practice per file) so point lookups skip runs that definitely do not hold
the key. §4.2.3: KiWi instead keeps one filter *per page*, so a full page
drop discards the page's filter without rebuilding anything, "the same
overall FPR is achieved with the same memory consumption ... since a
delete tile contains no duplicates".

§4.2.4 is the reason this module counts hashes: KiWi performs ``L · h``
(zero-result) or ``L · h / 4`` (non-zero) times more hash calculations,
but commercial engines derive all ``k`` probe positions from **a single
MurmurHash digest** (~80 ns) — three orders of magnitude cheaper than a
~100 µs page I/O — so trading hashing for I/O is profitable. We model
exactly that: each key probed or inserted costs *one* hash computation
(counted into :class:`~repro.core.stats.Statistics`), and the ``k`` bit
positions derive from the digest by double hashing.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.core.stats import Statistics

_MASK64 = (1 << 64) - 1


def murmur_mix64(value: int) -> int:
    """The 64-bit MurmurHash3 finalizer (fmix64): a cheap, high-quality mixer.

    Deterministic across processes (unlike built-in ``hash`` on strings),
    which keeps every experiment reproducible.
    """
    h = value & _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h


def _fnv1a_64(data: bytes) -> int:
    """FNV-1a for non-integer keys; deterministic across processes."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def key_digest(key: Any) -> int:
    """One 64-bit digest for any supported key (one 'hash computation')."""
    if isinstance(key, int):
        return murmur_mix64(key)
    if isinstance(key, bytes):
        return murmur_mix64(_fnv1a_64(key))
    if isinstance(key, str):
        return murmur_mix64(_fnv1a_64(key.encode("utf-8")))
    return murmur_mix64(_fnv1a_64(repr(key).encode("utf-8")))


def optimal_hash_count(bits_per_key: float) -> int:
    """``k = bits_per_key · ln 2``, the FPR-optimal number of probe bits."""
    return max(1, round(bits_per_key * math.log(2)))


class BloomFilter:
    """A classic Bloom filter over sort keys.

    Parameters
    ----------
    expected_entries:
        Number of keys the filter is sized for.
    bits_per_key:
        Memory budget ``m/N`` (the evaluation uses 10 bits/key).
    stats:
        Optional shared counters; inserts and probes charge one hash
        computation each (single-digest model, §4.2.4), and probes also
        increment ``bloom_probes``.
    """

    __slots__ = ("num_bits", "num_hashes", "bits_per_key", "_bits", "_count", "stats")

    def __init__(
        self,
        expected_entries: int,
        bits_per_key: float = 10.0,
        stats: Statistics | None = None,
    ):
        if expected_entries < 0:
            raise ValueError(f"expected_entries must be >= 0, got {expected_entries}")
        if bits_per_key <= 0:
            raise ValueError(f"bits_per_key must be positive, got {bits_per_key}")
        self.bits_per_key = float(bits_per_key)
        self.num_bits = max(8, int(math.ceil(expected_entries * bits_per_key)))
        self.num_hashes = optimal_hash_count(bits_per_key)
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0
        self.stats = stats

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def _positions(self, key: Any) -> Iterable[int]:
        """Derive the k probe positions from one digest (double hashing)."""
        digest = key_digest(key)
        if self.stats is not None:
            # Deliberately a plain += on the hottest counter in the
            # codebase (k per probe, every lookup): a background worker
            # building a filter may race a reader's probe and lose an
            # increment, which only undercounts a diagnostic counter —
            # a mutex here would tax every single-threaded experiment.
            self.stats.bloom_hash_computations += 1
        h1 = digest & 0xFFFFFFFF
        h2 = (digest >> 32) | 1  # odd so probes cycle through the array
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: Any) -> None:
        """Insert a key."""
        for position in self._positions(key):
            self._bits[position >> 3] |= 1 << (position & 7)
        self._count += 1

    def might_contain(self, key: Any) -> bool:
        """Probe: ``False`` is definitive, ``True`` may be a false positive."""
        if self.stats is not None:
            self.stats.bloom_probes += 1
        for position in self._positions(key):
            if not (self._bits[position >> 3] >> (position & 7)) & 1:
                return False
        return True

    def update(self, keys: Iterable[Any]) -> None:
        """Bulk insert."""
        for key in keys:
            self.add(key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Keys inserted so far."""
        return self._count

    @property
    def size_bits(self) -> int:
        return self.num_bits

    def expected_fpr(self) -> float:
        """Theoretical FPR at current load: ``(1 - e^{-kn/m})^k``.

        The paper's model (§3.2.2) uses the budget form
        ``e^{-(m/N)·ln(2)^2}``, which this converges to when the filter is
        loaded to its design point. Retained tombstones and invalid
        entries inflate ``n`` and thus the FPR — the mechanism behind
        Fig. 6D's read-throughput gap.
        """
        if self._count == 0:
            return 0.0
        exponent = -self.num_hashes * self._count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes

    @classmethod
    def from_keys(
        cls,
        keys: Iterable[Any],
        bits_per_key: float = 10.0,
        stats: Statistics | None = None,
        expected_entries: int | None = None,
    ) -> "BloomFilter":
        """Build a filter sized for (and filled with) ``keys``.

        Construction-time inserts are *not* charged to ``stats``: building
        a file's filters happens during compaction, whose cost the paper
        accounts as I/O, not query-path hashing. The live filter charges
        normally afterwards.
        """
        key_list = keys if isinstance(keys, list) else list(keys)
        size = expected_entries if expected_entries is not None else len(key_list)
        bf = cls(max(size, 1), bits_per_key, stats=None)
        # One pass, no per-key generator: the same digest and double
        # hashing as :meth:`_positions`, inlined. Exact ``int`` keys (the
        # engine's keys) inline fmix64 too; every other type goes through
        # ``key_digest`` so the bits match ``add`` for any key.
        bits = bf._bits
        num_bits = bf.num_bits
        probes = range(bf.num_hashes)
        for key in key_list:
            if type(key) is int:
                h = key & _MASK64
                h ^= h >> 33
                h = (h * 0xFF51AFD7ED558CCD) & _MASK64
                h ^= h >> 33
                h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
                h ^= h >> 33
            else:
                h = key_digest(key)
            h1 = h & 0xFFFFFFFF
            h2 = (h >> 32) | 1
            for i in probes:
                position = (h1 + i * h2) % num_bits
                bits[position >> 3] |= 1 << (position & 7)
        bf._count = len(key_list)
        bf.stats = stats
        return bf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(n={self._count}, bits={self.num_bits}, "
            f"k={self.num_hashes}, fpr≈{self.expected_fpr():.4f})"
        )
