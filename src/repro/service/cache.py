"""Two-tier solution cache for the anonymization service.

Optimal k-anonymity is NP-hard and even the approximation algorithms are
super-linear, so the cheapest request a production service can serve is
one it has already solved.  :class:`SolutionCache` keeps finished
solutions keyed by :func:`repro.artifacts.instance_key` — the content
hash of (table, k, canonical algorithm name, backend name) — in two
tiers:

* an in-memory **LRU** bounded by ``max_entries`` (evictions counted,
  never silent), and
* an optional **disk** tier (one JSON document per key under
  ``directory``) that survives restarts and absorbs memory evictions;
  a disk hit is promoted back into memory.

Cache-key semantics worth spelling out:

* Two tables differing in *any* cell, in attribute names, or in column
  order hash differently — the key is built on the full relation
  content, not a sketch.
* The key carries a backend name, which the service always fills with
  the one runtime backend (``numpy``), so every server and router keys
  a request alike.
* Deadline-degraded results (``extras["deadline_hit"]``) must not be
  stored: a budget-truncated release is a property of that request's
  budget, not of the instance.  The service layer enforces this; the
  cache itself stores whatever it is given.

Counters (hits / memory hits / disk hits / misses / evictions / stores /
corrupt) are live on :attr:`SolutionCache.stats` and surface through the
service's ``stats`` endpoint.

Disk-tier robustness: stores are atomic (tmp-then-rename via
:func:`repro.io.write_json`), and an entry that can't be parsed back —
a torn write from a crash predating atomicity, manual truncation, disk
corruption — is quarantined to ``<key>.json.corrupt`` and treated as a
miss, so one bad file can never poison its key or crash a lookup.

>>> cache = SolutionCache(max_entries=2)
>>> cache.put("a", {"stars": 4})
>>> cache.get("a")
{'stars': 4}
>>> cache.get("b") is None
True
>>> cache.stats.as_dict()["hits"], cache.stats.as_dict()["misses"]
(1, 1)
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.io import read_json, write_json

#: keys are hex digests from :func:`repro.artifacts.instance_key` /
#: :func:`repro.artifacts.state_key`; the disk tier refuses anything
#: else so cache files can never escape the cache directory or collide
#: with its bookkeeping.
_KEY_RE = re.compile(r"^[0-9a-f]{8,64}$")


def is_cache_key(key: object) -> bool:
    """True iff *key* is a well-formed instance/state-key digest.

    The service uses this to reject malformed client-supplied keys
    (``delta`` requests carry one) *before* they reach the disk tier,
    which would raise on them.
    """
    return isinstance(key, str) and bool(_KEY_RE.match(key))


@dataclass
class CacheStats:
    """Live hit/miss/eviction counters for one :class:`SolutionCache`.

    ``hits`` is the total (memory + disk); ``evictions`` counts entries
    pushed out of the memory LRU (they remain on disk when a disk tier
    is configured).
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    #: unreadable disk entries quarantined and served as misses
    corrupt: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready counter snapshot (what ``stats`` endpoints emit)."""
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
        }


@dataclass
class SolutionCache:
    """In-memory LRU with an optional on-disk second tier.

    :param max_entries: memory-tier capacity; least-recently-used
        entries are evicted (and counted) beyond it.
    :param directory: disk-tier location (one ``<key>.json`` per entry);
        ``None`` disables the disk tier.  Created on first store.

    Values must be JSON-serializable dicts — they round-trip through the
    disk tier and over the service's wire protocol.
    """

    max_entries: int = 256
    directory: str | Path | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: OrderedDict[str, dict[str, Any]] = field(
        default_factory=OrderedDict
    )

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be a positive integer")
        if self.directory is not None:
            self.directory = Path(self.directory)

    # ------------------------------------------------------------------

    def _disk_path(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        if not _KEY_RE.match(key):
            raise ValueError(
                f"cache key {key!r} is not an instance-key digest"
            )
        return Path(self.directory) / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached solution for *key*, or ``None`` on a miss.

        Memory first, then disk; a disk hit is promoted into the memory
        LRU so repeated traffic stays off the filesystem.  An
        unreadable disk entry (torn write, truncation, wrong shape) is
        **quarantined and counted as a miss** — a bad file must never
        poison its key, let alone crash the caller.
        """
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            return entry
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                entry = read_json(path)
                if not isinstance(entry, dict):
                    raise ValueError(
                        f"cache entry is {type(entry).__name__}, "
                        "not a JSON object"
                    )
            except (ValueError, OSError):
                # json.JSONDecodeError and UnicodeDecodeError are both
                # ValueError subclasses; OSError covers vanished files
                self._quarantine(path)
                self.stats.corrupt += 1
                self.stats.misses += 1
                return None
            self.stats.disk_hits += 1
            self._admit(key, entry)
            return entry
        self.stats.misses += 1
        return None

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a bad entry aside (``<key>.json.corrupt``) or drop it."""
        try:
            path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass  # racing unlink/rename: the entry is gone either way

    def put(self, key: str, value: dict[str, Any]) -> None:
        """Store a solution under *key* in both tiers.

        The disk write is atomic (tmp-then-rename), so a crash mid-put
        leaves the previous entry — or nothing — never a torn file.
        """
        path = self._disk_path(key)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_json(path, value, atomic=True)
        self._admit(key, value)
        self.stats.stores += 1

    def _admit(self, key: str, value: dict[str, Any]) -> None:
        """Insert into the memory LRU, evicting beyond capacity."""
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def __contains__(self, key: str) -> bool:
        """Membership probe across both tiers, agreeing with :meth:`get`.

        A disk entry only counts as present when it would actually be
        *served*: an unreadable file (torn write, truncation, wrong
        shape) is quarantined on the spot — exactly as ``get`` would —
        and reported absent, so ``key in cache`` can never promise an
        entry that ``get`` would then refuse.  The probe never touches
        the hit/miss counters (``corrupt`` is bumped when a bad entry is
        found, since the quarantine really happened).
        """
        if key in self._memory:
            return True
        path = self._disk_path(key)
        if path is None or not path.exists():
            return False
        try:
            entry = read_json(path)
            if not isinstance(entry, dict):
                raise ValueError(
                    f"cache entry is {type(entry).__name__}, "
                    "not a JSON object"
                )
        except (ValueError, OSError):
            self._quarantine(path)
            self.stats.corrupt += 1
            return False
        return True

    def __len__(self) -> int:
        """Entries currently resident in the memory tier."""
        return len(self._memory)

    def clear(self) -> None:
        """Drop the memory tier (disk entries, if any, are kept)."""
        self._memory.clear()

    def as_dict(self) -> dict[str, Any]:
        """Stats plus configuration — the ``stats`` endpoint's view."""
        return {
            **self.stats.as_dict(),
            "entries": len(self._memory),
            "max_entries": self.max_entries,
            "disk": str(self.directory) if self.directory else None,
        }

    def __repr__(self) -> str:
        tier = f", disk={str(self.directory)!r}" if self.directory else ""
        return (
            f"SolutionCache(entries={len(self._memory)}/"
            f"{self.max_entries}{tier})"
        )
