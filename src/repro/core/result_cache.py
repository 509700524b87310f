"""Per-shard result cache keyed by ``(plan node tag, generation scope)``.

The scatter-gather executor (:mod:`repro.core.scatter`) caches the
*per-shard partial results* it merges — a shard's keyword top-k, its
candidate-union hits, its candidate-PK entries — not the merged answers.
Two consequences:

* invalidation is exact and per-shard for free: every key carries the
  generation scope its value depends on (the owning shard's counter, the
  pair of counters an owner/remote probe spans, or the full generation
  vector for corpus-wide statistics), so a mutation on shard *k* bumps
  shard *k*'s counter and precisely the entries depending on it stop
  matching — entries for untouched shards keep hitting;
* a repeated query after a mutation still reuses the partials of every
  shard the mutation did not touch, paying only the owning shard's
  recompute.

Plan nodes are hashable and structurally deduplicated by the planner
(PR 2), so the tag half of the key is simply the primitive's identifying
fields. Stale entries are never served (their generation scope no longer
matches); they age out of the LRU ring instead of being swept eagerly.

The one merged value in the cache is the lake-wide PK-FK link index
(:class:`~repro.core.pkfk.PKFKLinkIndex`), stored under the reserved
:data:`FRONT` scope with key ``(("pkfk_index",), full generation
vector)``. Every other operator's merge is a cheap k-way fold of small
top-k lists, so caching its inputs is enough; the link graph is the
exception — thousands of links from every shard, re-concatenated,
re-sorted and re-scanned per ``pkfk`` read when only the partials were
cached — and the answer to *any* ``pkfk`` query is a neighbour lookup in
it. Its scope is the full vector because the graph folds every shard's
keys against every shard's columns: a mutation anywhere may add or drop
a link, and there is no per-shard piece of the merged graph that a
sibling's mutation leaves valid. The per-shard link partials it is built
from share that scope, so once the index exists they would never be
read again — they are not cached at all.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock

_MISSING = object()

#: The "shard" of front-end entries: values merged from every shard.
FRONT = -1
#: Capacity of a cache nobody sized: a sharded session's own, and a
#: :class:`~repro.serve.LakeServer`'s unless ``cache_entries`` says otherwise.
DEFAULT_ENTRIES = 4096


class ResultCache:
    """Thread-safe LRU over ``(shard, tag, generation-scope)`` keys."""

    def __init__(self, max_entries: int = DEFAULT_ENTRIES):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        self.max_entries = max_entries
        self._lock = Lock()
        self._entries: OrderedDict = OrderedDict()
        #: Lifetime counters (the per-batch view lives in ExecutionStats).
        self.hits = 0
        self.misses = 0
        #: Entries pushed out by the LRU bound (not by drop_shard/clear).
        self.evictions = 0

    def get(self, shard: int, key: tuple):
        """The cached partial for ``key`` on ``shard``, or ``None``."""
        with self._lock:
            value = self._entries.get((shard, key), _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            self._entries.move_to_end((shard, key))
            self.hits += 1
            return value

    def put(self, shard: int, key: tuple, value) -> None:
        with self._lock:
            self._entries[(shard, key)] = value
            self._entries.move_to_end((shard, key))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def keys(self) -> list[tuple]:
        """Snapshot of the live ``(shard, key)`` pairs (tests/diagnostics)."""
        with self._lock:
            return list(self._entries)

    def drop_shard(self, shard: int) -> None:
        """Evict every partial owned by one shard, and every
        :data:`FRONT` entry (merged from all shards, this one included).

        Respawn hygiene: a recovered worker may sit on a reconciled
        (bumped) generation whose number an old entry also carries, so
        the supervisor drops the shard's partials outright rather than
        trusting generation matching across the crash.
        """
        with self._lock:
            for entry in [k for k in self._entries if k[0] in (shard, FRONT)]:
                del self._entries[entry]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
