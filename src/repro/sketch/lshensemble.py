"""LSH Ensemble: containment search over skewed set-size distributions.

Reimplementation of the index of Zhu, Nargesian, Pu, Miller (VLDB 2016),
which CMDL uses for its syntactic labeling function and joinability sketches
(paper §3). Plain minhash-LSH targets Jaccard *similarity*; containment
queries against sets of wildly different sizes need the ensemble trick:

1. Partition indexed sets into partitions by set size.
2. Within a partition, containment c maps to Jaccard j = c / (|Q|/|X| + 1 - c)
   using a representative partition size |X|; each partition therefore gets
   its own banding tuned at query time.

Our implementation keeps the partition structure and per-partition banded
indexes, and re-ranks candidates by exact signature-based containment, which
is the behaviour downstream CMDL components depend on (top-k containment
matches with scores).
"""

from __future__ import annotations

import bisect

from repro.sketch.lsh import LSHIndex, restore_signature_slab, signature_slab_state
from repro.sketch.minhash import MinHashSignature, band_hashes_batch


class LSHEnsemble:
    """Containment-search index partitioned by indexed-set size."""

    #: Partitions at or below this size are fully scanned instead of banded:
    #: banding cannot prune meaningfully there, and the scan restores perfect
    #: recall on small lakes (the regime of the parity tests).
    SCAN_LIMIT = 50

    #: Churn fractions (relative to current size) past which an incremental
    #: ensemble repartitions. Inserts land in the nearest size partition —
    #: correct (the re-rank is exact) but balance drifts, so both kinds of
    #: churn trigger a lazy rebuild rather than rebuilding on every mutation.
    REBUILD_DELETED_FRACTION = 0.25
    REBUILD_INSERTED_FRACTION = 0.5

    def __init__(self, num_partitions: int = 8, num_bands: int = 16):
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        self.num_partitions = num_partitions
        self.num_bands = num_bands
        self._pending: list[tuple[str, MinHashSignature]] = []
        self._pending_keys: set[str] = set()
        self._partitions: list[LSHIndex] = []
        self._partition_upper: list[int] = []
        self._built = False
        self._inserted_since_build = 0
        self._deleted_since_build = 0
        self._built_size = 0

    # -------------------------------------------------------------- build

    def add(self, key: str, signature: MinHashSignature) -> None:
        """Stage an entry. Call :meth:`build` after all entries are added."""
        if self._built:
            raise RuntimeError("LSHEnsemble is already built; create a new index to add")
        self._pending.append((key, signature))
        self._pending_keys.add(key)

    def build_bulk(
        self, entries: list[tuple[str, MinHashSignature]]
    ) -> "LSHEnsemble":
        """Stage a whole ``(key, signature)`` batch and build in one step.

        Partition layout is identical to per-item :meth:`add` calls followed
        by :meth:`build` (the build sorts staged entries by set size either
        way); this is the one-shot construction path of the index catalog.
        """
        if self._built:
            raise RuntimeError("LSHEnsemble is already built; create a new index to add")
        self._pending.extend(entries)
        self._pending_keys.update(key for key, _ in entries)
        return self.build()

    # ---------------------------------------------------------- mutation

    def __contains__(self, key: str) -> bool:
        if self._built:
            return any(key in p for p in self._partitions)
        return key in self._pending_keys

    def insert(self, key: str, signature: MinHashSignature) -> None:
        """Add one entry to the ensemble (delta path).

        On a built ensemble the entry lands in the partition whose size
        range it matches today; partition balance drifts with churn, so the
        ensemble repartitions itself once inserts exceed
        :attr:`REBUILD_INSERTED_FRACTION` of its size. Before :meth:`build`
        this is :meth:`add` plus the duplicate check.
        """
        if key in self:
            raise ValueError(f"duplicate ensemble key {key!r}")
        if not self._built:
            self.add(key, signature)
            return
        self._partitions[self.partition_of(signature.set_size)].add(key, signature)
        self._inserted_since_build += 1
        self._maybe_rebuild()

    def delete(self, key: str) -> None:
        """Remove one entry (delta path); repartitions past the churn bar."""
        if not self._built:
            for i, (k, _) in enumerate(self._pending):
                if k == key:
                    del self._pending[i]
                    self._pending_keys.discard(key)
                    return
            raise KeyError(f"no ensemble entry for key {key!r}")
        for partition in self._partitions:
            if key in partition:
                partition.remove(key)
                self._deleted_since_build += 1
                self._maybe_rebuild()
                return
        raise KeyError(f"no ensemble entry for key {key!r}")

    def _maybe_rebuild(self) -> None:
        base = max(self._built_size, 1)
        if (
            self._deleted_since_build > self.REBUILD_DELETED_FRACTION * base
            or self._inserted_since_build > self.REBUILD_INSERTED_FRACTION * base
        ):
            self.rebuild()

    def rebuild(self) -> "LSHEnsemble":
        """Repartition all live entries from scratch (eager form of the lazy
        rebuild the mutation paths schedule)."""
        if not self._built:
            return self.build()
        for partition in self._partitions:
            self._pending.extend(partition.items())
        self._pending_keys = {k for k, _ in self._pending}
        self._partitions = []
        self._partition_upper = []
        self._built = False
        self._inserted_since_build = 0
        self._deleted_since_build = 0
        return self.build()

    def build(self) -> "LSHEnsemble":
        """Partition staged entries by set size and build per-partition LSH.

        Band hashes for *all* staged signatures come from one
        :func:`~repro.sketch.minhash.band_hashes_batch` kernel call over the
        sorted slab; each partition then ingests its row slice columnar via
        :meth:`LSHIndex.build_bulk` instead of per-key ``add`` calls.
        """
        if self._built:
            return self
        self._pending.sort(key=lambda kv: (kv[1].set_size, kv[0]))
        n = len(self._pending)
        band_matrix = band_hashes_batch(
            [sig for _, sig in self._pending], self.num_bands
        )
        num_parts = min(self.num_partitions, max(1, n))
        base, extra = divmod(n, num_parts) if n else (0, 0)
        self._partitions = []
        self._partition_upper = []
        start = 0
        for p in range(num_parts):
            size = base + (1 if p < extra else 0)
            chunk = self._pending[start : start + size]
            index = LSHIndex(num_bands=self.num_bands)
            index.build_bulk(chunk, band_matrix=band_matrix[start : start + size])
            start += size
            self._partitions.append(index)
            self._partition_upper.append(chunk[-1][1].set_size if chunk else 0)
        self._pending = []
        self._pending_keys = set()
        self._built = True
        self._inserted_since_build = 0
        self._deleted_since_build = 0
        self._built_size = n
        return self

    def __len__(self) -> int:
        if self._built:
            return sum(len(p) for p in self._partitions)
        return len(self._pending)

    @property
    def prunes(self) -> bool:
        """True when at least one partition is large enough for banding to
        beat a full scan — i.e. :meth:`candidate_keys` actually prunes.

        Answerable without building: partition sizes are determined by the
        entry count alone, so reading this never mutates index state.
        """
        if self._built:
            return any(len(p) > self.SCAN_LIMIT for p in self._partitions)
        n = len(self._pending)
        num_parts = min(self.num_partitions, max(1, n))
        largest = -(-n // num_parts)  # ceil division
        return largest > self.SCAN_LIMIT

    # -------------------------------------------------------- persistence

    def persistent_state(self, source=None) -> dict:
        """Exact structural state: partition layout and churn counters are
        preserved verbatim so a restored ensemble repartitions at the same
        future mutation the live one would. Staged and partitioned entries
        persist through :func:`~repro.sketch.lsh.signature_slab_state`, so
        a signature that *is* ``source(key)`` is stored as a reference
        (see :meth:`LSHIndex.persistent_state`)."""
        return {
            "num_partitions": self.num_partitions,
            "num_bands": self.num_bands,
            "pending": signature_slab_state(self._pending, source),
            "partitions": [p.persistent_state(source) for p in self._partitions],
            "partition_upper": list(self._partition_upper),
            "built": self._built,
            "inserted_since_build": self._inserted_since_build,
            "deleted_since_build": self._deleted_since_build,
            "built_size": self._built_size,
        }

    @classmethod
    def restore_state(cls, state: dict, source=None) -> "LSHEnsemble":
        ensemble = cls(
            num_partitions=state["num_partitions"], num_bands=state["num_bands"]
        )
        ensemble._pending = restore_signature_slab(state["pending"], source)
        ensemble._pending_keys = {key for key, _ in ensemble._pending}
        ensemble._partitions = [
            LSHIndex.restore_state(p, source) for p in state["partitions"]
        ]
        ensemble._partition_upper = list(state["partition_upper"])
        ensemble._built = state["built"]
        ensemble._inserted_since_build = state["inserted_since_build"]
        ensemble._deleted_since_build = state["deleted_since_build"]
        ensemble._built_size = state["built_size"]
        return ensemble

    # -------------------------------------------------------------- query

    def query(
        self,
        signature: MinHashSignature,
        k: int = 10,
        threshold: float = 0.0,
        exclude: set[str] | None = None,
    ) -> list[tuple[str, float]]:
        """Top-k keys by estimated containment of the *query* in each entry.

        Every partition is probed (each contributes band-collision candidates
        re-ranked by exact signature containment); results below ``threshold``
        are dropped. Returned scores are containment estimates in [0, 1].
        """
        if not self._built:
            self.build()
        exclude = exclude or set()
        best: dict[str, float] = {}
        for index, candidates in zip(
            self._partitions, self._partition_candidates(signature)
        ):
            for key in candidates:
                if key in exclude:
                    continue
                c = signature.containment(index.signature_of(key))
                if c >= threshold and (key not in best or c > best[key]):
                    best[key] = c
        ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def candidate_keys(
        self, signature: MinHashSignature, exclude: set[str] | None = None
    ) -> set[str]:
        """Raw candidate set for a query signature, with no top-k cut.

        Band-collision candidates from every partition, plus full scans of
        partitions at or below :attr:`SCAN_LIMIT` entries; falls back to all
        keys when banding finds nothing anywhere (totality). This is the
        entry point for the candidate-generation layer, which re-ranks with
        exact scores downstream and therefore must not lose entries whose
        containment is directional (small set inside a large query).
        """
        if not self._built:
            self.build()
        exclude = exclude or set()
        found: set[str] = set()
        for candidates in self._partition_candidates(signature):
            found.update(candidates)
        return found - exclude

    def _partition_candidates(self, signature: MinHashSignature) -> list[set[str]]:
        """Candidate set of each partition, computed exactly once per probe.

        Partitions at or below :attr:`SCAN_LIMIT` contribute all their keys
        (banding cannot prune there), larger ones their band collisions.
        When banding yields nothing anywhere the partitions' full key sets
        are returned instead (totality) — :meth:`query` and
        :meth:`candidate_keys` both consume this single pass, so neither
        re-derives collisions nor re-iterates partitions in a fallback
        path. (A probe whose candidates all score below ``query``'s
        threshold returns empty without a rescan: a full scan could only
        re-find the same below-threshold entries.)
        """
        per_partition = [
            set(index.keys()) if len(index) <= self.SCAN_LIMIT
            else index.candidates(signature)
            for index in self._partitions
        ]
        if not any(per_partition):
            per_partition = [set(index.keys()) for index in self._partitions]
        return per_partition

    def partition_of(self, set_size: int) -> int:
        """Index of the partition an entry of ``set_size`` would land in."""
        if not self._built:
            raise RuntimeError("build() the ensemble first")
        return min(
            bisect.bisect_left(self._partition_upper, set_size),
            len(self._partitions) - 1,
        )
