"""Subword-hashing word embedder (fasttext-style, deterministic).

fasttext (Bojanowski et al. 2016) represents a word as the sum of vectors of
its character n-grams, looked up in a fixed-size hashed bucket table. We
reproduce the representation side with a fully *vectorised* bucket table:
component ``j`` of bucket ``x`` is the centred unit-variance uniform draw
``sqrt(12) * ((h_j(x) + 0.5) / p - 0.5)`` where ``h_j`` is the shared
universal hash family of :mod:`repro.utils.hashing` (fasttext itself
initialises its bucket table uniformly). Each component is a deterministic
draw, distinct buckets decorrelate through the per-component ``(a_j, b_j)``
coefficients, and — unlike per-bucket seeded RNG streams, which force one
Python-level generator construction per bucket — the table rows for *every*
gram of *every* word materialise in one numpy expression. Gram -> bucket
routing uses crc32 (deterministic, C-speed); any two processes produce
identical embeddings without a training phase, and the resulting space
encodes *surface-form* similarity: words sharing many n-grams get high
cosine similarity.

Per-word arithmetic is batch-size independent by construction: a word's
vector is ``table[gram_rows].sum(axis=0)`` normalised, computed identically
whether the word arrives alone (:meth:`HashingEmbedder.embed_word`) or
inside a vocabulary batch (:meth:`HashingEmbedder.embed_words`), which is
what lets the batched fit pipeline and the per-item delta path produce
byte-identical profiles.
"""

from __future__ import annotations

import threading
import zlib
from time import perf_counter

import numpy as np

from repro.utils.hashing import (
    UNIVERSAL_HASH_PRIME,
    stable_hash_32,
    universal_hash_family,
)

#: sqrt(12): scales a centred uniform [-0.5, 0.5) draw to unit variance.
_UNIFORM_SCALE = 3.4641016151377544


class HashingEmbedder:
    """Deterministic character-n-gram embedding model.

    Parameters
    ----------
    dim: output vector dimensionality (paper uses 100-d sub-encodings).
    min_n, max_n: n-gram size range; fasttext defaults are 3..6.
    num_buckets: size of the shared n-gram bucket table.
    """

    def __init__(
        self,
        dim: int = 100,
        min_n: int = 3,
        max_n: int = 5,
        num_buckets: int = 1 << 17,
        seed: int = 0,
    ):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if not 1 <= min_n <= max_n:
            raise ValueError(f"invalid n-gram range [{min_n}, {max_n}]")
        self.dim = dim
        self.min_n = min_n
        self.max_n = max_n
        self.num_buckets = num_buckets
        self.seed = seed
        self._a, self._b = universal_hash_family(dim, seed, tag="bucket")
        #: crc32 seed value mixed into every gram -> bucket route.
        self._crc_seed = stable_hash_32(f"bucket-route-{seed}")
        self._cache: dict[str, np.ndarray] = {}
        self._gram_bucket: dict[str, int] = {}
        #: Drawn slice of the bucket table: bucket id -> row of _table.
        #: _table grows geometrically; rows beyond _table_len are spare
        #: capacity, so incremental draws append without copying the table.
        self._bucket_row: dict[int, int] = {}
        self._table = np.zeros((0, dim))
        self._table_len = 0
        #: Serialises table growth. Query paths never embed (they read the
        #: stored sketch embeddings) and a sharded session deep-copies its
        #: embedder per shard, but one instance passed in the configs of
        #: fits or sessions running on different threads is embedded from
        #: all of them, and concurrent draws must not hand two buckets the
        #: same row slot. Row *content* is a pure function of the bucket
        #: id, so assignment order stays irrelevant.
        self._table_lock = threading.Lock()
        #: Cumulative kernel seconds per batched-embed sub-stage (grams =
        #: slab assembly, route = gram -> bucket -> row resolution, draw =
        #: bucket-table extension, pool = gather + segmented reduction).
        #: Surfaced per fit as ``FitStats.embed_breakdown``.
        self.kernel_seconds: dict[str, float] = {
            "grams": 0.0, "route": 0.0, "draw": 0.0, "pool": 0.0,
        }
        self._kernel_lock = threading.Lock()

    # Locks don't copy or pickle; sharded sessions deep-copy the embedder
    # per shard, so the copy recreates its own (uncontended) lock.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_table_lock"]
        del state["_kernel_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._table_lock = threading.Lock()
        self._kernel_lock = threading.Lock()

    def _tick(self, stage: str, start: float) -> None:
        """Accumulate one kernel timing sample (thread-safe)."""
        elapsed = perf_counter() - start
        with self._kernel_lock:
            self.kernel_seconds[stage] += elapsed

    # -------------------------------------------------------- persistence

    def persistent_state(self) -> dict:
        """Config only. Everything else — the hash family (``_a``/``_b``/
        ``_crc_seed``), the bucket table, the gram/word caches — is a pure
        function of (dim, seed) re-derived lazily on demand, so persisting
        it would store megabytes of recomputable warmth in every catalog."""
        return {
            "dim": self.dim,
            "min_n": self.min_n,
            "max_n": self.max_n,
            "num_buckets": self.num_buckets,
            "seed": self.seed,
        }

    @classmethod
    def restore_state(cls, state: dict) -> "HashingEmbedder":
        return cls(
            dim=state["dim"],
            min_n=state["min_n"],
            max_n=state["max_n"],
            num_buckets=state["num_buckets"],
            seed=state["seed"],
        )

    # ---------------------------------------------------------- internals

    def _ngrams(self, word: str) -> list[str]:
        """Boundary-marked character n-grams plus the whole word itself."""
        marked = f"<{word}>"
        grams = [marked]  # whole-word entry, as in fasttext
        for n in range(self.min_n, self.max_n + 1):
            if n >= len(marked):
                break
            grams.extend(marked[i : i + n] for i in range(len(marked) - n + 1))
        return grams

    def _bucket_of(self, gram: str) -> int:
        """Bucket id of one gram, memoised — the scalar routing path (no
        per-call list allocation)."""
        bucket = self._gram_bucket.get(gram)
        if bucket is None:
            bucket = zlib.crc32(gram.encode("utf-8"), self._crc_seed) % self.num_buckets
            self._gram_bucket[gram] = bucket
        return bucket

    def _buckets_of(self, grams: list[str]) -> list[int]:
        """Bucket ids for a gram list, each gram routed once per instance."""
        cache = self._gram_bucket
        crc_seed = self._crc_seed
        num_buckets = self.num_buckets
        out = []
        for gram in grams:
            bucket = cache.get(gram)
            if bucket is None:
                bucket = zlib.crc32(gram.encode("utf-8"), crc_seed) % num_buckets
                cache[gram] = bucket
            out.append(bucket)
        return out

    def _gram_slab(self, words: list[str]) -> tuple[list[int], list[str]]:
        """Flatten every word's grams into one slab with per-word counts.

        Gram order inside a word matches :meth:`_ngrams` exactly (whole
        word first, then sizes ascending, positions ascending), so pooling
        over the slab's per-word spans reproduces the per-word formula.
        """
        start = perf_counter()
        slab: list[str] = []
        counts: list[int] = []
        min_n, max_n = self.min_n, self.max_n
        for word in words:
            marked = f"<{word}>"
            length = len(marked)
            grams = [marked]
            for n in range(min_n, min(max_n, length - 1) + 1):
                grams.extend(marked[i : i + n] for i in range(length - n + 1))
            counts.append(len(grams))
            slab.extend(grams)
        self._tick("grams", start)
        return counts, slab

    def _route_slab(self, slab: list[str]) -> np.ndarray:
        """Table row ids for every gram occurrence of one slab.

        Distinct grams are routed (crc32) and drawn once; occurrences then
        resolve through one gram -> row map, so the per-gram cost of a slab
        is paid per *distinct* gram, not per occurrence.
        """
        start = perf_counter()
        distinct = list(dict.fromkeys(slab))
        buckets = self._buckets_of(distinct)
        self._tick("route", start)
        self._materialise_buckets(buckets)
        start = perf_counter()
        row_of = self._bucket_row
        gram_row = {g: row_of[b] for g, b in zip(distinct, buckets)}
        row_ids = np.fromiter(
            map(gram_row.__getitem__, slab), dtype=np.intp, count=len(slab)
        )
        self._tick("route", start)
        return row_ids

    def _materialise_buckets(self, buckets: list[int]) -> None:
        """Extend the drawn table with any not-yet-drawn bucket ids."""
        row_of = self._bucket_row
        missing_set = {b for b in buckets if b not in row_of}
        if not missing_set:
            return
        with self._table_lock:
            # Re-check under the lock: a concurrent caller may have
            # drawn some of these buckets between the test above and here.
            missing = sorted(b for b in missing_set if b not in row_of)
            if not missing:
                return
            self._draw_rows(missing)

    def _draw_rows(self, missing: list[int]) -> None:
        """Draw table rows for ``missing`` bucket ids (caller holds the lock).

        One vectorised expression over every (bucket, component) pair; the
        in-place ops apply the same elementwise sequence as the textbook
        form ``((h + 0.5) / p - 0.5) * scale``, so row bytes are unchanged
        while the temporaries (and one full-rows copy) disappear.
        """
        start = perf_counter()
        p = np.uint64(UNIVERSAL_HASH_PRIME)
        x = np.array(missing, dtype=np.uint64)[:, None]
        hashed = self._a[None, :] * x
        hashed += self._b
        hashed %= p
        # np.add casts the uint64 operand to float64 before adding — the
        # same two steps as astype-then-add, fused into one array pass.
        uniform = np.empty(hashed.shape)
        np.add(hashed, 0.5, out=uniform)
        uniform /= float(p)
        uniform -= 0.5
        base = self._table_len
        needed = base + len(missing)
        if needed > self._table.shape[0]:
            grown = np.zeros((max(needed, 2 * self._table.shape[0]), self.dim))
            grown[:base] = self._table[:base]
            self._table = grown
        np.multiply(uniform, _UNIFORM_SCALE, out=self._table[base:needed])
        self._table_len = needed
        for offset, bucket in enumerate(missing):
            self._bucket_row[bucket] = base + offset
        self._tick("draw", start)

    def _bucket_vector(self, gram: str) -> np.ndarray:
        """The table row of one gram (kept for introspection and tests)."""
        bucket = self._bucket_of(gram)
        self._materialise_buckets([bucket])
        return self._table[self._bucket_row[bucket]]

    def _pool_segments(
        self, gather: np.ndarray, offsets: list[int], counts: list[int]
    ) -> list[np.ndarray]:
        """Mean + unit-norm per gram segment of one stacked row gather.

        ``np.add.reduceat`` reduces each segment independently and
        sequentially, so a segment's sum depends only on its own rows —
        which is exactly what makes the word formula batch-size
        independent: :meth:`embed_word` is the one-segment special case.
        The mean and the norm-guarded division are elementwise, so the
        batched forms below match the per-segment loop byte for byte
        (``x / 1.0`` is exact for the zero-norm rows).
        """
        sums = np.add.reduceat(gather, offsets, axis=0)
        return self._finish_pool(sums, counts)

    def _finish_pool(
        self, sums: np.ndarray, counts: list[int]
    ) -> list[np.ndarray]:
        """Mean + unit-norm rows from per-segment sums (shared tail of the
        full-gather and chunked pooling paths; all elementwise + per-row
        norms, so chunking the sums never changes a row's bytes)."""
        means = sums / np.asarray(counts, dtype=np.float64)[:, None]
        norms = np.empty(len(means))
        for i, row in enumerate(means):
            norms[i] = np.linalg.norm(row)
        out = means / np.where(norms > 0.0, norms, 1.0)[:, None]
        return list(out)

    #: Words per chunk of the slab pooling pass: ~10k gram rows (8 MB of
    #: gathered table) per chunk keeps the gather + reduceat working set
    #: cache-resident — ~3x faster than one full-slab gather, and byte-
    #: identical because reduceat reduces each word's segment independently.
    _POOL_CHUNK_WORDS = 512

    def _pool_slab(
        self, row_ids: np.ndarray, offsets: np.ndarray, counts: list[int]
    ) -> list[np.ndarray]:
        """Chunked gather + segmented reduction over one routed slab."""
        num_words = len(counts)
        sums = np.empty((num_words, self.dim))
        table = self._table
        chunk = self._POOL_CHUNK_WORDS
        for w0 in range(0, num_words, chunk):
            w1 = min(w0 + chunk, num_words)
            r0 = offsets[w0]
            r1 = offsets[w1] if w1 < num_words else len(row_ids)
            gather = table.take(row_ids[r0:r1], axis=0)
            sums[w0:w1] = np.add.reduceat(gather, offsets[w0:w1] - r0, axis=0)
        return self._finish_pool(sums, counts)

    # -------------------------------------------------------------- public

    def embed_word(self, word: str) -> np.ndarray:
        """Return the (unit-normalised) vector for ``word``."""
        word = word.lower()
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        grams = self._ngrams(word)
        buckets = self._buckets_of(grams)
        self._materialise_buckets(buckets)
        row_of = self._bucket_row
        gather = self._table[[row_of[b] for b in buckets]]
        (vec,) = self._pool_segments(gather, [0], [len(grams)])
        self._cache[word] = vec
        return vec

    def embed_words(self, words: list[str]) -> np.ndarray:
        """Stack word vectors into an (n, dim) matrix via the slab kernel.

        The uncached words' grams are flattened into one slab
        (:meth:`_gram_slab`), each *distinct* gram is routed and drawn once
        (:meth:`_route_slab`), all gram rows are gathered in one pass, and
        the per-word means come from a single segmented reduction — the
        same formula as :meth:`embed_word` (its one-segment special case),
        so every row is byte-identical to the per-word path no matter how
        the vocabulary is batched.
        """
        if not words:
            return np.zeros((0, self.dim))
        cache = self._cache
        lowered = [w.lower() for w in words]
        pending = list(dict.fromkeys(w for w in lowered if w not in cache))
        if pending:
            self._fill_pending(pending)
        return np.vstack([cache[w] for w in lowered])

    def warm_words(self, words: list[str]) -> None:
        """Fill the word cache without assembling the stacked matrix.

        The fit warms the subword table while the distributional model
        trains and only needs the cache side effect of :meth:`embed_words`;
        skipping the final vstack saves one full-vocabulary copy.
        """
        cache = self._cache
        pending = list(dict.fromkeys(
            w for w in (word.lower() for word in words) if w not in cache
        ))
        if pending:
            self._fill_pending(pending)

    def _fill_pending(self, pending: list[str]) -> None:
        """Run the slab kernel for uncached (lowercased, deduped) words."""
        counts, slab = self._gram_slab(pending)
        row_ids = self._route_slab(slab)
        start = perf_counter()
        offsets = np.zeros(len(counts), dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        vectors = self._pool_slab(row_ids, offsets, counts)
        cache = self._cache
        for word, vec in zip(pending, vectors):
            cache[word] = vec
        self._tick("pool", start)

    def similarity(self, w1: str, w2: str) -> float:
        """Cosine similarity between two word vectors."""
        return float(np.dot(self.embed_word(w1), self.embed_word(w2)))
