"""Minwise hashing signatures.

A MinHash signature of a set S stores, for k independent hash functions, the
minimum hash value over S. The fraction of agreeing components between two
signatures is an unbiased estimator of their Jaccard similarity; combined
with the true set sizes it also estimates containment (Zhu et al. 2016):

    containment(Q, X) ≈ j * (|Q| + |X|) / ((1 + j) * |Q|)

where j is the estimated Jaccard similarity.

The hash family is the shared vectorised universal family of
:mod:`repro.utils.hashing` (h(x) = (a*x + b) mod (2^31 - 1); see that module
for the prime choice). Because min is exact and order-free,
:meth:`MinHash.signatures_batch` computes the signatures of many sets in one
``np.minimum.reduceat`` pass over their concatenated fingerprints and is
byte-identical to calling :meth:`MinHash.signature` per set.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.fingerprints import FingerprintCache, raw_fingerprint
from repro.utils.hashing import (
    UNIVERSAL_HASH_PRIME,
    stable_hash_32,
    universal_hash_family,
)

#: Re-export: minhash arithmetic works modulo the shared universal prime.
MINHASH_PRIME = UNIVERSAL_HASH_PRIME

#: Batched signature computation caps each (num_hashes, chunk) work matrix
#: at roughly this many fingerprints per slab to bound peak memory.
_BATCH_CHUNK_ITEMS = 1 << 15

#: (num_bands, rows) -> coefficient arrays of the banded-LSH mixing family.
_BAND_FAMILY_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _band_family(num_bands: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-band universal mixing coefficients for the band-hash kernel.

    Band ``b`` hashes its ``rows`` signature components with
    ``(sum_i c[b,i] * v[i] + d[b]) mod p`` — a pairwise-independent family
    per band, derived deterministically from ``(band, row)`` alone so every
    process (and every signature seed) shares one table. Distinct bands get
    independent coefficients, which is what keeps inter-band collisions at
    the 1/p floor.
    """
    key = (num_bands, rows)
    family = _BAND_FAMILY_CACHE.get(key)
    if family is None:
        p = UNIVERSAL_HASH_PRIME
        c = np.array(
            [
                [stable_hash_32(f"lsh-band-{band}-{i}") % (p - 1) + 1
                 for i in range(rows)]
                for band in range(num_bands)
            ],
            dtype=np.uint64,
        )
        d = np.array(
            [stable_hash_32(f"lsh-band-offset-{band}") % p
             for band in range(num_bands)],
            dtype=np.uint64,
        )
        family = (c, d)
        _BAND_FAMILY_CACHE[key] = family
    return family


def narrow_values(values: np.ndarray) -> np.ndarray:
    """``uint64`` signature values as ``uint32`` when every one fits.

    The persisted form of minhash values: all hashes of the family are
    below :data:`MINHASH_PRIME` (2^31 - 1), so real signatures always
    narrow; hand-built values >= 2^32 (or of another dtype) are returned
    unchanged. Readers widen ``uint32`` back to ``uint64`` — exact.
    """
    if values.dtype != np.uint64 or (
        values.size and int(values.max()) > np.iinfo(np.uint32).max
    ):
        return values
    return values.astype(np.uint32)


def band_hashes_matrix(values: np.ndarray, num_bands: int) -> np.ndarray:
    """Band-bucket hashes for a whole ``(n, num_hashes)`` signature slab.

    The columnar kernel of the LSH build path: the slab is viewed as
    ``(n, num_bands, rows)`` and each band column is reduced with its own
    exact-mod-p universal mix (a 2-D reduce — the row loop is ``rows`` long,
    every step vectorised over all signatures and bands at once). Returns a
    ``(n, num_bands)`` uint64 matrix; row ``i`` equals
    ``MinHashSignature.band_hashes`` of signature ``i`` by construction,
    which is the parity contract the kernel tests pin.
    """
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D signature slab, got ndim={values.ndim}")
    n, num_hashes = values.shape
    if num_hashes % num_bands != 0:
        raise ValueError(
            f"num_hashes ({num_hashes}) not divisible by bands ({num_bands})"
        )
    rows = num_hashes // num_bands
    c, d = _band_family(num_bands, rows)
    slab = values.reshape(n, num_bands, rows)
    p = np.uint64(MINHASH_PRIME)
    # acc stays < p and each product stays < 2**62, so uint64 is exact.
    acc = np.broadcast_to(d, (n, num_bands)).copy()
    for i in range(rows):
        acc = (acc + (c[:, i] * slab[:, :, i]) % p) % p
    return acc


def band_hashes_batch(
    signatures: list["MinHashSignature"], num_bands: int
) -> np.ndarray:
    """Band hashes of many signatures in one kernel pass.

    Stacks the signature values into one slab, runs
    :func:`band_hashes_matrix`, and seeds every signature's per-band memo so
    later per-key probes (:meth:`MinHashSignature.band_hashes`) are dict
    lookups. Returns the ``(len(signatures), num_bands)`` matrix.
    """
    if not signatures:
        return np.zeros((0, num_bands), dtype=np.uint64)
    matrix = band_hashes_matrix(
        np.stack([s.values for s in signatures]), num_bands
    )
    for signature, row in zip(signatures, matrix):
        if num_bands not in signature._band_memo:
            signature._band_memo[num_bands] = [int(h) for h in row]
    return matrix


class MinHash:
    """Factory for fixed-width minhash signatures sharing one hash family."""

    def __init__(self, num_hashes: int = 128, seed: int = 0):
        if num_hashes <= 0:
            raise ValueError(f"num_hashes must be positive, got {num_hashes}")
        self.num_hashes = num_hashes
        self.seed = seed
        self._a, self._b = universal_hash_family(num_hashes, seed, tag="minhash")

    def _check_cache(self, cache: FingerprintCache) -> None:
        if cache.seed != self.seed:
            raise ValueError(
                f"fingerprint cache seed {cache.seed} does not match the "
                f"hash family seed {self.seed}; signatures would be wrong"
            )

    def _empty_signature(self) -> "MinHashSignature":
        return MinHashSignature(
            values=np.full(self.num_hashes, MINHASH_PRIME, dtype=np.uint64),
            set_size=0,
            num_hashes=self.num_hashes,
            seed=self.seed,
        )

    def signature(
        self,
        items: set[str] | frozenset[str] | list[str],
        cache: FingerprintCache | None = None,
    ) -> "MinHashSignature":
        """Compute the signature of a set of string items.

        ``cache`` (a :class:`FingerprintCache` for this seed) serves repeated
        strings without re-hashing; the profiler shares one per fit.
        """
        distinct = items if isinstance(items, (set, frozenset)) else set(items)
        if not distinct:
            return self._empty_signature()
        if cache is not None:
            self._check_cache(cache)
            fingerprints = cache.fingerprints(distinct)
        else:
            fingerprints = np.array(
                [raw_fingerprint(item, self.seed) for item in distinct],
                dtype=np.uint64,
            )
        # (k, n) = a[:,None] * x[None,:] + b[:,None], all exact in uint64.
        hashed = (self._a[:, None] * fingerprints[None, :] + self._b[:, None]) % np.uint64(
            MINHASH_PRIME
        )
        return MinHashSignature(
            values=hashed.min(axis=1),
            set_size=len(distinct),
            num_hashes=self.num_hashes,
            seed=self.seed,
        )

    def signatures_batch(
        self,
        sets: list[set[str] | frozenset[str] | list[str]],
        cache: FingerprintCache | None = None,
    ) -> list["MinHashSignature"]:
        """Signatures of many sets in one vectorised pass.

        Fingerprints of all sets are concatenated into one uint64 array, the
        hash family is applied to whole slabs at once, and per-set minima
        come from ``np.minimum.reduceat`` over the set offsets. Exact-min
        arithmetic makes the result byte-identical to per-set
        :meth:`signature` calls; empty sets yield the canonical empty
        signature. Peak memory is bounded by slabbing the concatenation at
        ~``2**15`` fingerprints (whole sets only).
        """
        if cache is None:
            cache = FingerprintCache(self.seed)
        else:
            self._check_cache(cache)
        out: list[MinHashSignature | None] = [None] * len(sets)

        # One slab = a run of non-empty sets whose total item count fits the
        # chunk budget (a single oversized set still forms its own slab).
        slab_sets: list[tuple[int, np.ndarray, int]] = []  # (out idx, fp, size)
        slab_items = 0

        def flush() -> None:
            nonlocal slab_sets, slab_items
            if not slab_sets:
                return
            concat = np.concatenate([fp for _, fp, _ in slab_sets])
            # Lakes repeat strings heavily (ids, categories, shared vocab),
            # so the slab usually holds far fewer distinct fingerprints than
            # items: hash each distinct fingerprint once and gather, instead
            # of running the multiply-add-mod over every occurrence. Same
            # arithmetic per element — minima are byte-identical.
            distinct, inverse = np.unique(concat, return_inverse=True)
            hashed = (
                (distinct[:, None] * self._a[None, :] + self._b[None, :])
                % np.uint64(MINHASH_PRIME)
            )
            # Layout and dtype are chosen for the slab's two heavy passes:
            # (items, hashes) orientation makes the occurrence gather a
            # contiguous row gather, and hashed values are < 2**31 (Mersenne
            # modulus), so both passes run in uint32 at half the memory
            # traffic. Per-set minima come from a contiguous-block
            # ``.min(axis=0)`` per set — ~10x faster than one
            # ``np.minimum.reduceat`` call over the slab, whose generic
            # segment loop defeats the vectorised reduction. Minima widen
            # back to uint64 exactly; min is exact and order-free, so
            # signatures stay byte-equal to the per-set path.
            gathered = hashed.astype(np.uint32)[inverse]
            start = 0
            for index, fp, size in slab_sets:
                end = start + len(fp)
                out[index] = MinHashSignature(
                    values=gathered[start:end].min(axis=0).astype(np.uint64),
                    set_size=size,
                    num_hashes=self.num_hashes,
                    seed=self.seed,
                )
                start = end
            slab_sets = []
            slab_items = 0

        for index, items in enumerate(sets):
            distinct = items if isinstance(items, (set, frozenset)) else set(items)
            if not distinct:
                out[index] = self._empty_signature()
                continue
            if slab_items and slab_items + len(distinct) > _BATCH_CHUNK_ITEMS:
                flush()
            slab_sets.append((index, cache.fingerprints(distinct), len(distinct)))
            slab_items += len(distinct)
        flush()
        return out  # type: ignore[return-value]


class MinHashSignature:
    """A computed minhash signature with Jaccard / containment estimators."""

    def __init__(self, values: np.ndarray, set_size: int, num_hashes: int, seed: int):
        self.values = values
        self.set_size = set_size
        self.num_hashes = num_hashes
        self.seed = seed
        #: num_bands -> band-bucket hashes. Signatures are immutable once
        #: built, so bands are computed at most once per banding width —
        #: the LSH delta paths (add/remove/insert) re-derive nothing, and
        #: the bulk kernel (:func:`band_hashes_batch`) pre-seeds the memo.
        self._band_memo: dict[int, list[int]] = {}

    def _check_compatible(self, other: "MinHashSignature") -> None:
        if self.num_hashes != other.num_hashes or self.seed != other.seed:
            raise ValueError(
                "signatures are incomparable: built with different hash families "
                f"({self.num_hashes}/{self.seed} vs {other.num_hashes}/{other.seed})"
            )

    def jaccard(self, other: "MinHashSignature") -> float:
        """Estimate Jaccard similarity as the fraction of matching components."""
        self._check_compatible(other)
        return self._jaccard_unchecked(other)

    def _jaccard_unchecked(self, other: "MinHashSignature") -> float:
        if self.set_size == 0 and other.set_size == 0:
            return 0.0
        return float(np.mean(self.values == other.values))

    def containment(self, other: "MinHashSignature") -> float:
        """Estimate containment of *this* set in ``other`` (|A∩B| / |A|)."""
        self._check_compatible(other)
        if self.set_size == 0:
            return 0.0
        j = self._jaccard_unchecked(other)
        estimate = j * (self.set_size + other.set_size) / ((1.0 + j) * self.set_size)
        return float(min(1.0, max(0.0, estimate)))

    def band_hashes(self, num_bands: int) -> list[int]:
        """Hash the signature into ``num_bands`` band buckets (for LSH).

        The single-row case of :func:`band_hashes_matrix`, memoised per
        ``num_bands``: two signatures with identical values in a band get
        identical bucket hashes, distinct bands mix with independent
        coefficients. (Formerly one blake2b call per band per signature —
        the per-key Python loop the columnar LSH build replaced.)
        """
        memoised = self._band_memo.get(num_bands)
        if memoised is None:
            row = band_hashes_matrix(self.values[None, :], num_bands)[0]
            memoised = [int(h) for h in row]
            self._band_memo[num_bands] = memoised
        return memoised

    # -------------------------------------------------------- persistence

    def __getstate__(self) -> dict:
        # The band memo is a derived cache keyed by a process-wide
        # deterministic family; re-derivable, so never persisted. Values
        # travel narrowed (every hash is < MINHASH_PRIME < 2**32).
        state = dict(self.__dict__)
        del state["_band_memo"]
        state["values"] = narrow_values(self.values)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.values.dtype == np.uint32:
            self.values = self.values.astype(np.uint64)
        self._band_memo = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MinHashSignature)
            and self.num_hashes == other.num_hashes
            and self.seed == other.seed
            and bool(np.all(self.values == other.values))
        )

    def __repr__(self) -> str:
        return f"MinHashSignature(k={self.num_hashes}, |S|={self.set_size})"
