"""Banded Locality Sensitive Hashing index over minhash signatures.

Standard banding scheme: a signature of k hash values is split into b bands
of r = k/b rows; two sets collide if any band hashes identically. With
Jaccard similarity s the collision probability is 1 - (1 - s^r)^b, an S-curve
whose threshold ~ (1/b)^(1/r).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.sketch.minhash import MinHashSignature, band_hashes_batch, narrow_values


def signature_slab_state(
    entries: list[tuple[str, MinHashSignature]], source=None
) -> dict:
    """Persisted form of ``(key, signature)`` entries, in order.

    An entry whose signature is *identically* ``source(key)`` becomes a
    reference: its key alone. Every other entry (no source, a key the
    source does not hold, or a signature the source has since replaced)
    is explicit and carries its values in one narrowed slab
    (:func:`~repro.sketch.minhash.narrow_values`) plus its set size.
    """
    explicit = [
        i for i, (key, signature) in enumerate(entries)
        if source is None or source(key) is not signature
    ]
    signatures = [entries[i][1] for i in explicit]
    if signatures:
        values = narrow_values(np.stack([s.values for s in signatures]))
        num_hashes, seed = signatures[0].num_hashes, signatures[0].seed
    else:
        values = np.zeros((0, 0), dtype=np.uint32)
        num_hashes, seed = 0, 0
    return {
        "keys": [key for key, _ in entries],
        "explicit": np.asarray(explicit, dtype=np.int64),
        "values": values,
        "set_sizes": np.array([s.set_size for s in signatures], dtype=np.int64),
        "num_hashes": num_hashes,
        "seed": seed,
    }


def restore_signature_slab(
    state: dict, source=None
) -> list[tuple[str, MinHashSignature]]:
    """Inverse of :func:`signature_slab_state`: references resolve to the
    source's own signature objects (shared, as in a live session); a
    reference the source cannot resolve raises :class:`KeyError`."""
    values = np.asarray(state["values"], dtype=np.uint64)
    set_sizes = state["set_sizes"]
    row_of = {int(i): row for row, i in enumerate(state["explicit"])}
    entries = []
    for i, key in enumerate(state["keys"]):
        row = row_of.get(i)
        if row is not None:
            signature = MinHashSignature(
                values=values[row],
                set_size=int(set_sizes[row]),
                num_hashes=state["num_hashes"],
                seed=state["seed"],
            )
        else:
            signature = None if source is None else source(key)
            if signature is None:
                raise KeyError(f"unresolved signature reference {key!r}")
        entries.append((key, signature))
    return entries


class LSHIndex:
    """LSH index supporting candidate retrieval and score-ranked top-k query.

    Candidates come from band-bucket collisions; the final ranking re-scores
    candidates with the (estimated) Jaccard similarity of full signatures, so
    the index never returns false positives above a true-similar entry.
    """

    def __init__(self, num_bands: int = 16):
        if num_bands <= 0:
            raise ValueError(f"num_bands must be positive, got {num_bands}")
        self.num_bands = num_bands
        self._buckets: list[dict[int, list[str]]] = [
            defaultdict(list) for _ in range(num_bands)
        ]
        self._signatures: dict[str, MinHashSignature] = {}

    # -------------------------------------------------------------- build

    def add(self, key: str, signature: MinHashSignature) -> None:
        if key in self._signatures:
            raise ValueError(f"duplicate LSH key {key!r}")
        self._signatures[key] = signature
        for band, h in enumerate(signature.band_hashes(self.num_bands)):
            self._buckets[band][h].append(key)

    def build_bulk(
        self,
        entries: list[tuple[str, MinHashSignature]],
        band_matrix: np.ndarray | None = None,
    ) -> "LSHIndex":
        """Ingest a whole ``(key, signature)`` batch in one columnar pass.

        The band matrix for every signature comes from one
        :func:`~repro.sketch.minhash.band_hashes_batch` kernel call (callers
        that already hold the slab — the LSH-Ensemble build — pass their
        row slice via ``band_matrix``), and bucket postings are assembled a
        band *column* at a time. Entry order matches per-item :meth:`add`
        calls, so the built index is identical to the incremental path.
        """
        if not entries:
            return self
        for key, _ in entries:
            if key in self._signatures:
                raise ValueError(f"duplicate LSH key {key!r}")
        if band_matrix is None:
            band_matrix = band_hashes_batch(
                [signature for _, signature in entries], self.num_bands
            )
        else:
            # A caller-provided slab skips the kernel; seed the per-signature
            # memos from it so the delta paths never recompute bands.
            for (_, signature), row in zip(entries, band_matrix):
                if self.num_bands not in signature._band_memo:
                    signature._band_memo[self.num_bands] = [int(h) for h in row]
        for key, signature in entries:
            self._signatures[key] = signature
        keys = [key for key, _ in entries]
        for band in range(self.num_bands):
            buckets = self._buckets[band]
            for key, h in zip(keys, band_matrix[:, band].tolist()):
                buckets[h].append(key)
        return self

    def remove(self, key: str) -> None:
        """Delete one entry (bucket lists are short: band-local collisions)."""
        signature = self._signatures.pop(key, None)
        if signature is None:
            raise KeyError(f"no LSH entry for key {key!r}")
        for band, h in enumerate(signature.band_hashes(self.num_bands)):
            bucket = self._buckets[band][h]
            bucket.remove(key)
            if not bucket:
                del self._buckets[band][h]

    def __len__(self) -> int:
        return len(self._signatures)

    def __contains__(self, key: str) -> bool:
        return key in self._signatures

    def signature_of(self, key: str) -> MinHashSignature:
        return self._signatures[key]

    def keys(self) -> list[str]:
        """All indexed keys, in insertion order."""
        return list(self._signatures)

    def items(self) -> list[tuple[str, MinHashSignature]]:
        """All ``(key, signature)`` pairs, in insertion order."""
        return list(self._signatures.items())

    # -------------------------------------------------------- persistence

    def persistent_state(self, source=None) -> dict:
        """Keys plus the signatures that are not references; buckets are
        derived and rebuilt on restore (the band family is process-wide
        deterministic, so the rebuilt buckets are identical — including
        per-band insertion order).

        ``source`` (``key -> MinHashSignature | None``) names where each
        entry's signature lives outside the index — the profile's sketch.
        An entry whose signature *is* ``source(key)`` is persisted as a
        reference and bound back to the source's own object on restore;
        see :func:`signature_slab_state`. Without a source every entry is
        explicit.
        """
        return {
            "num_bands": self.num_bands,
            **signature_slab_state(list(self._signatures.items()), source),
        }

    @classmethod
    def restore_state(cls, state: dict, source=None) -> "LSHIndex":
        index = cls(num_bands=state["num_bands"])
        index.build_bulk(restore_signature_slab(state, source))
        return index

    # -------------------------------------------------------------- query

    def candidates(self, signature: MinHashSignature) -> set[str]:
        """Keys colliding with the query in at least one band."""
        found: set[str] = set()
        for band, h in enumerate(signature.band_hashes(self.num_bands)):
            found.update(self._buckets[band].get(h, ()))
        return found

    def query(
        self, signature: MinHashSignature, k: int = 10, exclude: set[str] | None = None
    ) -> list[tuple[str, float]]:
        """Top-k keys by estimated Jaccard similarity among band candidates.

        Falls back to a full scan when banding yields no candidates (small
        indexes / low-similarity regimes), so the method is total.
        """
        exclude = exclude or set()
        candidate_keys = self.candidates(signature) - exclude
        if not candidate_keys:
            candidate_keys = set(self._signatures) - exclude
        scored = [
            (key, signature.jaccard(self._signatures[key])) for key in candidate_keys
        ]
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        return scored[:k]
