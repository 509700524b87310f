"""Blended word embedder: surface-form + distributional signal.

A pre-trained fasttext model carries both morphological information (from
subwords) and distributional information (from training on a big corpus).
We reproduce the combination by concat-projecting the deterministic
:class:`HashingEmbedder` vector with the lake-trained :class:`PPMIEmbedder`
vector: each contributes ``dim`` components, then the concatenation is
reduced back to ``dim`` by a fixed random projection (Johnson-Lindenstrauss),
keeping the output dimensionality at the paper's 100.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.embed.hashing_embedder import HashingEmbedder
from repro.embed.ppmi import PPMIEmbedder


class BlendedEmbedder:
    """Word embedder blending subword-hash and PPMI-SVD vectors."""

    def __init__(
        self,
        dim: int = 100,
        subword: HashingEmbedder | None = None,
        distributional: PPMIEmbedder | None = None,
        subword_weight: float = 0.5,
        seed: int = 0,
    ):
        if not 0.0 <= subword_weight <= 1.0:
            raise ValueError(f"subword_weight must be in [0,1], got {subword_weight}")
        self.dim = dim
        self.subword = subword or HashingEmbedder(dim=dim, seed=seed)
        self.distributional = distributional
        self.subword_weight = subword_weight
        rng = np.random.default_rng(seed + 7)
        # Fixed JL projection from 2*dim to dim, shared by all words.
        self._projection = rng.standard_normal((2 * dim, dim)) / np.sqrt(dim)
        self._cache: dict[str, np.ndarray] = {}

    def embed_word(self, word: str) -> np.ndarray:
        word = word.lower()
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        sub = self.subword.embed_word(word)
        if self.distributional is not None and self.distributional.is_fitted:
            dist = self.distributional.embed_word(word)
        else:
            dist = np.zeros(self.dim)
        if not np.any(dist):
            # OOV in the distributional model: rely purely on subwords, as
            # fasttext does for unseen words.
            vec = sub
        else:
            w = self.subword_weight
            stacked = np.concatenate([w * sub, (1.0 - w) * dist])
            vec = stacked @ self._projection
            norm = np.linalg.norm(vec)
            if norm > 0:
                vec = vec / norm
        self._cache[word] = vec
        return vec

    def embed_words(self, words: list[str]) -> np.ndarray:
        """Stack blended vectors, batching everything but the projection.

        The subword rows come from one slab-kernel call, the distributional
        rows from one gather, and the weighted concatenation is assembled
        as a matrix — all elementwise, so each row matches the per-word
        form. Only the JL projection itself stays a per-row GEMV: a single
        GEMM accumulates in a different order than ``embed_word``'s
        vector-matrix product and would change the output bytes.
        """
        if not words:
            return np.zeros((0, self.dim))
        cache = self._cache
        lowered = [w.lower() for w in words]
        pending = list(dict.fromkeys(w for w in lowered if w not in cache))
        if pending:
            self._blend_pending(pending)
        return np.vstack([cache[w] for w in lowered])

    def _blend_pending(self, pending: list[str]) -> None:
        """Blend uncached (lowercased, deduped) words into the cache."""
        dim = self.dim
        sub = self.subword.embed_words(pending)
        dist = np.zeros((len(pending), dim))
        model = self.distributional
        if model is not None and model.is_fitted and model.vocabulary:
            vocab_get = model.vocabulary.get
            vectors = model._vectors
            for i, word in enumerate(pending):
                idx = vocab_get(word)
                if idx is not None:
                    dist[i] = vectors[idx]
        # Rows whose distributional half is all-zero (OOV or unfitted
        # model) rely purely on subwords, as fasttext does for unseen words.
        blendable = dist.any(axis=1)
        weight = self.subword_weight
        stacked = np.empty((len(pending), 2 * dim))
        stacked[:, :dim] = weight * sub
        stacked[:, dim:] = (1.0 - weight) * dist
        projection = self._projection
        cache = self._cache
        for i, word in enumerate(pending):
            if blendable[i]:
                vec = stacked[i] @ projection
                norm = np.linalg.norm(vec)
                if norm > 0:
                    vec = vec / norm
            else:
                vec = sub[i]
            cache[word] = vec

    def similarity(self, w1: str, w2: str) -> float:
        v1, v2 = self.embed_word(w1), self.embed_word(w2)
        n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
        if n1 == 0 or n2 == 0:
            return 0.0
        return float(np.dot(v1, v2) / (n1 * n2))

    # -------------------------------------------------------- persistence

    def persistent_state(self) -> dict:
        """Sub-embedder states plus the projection matrix verbatim — the
        construction seed is not stored on the instance, so the projection
        itself is the durable artefact. The blended word cache is derived
        warmth (sub-embedder lookups are deterministic) and is rebuilt
        lazily instead of persisted."""
        return {
            "dim": self.dim,
            "subword_weight": self.subword_weight,
            "projection": self._projection,
            "subword": self.subword.persistent_state(),
            "distributional": (
                None if self.distributional is None
                else self.distributional.persistent_state()
            ),
        }

    @classmethod
    def restore_state(cls, state: dict) -> "BlendedEmbedder":
        embedder = cls(
            dim=state["dim"],
            subword=HashingEmbedder.restore_state(state["subword"]),
            distributional=(
                None if state["distributional"] is None
                else PPMIEmbedder.restore_state(state["distributional"])
            ),
            subword_weight=state["subword_weight"],
        )
        embedder._projection = np.asarray(state["projection"], dtype=float)
        return embedder


class LakeEmbedderTraining:
    """In-flight training of the default lake embedder.

    The distributional (PPMI) component trains on a background thread — its
    heavy lifting is GIL-releasing sparse-algebra and Lanczos work — while
    the caller warms the subword component (e.g. one batched
    ``subword.embed_words`` over the fit's union vocabulary) and runs other
    fit stages. :meth:`result` joins and assembles the blended embedder; the
    vectors are identical to a sequential :func:`build_lake_embedder` call —
    the thread changes scheduling, not arithmetic.
    """

    def __init__(self, token_corpora, dim: int = 100, seed: int = 0):
        """``token_corpora`` is the list of token lists to train on, or a
        zero-argument callable producing it — a callable moves the corpus
        assembly itself onto the training thread, overlapping it with the
        caller's other fit stages (it is training prep, not embed work)."""
        self.subword = HashingEmbedder(dim=dim, seed=seed)
        self._dim = dim
        self._seed = seed
        self._box: dict[str, object] = {}

        def _train() -> None:
            try:
                corpora = token_corpora() if callable(token_corpora) else token_corpora
                self._box["model"] = PPMIEmbedder(dim=dim, seed=seed).fit(
                    corpora
                )
            except BaseException as exc:  # surfaced by result()
                self._box["error"] = exc

        self._thread = threading.Thread(
            target=_train, name="lake-embedder-train", daemon=True
        )
        self._thread.start()

    def result(self) -> BlendedEmbedder:
        """Wait for training and assemble the blended embedder."""
        self._thread.join()
        error = self._box.get("error")
        if error is not None:
            raise error  # type: ignore[misc]
        return BlendedEmbedder(
            dim=self._dim,
            subword=self.subword,
            distributional=self._box["model"],  # type: ignore[arg-type]
            seed=self._seed,
        )


def build_lake_embedder(
    token_corpora: list[list[str]], dim: int = 100, seed: int = 0
) -> BlendedEmbedder:
    """Train a blended embedder on the lake's own token corpus.

    ``token_corpora`` is a list of token lists (documents' and columns' term
    bags). This is the stand-in for "load a pre-trained fasttext model":
    the returned embedder provides a vector for *every* word (subword path
    covers OOV) with distributional structure learned from the lake.
    """
    return LakeEmbedderTraining(token_corpora, dim=dim, seed=seed).result()
