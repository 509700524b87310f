"""Tests for the subword-hashing embedder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embed.hashing_embedder import HashingEmbedder

words = st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=12)


@pytest.fixture(scope="module")
def embedder() -> HashingEmbedder:
    return HashingEmbedder(dim=64, seed=0)


class TestEmbedWord:
    def test_shape_and_norm(self, embedder):
        v = embedder.embed_word("drug")
        assert v.shape == (64,)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_deterministic(self, embedder):
        assert (embedder.embed_word("drug") == embedder.embed_word("drug")).all()

    def test_case_insensitive(self, embedder):
        assert (embedder.embed_word("Drug") == embedder.embed_word("drug")).all()

    def test_morphological_similarity(self, embedder):
        # Shared subwords -> higher similarity than unrelated words.
        related = embedder.similarity("reductase", "synthase")  # share '-ase'
        inflected = embedder.similarity("school", "schools")
        unrelated = embedder.similarity("school", "enzyme")
        assert inflected > unrelated
        assert related > unrelated

    def test_seed_changes_space(self):
        e1 = HashingEmbedder(dim=32, seed=1)
        e2 = HashingEmbedder(dim=32, seed=2)
        assert not np.allclose(e1.embed_word("drug"), e2.embed_word("drug"))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dim=0)
        with pytest.raises(ValueError):
            HashingEmbedder(min_n=4, max_n=3)

    @settings(max_examples=30, deadline=None)
    @given(words)
    def test_unit_norm_property(self, word):
        e = HashingEmbedder(dim=32)
        assert np.linalg.norm(e.embed_word(word)) == pytest.approx(1.0, abs=1e-9)


class TestEmbedWords:
    def test_matrix_shape(self, embedder):
        m = embedder.embed_words(["a", "b", "c"])
        assert m.shape == (3, 64)

    def test_empty(self, embedder):
        assert embedder.embed_words([]).shape == (0, 64)

    def test_cache_consistency(self, embedder):
        first = embedder.embed_word("cachetest").copy()
        again = embedder.embed_word("cachetest")
        assert (first == again).all()


class TestSimilarity:
    def test_self_similarity(self, embedder):
        assert embedder.similarity("drug", "drug") == pytest.approx(1.0)

    def test_bounded(self, embedder):
        for a, b in [("drug", "city"), ("enzyme", "protein")]:
            assert -1.0 <= embedder.similarity(a, b) <= 1.0


class TestGramSlabKernel:
    """Each stage of the columnar embed kernel against its per-word oracle."""

    WORDS = ["alpha", "beta", "alphabet", "a", "ab", "synthase", "reductase"]

    def test_gram_slab_matches_ngrams(self):
        e = HashingEmbedder(dim=8, seed=0)
        counts, slab = e._gram_slab(self.WORDS)
        expected = [e._ngrams(w) for w in self.WORDS]
        assert counts == [len(grams) for grams in expected]
        assert slab == [g for grams in expected for g in grams]

    def test_scalar_route_matches_list_route(self):
        grams = HashingEmbedder(dim=8, seed=2)._ngrams("synthase")
        scalar = HashingEmbedder(dim=8, seed=2)
        listed = HashingEmbedder(dim=8, seed=2)
        assert [scalar._bucket_of(g) for g in grams] == listed._buckets_of(grams)
        # The memo serves repeat routes on both paths.
        assert scalar._gram_bucket == listed._gram_bucket

    def test_route_slab_rows_match_bucket_vectors(self):
        e = HashingEmbedder(dim=8, seed=1)
        _, slab = e._gram_slab(self.WORDS)
        row_ids = e._route_slab(slab)
        fresh = HashingEmbedder(dim=8, seed=1)
        for gram, row in zip(slab, row_ids):
            assert np.array_equal(e._table[row], fresh._bucket_vector(gram)), gram

    def test_chunked_pooling_invariant(self, monkeypatch):
        vocab = [f"word{i}" for i in range(50)] + self.WORDS
        whole = HashingEmbedder(dim=16, seed=0).embed_words(vocab)
        monkeypatch.setattr(HashingEmbedder, "_POOL_CHUNK_WORDS", 3)
        chunked = HashingEmbedder(dim=16, seed=0).embed_words(vocab)
        assert np.array_equal(whole, chunked)

    def test_batch_matches_per_word(self):
        batch = HashingEmbedder(dim=16, seed=0).embed_words(self.WORDS)
        oracle = HashingEmbedder(dim=16, seed=0)
        singles = np.vstack([oracle.embed_word(w) for w in self.WORDS])
        assert np.array_equal(batch, singles)

    def test_kernel_seconds_accrue(self):
        e = HashingEmbedder(dim=8, seed=0)
        e.embed_words(["alpha", "beta"])
        assert set(e.kernel_seconds) == {"grams", "route", "draw", "pool"}
        assert all(v >= 0 for v in e.kernel_seconds.values())
        assert sum(e.kernel_seconds.values()) > 0


class TestCacheFills:
    """A copy of a warm embedder (pickled or deep-copied per shard) drops
    its locks and re-creates them, and serves the same vectors."""

    def test_pickle_roundtrip_same_vectors(self):
        import pickle

        e = HashingEmbedder(dim=8, seed=0)
        e.embed_word("alpha")
        clone = pickle.loads(pickle.dumps(e))
        assert np.array_equal(clone.embed_word("alpha"), e.embed_word("alpha"))
        assert np.array_equal(clone.embed_word("beta"), e.embed_word("beta"))
