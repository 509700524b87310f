"""Batch == per-item parity for the vectorised fit pipeline.

The batched cold fit must produce *byte-identical* output to driving the
whole fit through the per-item delta routines
(``Profiler.profile(lake, batched=False)`` + ``IndexCatalog(bulk=False)``,
the oracle :func:`per_item_fit` assembles): every bag, signature,
embedding, value set, and index structure. These tests pin that contract on
all three seed lakes plus the handcrafted edge cases (empty sets,
all-missing columns, duplicate-heavy values), and pin the fit output itself
against a recorded fingerprint so silent drift in either path fails loudly.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.ann.rpforest import RPForestIndex
from repro.core.discovery import DiscoveryEngine
from repro.core.indexes import IndexCatalog
from repro.core.profiler import Profiler, _training_switch_interval
from repro.core.system import CMDL, CMDLConfig
from repro.embed.blended import BlendedEmbedder
from repro.embed.hashing_embedder import HashingEmbedder
from repro.relational.catalog import DataLake, Document
from repro.relational.table import Table
from repro.search.engine import SearchEngine
from repro.sketch.lsh import LSHIndex
from repro.sketch.lshensemble import LSHEnsemble
from repro.sketch.minhash import MinHash, band_hashes_batch


def assert_sketch_equal(a, b) -> None:
    assert a.de_id == b.de_id and a.kind == b.kind
    assert a.content_bow.terms == b.content_bow.terms
    assert a.metadata_bow.terms == b.metadata_bow.terms
    assert np.array_equal(a.signature.values, b.signature.values)
    assert a.signature.set_size == b.signature.set_size
    assert (a.value_signature is None) == (b.value_signature is None)
    if a.value_signature is not None:
        assert np.array_equal(a.value_signature.values, b.value_signature.values)
        assert a.value_signature.set_size == b.value_signature.set_size
    assert np.array_equal(a.content_embedding, b.content_embedding)
    assert np.array_equal(a.metadata_embedding, b.metadata_embedding)
    assert a.value_set == b.value_set
    assert a.numeric == b.numeric
    assert a.tags == b.tags
    assert a.table_name == b.table_name and a.column_name == b.column_name


def per_item_fit(lake: DataLake, cfg: CMDLConfig) -> CMDL:
    """``CMDL.fit`` (no joint model) driven through the per-item routines:
    the profile from ``profile(batched=False)``, every index from
    per-item inserts (``bulk=False``)."""
    cmdl = CMDL(cfg)
    cmdl.profiler = Profiler(
        embedding_dim=cfg.embedding_dim,
        num_hashes=cfg.num_hashes,
        pooling=cfg.pooling,
        embedder=cfg.embedder,
        pipeline=cfg.document_pipeline,
        seed=cfg.seed,
    )
    cmdl.profile = cmdl.profiler.profile(lake, batched=False)
    cmdl.indexes = IndexCatalog(
        cmdl.profile, ranker=cfg.ranker, seed=cfg.seed, bulk=False
    )
    cmdl.engine = DiscoveryEngine(
        profile=cmdl.profile,
        indexes=cmdl.indexes,
        joint_model=None,
        uniqueness={c.qualified_name: c.uniqueness for c in lake.columns},
        pkfk_params={
            "containment_threshold": cfg.pkfk_containment_threshold,
            "name_threshold": cfg.pkfk_name_threshold,
            "key_uniqueness_threshold": cfg.pkfk_key_uniqueness,
        },
        strategy=cfg.discovery_strategy,
        operator_strategies=cfg.operator_strategies,
    )
    return cmdl


def assert_profiles_equal(a, b) -> None:
    assert set(a.documents) == set(b.documents)
    assert set(a.columns) == set(b.columns)
    assert a.table_columns == b.table_columns
    for de_id in a.documents:
        assert_sketch_equal(a.documents[de_id], b.documents[de_id])
    for de_id in a.columns:
        assert_sketch_equal(a.columns[de_id], b.columns[de_id])


@pytest.fixture(scope="module")
def pharma_lake_m(pharma_generated):
    return pharma_generated.lake


@pytest.fixture(scope="module")
def ukopen_lake_m(ukopen_generated):
    return ukopen_generated.lake


@pytest.fixture(scope="module")
def mlopen_lake_m(mlopen_generated):
    return mlopen_generated.lake


@pytest.fixture(scope="module")
def pin_lake() -> DataLake:
    """Handcrafted, generator-independent lake for the pinned fingerprint."""
    lake = DataLake(name="pin")
    lake.add_table(Table.from_dict(
        "drugs",
        {
            "drug_id": ["D1", "D2", "D3", "D4"],
            "name": ["aspirin", "ibuprofen", "codeine", "morphine"],
            "year": ["1999", "2001", "2005", "2010"],
        },
    ))
    lake.add_table(Table.from_dict(
        "targets",
        {
            "target_id": ["T1", "T2", "T3"],
            "drug_ref": ["D1", "D2", "D2"],
            "protein": ["cox synthase", "cox reductase", "mu receptor"],
        },
    ))
    lake.add_document(Document(
        doc_id="doc:aspirin",
        title="Aspirin and cox synthase",
        text="Aspirin inhibits cox synthase and reduces inflammation.",
    ))
    lake.add_document(Document(
        doc_id="doc:ibuprofen",
        title="Ibuprofen study",
        text="Ibuprofen targets cox reductase in chronic inflammation.",
    ))
    return lake


def edge_case_lake() -> DataLake:
    """Empty vocab, all-missing columns, duplicate-heavy values, empty doc."""
    lake = DataLake(name="edge")
    lake.add_table(Table.from_dict(
        "weird",
        {
            "all_missing": ["", "N/A", "null", "", ""],
            "numbers": ["1.5", "2.5", "", "4.0", "1.5"],
            "empty_name": ["only", "two", "vals", "here", "vals"],
        },
    ))
    lake.add_table(Table.from_dict(
        "dupes", {"dup_heavy": ["x"] * 40 + ["y"], "tail": [""] * 40 + ["z"]}
    ))
    lake.add_table(Table.from_dict("lonely", {"single": ["v"] * 3}))
    lake.add_document(Document(doc_id="doc:empty", title="", text=""))
    lake.add_document(Document(
        doc_id="doc:dup", title="dup dup", text="alpha alpha alpha beta. " * 20
    ))
    return lake


@pytest.fixture(scope="module")
def edge_lake():
    return edge_case_lake()


class TestProfileParity:
    @pytest.mark.parametrize("lake_fixture", [
        "pharma_lake_m", "ukopen_lake_m", "mlopen_lake_m",
    ])
    def test_seed_lake_profiles_identical(self, lake_fixture, request):
        lake = request.getfixturevalue(lake_fixture)
        batched = Profiler(embedding_dim=24, num_hashes=64, seed=0).profile(lake)
        legacy = Profiler(embedding_dim=24, num_hashes=64, seed=0).profile(
            lake, batched=False
        )
        assert_profiles_equal(batched, legacy)

    def test_edge_lake_profiles_identical(self, edge_lake):
        # The edge lake's PPMI matrix is tiny and degenerate, where scipy's
        # truncated SVD is not refit-deterministic (a pre-existing property
        # that test_incremental_parity sidesteps the same way) — so both
        # paths share one trained distributional model; subword tables,
        # blending, sketching, and pooling still run fresh per path.
        from repro.embed.ppmi import PPMIEmbedder

        corpora = Profiler(seed=0)._training_corpora(edge_lake)
        distributional = PPMIEmbedder(dim=24, seed=0).fit(corpora)

        def profiler():
            return Profiler(
                embedding_dim=24,
                num_hashes=64,
                embedder=BlendedEmbedder(
                    dim=24, distributional=distributional, seed=0
                ),
                seed=0,
            )

        assert_profiles_equal(
            profiler().profile(edge_lake),
            profiler().profile(edge_lake, batched=False),
        )

    def test_explicit_embedder_profiles_identical(self, edge_lake):
        def profiler():
            return Profiler(
                embedding_dim=16,
                num_hashes=32,
                embedder=HashingEmbedder(dim=16, seed=0),
                seed=0,
            )

        assert_profiles_equal(
            profiler().profile(edge_lake),
            profiler().profile(edge_lake, batched=False),
        )

    def test_fit_stats_populated(self, edge_lake):
        cmdl = CMDL(CMDLConfig(use_joint=False, embedding_dim=16))
        cmdl.fit(edge_lake)
        stats = cmdl.fit_stats.as_dict()
        assert stats["total_seconds"] > 0
        assert all(v >= 0 for v in stats.values())
        assert cmdl.fit_stats.summary().startswith("profile=")


class TestIndexStateParity:
    @pytest.fixture(scope="class")
    def profile_pair(self, pharma_lake_m):
        profile = Profiler(embedding_dim=24, num_hashes=64, seed=0).profile(
            pharma_lake_m
        )
        bulk = IndexCatalog(profile, seed=0, bulk=True)
        incremental = IndexCatalog(profile, seed=0, bulk=False)
        return bulk, incremental

    def test_keyword_engines_identical(self, profile_pair):
        bulk, incremental = profile_pair
        for name in ("doc_content", "doc_metadata", "column_content",
                     "column_metadata", "column_schema", "column_schema_ngrams"):
            a = getattr(bulk, name).index
            b = getattr(incremental, name).index
            assert a._postings == b._postings, name
            assert a._doc_lengths == b._doc_lengths, name
            assert a._df == b._df and a._collection_tf == b._collection_tf, name

    def test_ann_forests_identical(self, profile_pair):
        bulk, incremental = profile_pair
        for name in ("doc_solo", "column_solo", "column_semantic"):
            a, b = getattr(bulk, name), getattr(incremental, name)
            assert a._keys == b._keys, name
            assert np.array_equal(a._matrix, b._matrix), name

    def test_ensembles_identical(self, profile_pair):
        bulk, incremental = profile_pair
        for name in ("column_containment", "value_containment"):
            a, b = getattr(bulk, name), getattr(incremental, name)
            assert [p.keys() for p in a._partitions] == [
                p.keys() for p in b._partitions
            ], name
            assert a._partition_upper == b._partition_upper, name

    def test_interval_index_identical(self, profile_pair):
        bulk, incremental = profile_pair
        assert bulk.column_numeric._keys == incremental.column_numeric._keys


class TestBulkBuilders:
    def test_search_engine_bulk_matches_adds(self):
        bags = [("a", ["x", "y", "x"]), ("b", ["y"]), ("c", [])]
        bulk, single = SearchEngine(), SearchEngine()
        bulk.build_bulk(bags)
        for key, terms in bags:
            single.add(key, terms)
        assert bulk.index._postings == single.index._postings
        assert bulk.index._doc_lengths == single.index._doc_lengths
        assert bulk.search(["x", "y"]) == single.search(["x", "y"])

    def test_search_engine_bulk_on_nonempty_index(self):
        engine = SearchEngine()
        engine.add("a", ["x"])
        engine.build_bulk([("b", ["y"])])
        assert "a" in engine and "b" in engine
        with pytest.raises(ValueError):
            engine.build_bulk([("b", ["z"])])

    def test_lshensemble_bulk_matches_adds(self):
        mh = MinHash(num_hashes=64, seed=0)
        entries = [(f"k{i}", mh.signature({f"v{j}" for j in range(i + 1)}))
                   for i in range(12)]
        bulk = LSHEnsemble(num_partitions=4).build_bulk(entries)
        single = LSHEnsemble(num_partitions=4)
        for key, sig in entries:
            single.add(key, sig)
        single.build()
        assert [p.keys() for p in bulk._partitions] == [
            p.keys() for p in single._partitions
        ]
        probe = mh.signature({"v0", "v1"})
        assert bulk.query(probe, k=3) == single.query(probe, k=3)

    def test_lshensemble_bulk_rejects_built(self):
        ensemble = LSHEnsemble().build()
        with pytest.raises(RuntimeError):
            ensemble.build_bulk([])

    def test_rpforest_bulk_matches_adds(self):
        rng = np.random.default_rng(0)
        entries = [(f"p{i}", rng.standard_normal(8)) for i in range(30)]
        bulk = RPForestIndex(dim=8, seed=0).build_bulk(entries)
        single = RPForestIndex(dim=8, seed=0)
        for key, vec in entries:
            single.add(key, vec)
        single.build()
        assert bulk._keys == single._keys
        assert np.array_equal(bulk._matrix, single._matrix)
        q = rng.standard_normal(8)
        assert bulk.query(q, k=5) == single.query(q, k=5)

    def test_rpforest_bulk_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            RPForestIndex(dim=4).build_bulk([("k", np.zeros(3))])


class TestEmbeddingBatchParity:
    WORDS = ["alpha", "beta", "alphabet", "gamma", "a", "synthase", "alpha"]

    def test_hashing_embedder_batch_equals_single(self):
        batch = HashingEmbedder(dim=32, seed=0).embed_words(self.WORDS)
        single_embedder = HashingEmbedder(dim=32, seed=0)
        singles = np.vstack([single_embedder.embed_word(w) for w in self.WORDS])
        assert np.array_equal(batch, singles)

    def test_hashing_embedder_split_invariant(self):
        whole = HashingEmbedder(dim=16, seed=1).embed_words(self.WORDS)
        split_embedder = HashingEmbedder(dim=16, seed=1)
        parts = [split_embedder.embed_words(self.WORDS[:3]),
                 split_embedder.embed_words(self.WORDS[3:])]
        assert np.array_equal(whole, np.vstack(parts))

    def test_blended_batch_equals_single(self):
        from repro.embed.ppmi import PPMIEmbedder

        dist = PPMIEmbedder(dim=16, min_count=1, seed=0).fit(
            [["alpha", "beta"], ["alpha", "gamma"]] * 4
        )
        batch = BlendedEmbedder(dim=16, distributional=dist, seed=0).embed_words(
            self.WORDS
        )
        single_embedder = BlendedEmbedder(dim=16, distributional=dist, seed=0)
        singles = np.vstack([single_embedder.embed_word(w) for w in self.WORDS])
        assert np.array_equal(batch, singles)

    def test_async_training_equals_sequential(self):
        from repro.embed.blended import LakeEmbedderTraining, build_lake_embedder

        corpora = [["drug", "enzyme", "target"], ["drug", "protein"]] * 5
        sequential = build_lake_embedder(corpora, dim=16, seed=0)
        training = LakeEmbedderTraining(corpora, dim=16, seed=0)
        training.subword.embed_words(["drug", "protein", "novel"])
        overlapped = training.result()
        for word in ["drug", "enzyme", "novel", "unseen-word"]:
            assert np.array_equal(
                sequential.embed_word(word), overlapped.embed_word(word)
            )


class TestEndToEndParity:
    def test_discovery_identical_across_fit_modes(self, pharma_lake_m):
        from repro.core.srql import Q

        batched = CMDL(CMDLConfig(use_joint=False, seed=0))
        batched.fit(pharma_lake_m)
        legacy = per_item_fit(pharma_lake_m, CMDLConfig(use_joint=False, seed=0))
        assert_profiles_equal(batched.profile, legacy.profile)
        tables = sorted(batched.profile.table_columns)[:4]
        for table in tables:
            for query in (Q.joinable(table, top_n=3), Q.pkfk(table, top_n=3),
                          Q.unionable(table, top_n=3)):
                assert (batched.engine.discover(query).items
                        == legacy.engine.discover(query).items)


def fit_output_fingerprint(cmdl: CMDL, values_only: bool = False) -> str:
    """Canonical digest of a fitted profile.

    ``values_only`` restricts the digest to value-semantics outputs (bags,
    value sets, minhash signatures), which are independent of the embedding
    scheme; the full digest also covers both solo embeddings byte-for-byte.
    """
    digest = hashlib.blake2b(digest_size=16)
    profile = cmdl.profile
    for de_id in sorted(list(profile.documents) + list(profile.columns)):
        sketch = profile.sketch(de_id)
        digest.update(de_id.encode())
        for term, count in sorted(sketch.content_bow.terms.items()):
            digest.update(f"{term}:{count};".encode())
        for term, count in sorted(sketch.metadata_bow.terms.items()):
            digest.update(f"{term}:{count};".encode())
        for value in sorted(sketch.value_set):
            digest.update(value.encode())
        digest.update(sketch.signature.values.tobytes())
        if sketch.value_signature is not None:
            digest.update(sketch.value_signature.values.tobytes())
        if not values_only:
            digest.update(np.ascontiguousarray(sketch.content_embedding).tobytes())
            digest.update(np.ascontiguousarray(sketch.metadata_embedding).tobytes())
    return digest.hexdigest()


class TestPinnedFitFingerprint:
    """Guard against silent drift of the cold-fit output.

    The value-semantics digest (bags + value sets + minhash signatures) is
    invariant under this PR — VALUES_DIGEST was computed by running the
    *pre-refactor* fit (commit 8b8a6f3) over the same lake and matches the
    batched pipeline exactly. The full digest additionally pins the solo
    embeddings as produced by the vectorised bucket-table scheme this PR
    introduced (re-pin deliberately if the scheme ever changes).
    """

    VALUES_DIGEST = "ff807ae64a1c306a22645ebb604032b4"
    FULL_DIGEST = "12ba180d4fc127669216b0930cdaefdd"

    @pytest.fixture(scope="class")
    def fitted(self, pin_lake):
        cmdl = CMDL(CMDLConfig(use_joint=False, seed=0))
        cmdl.fit(pin_lake)
        return cmdl

    def test_value_semantics_fingerprint_unchanged(self, fitted):
        assert fit_output_fingerprint(fitted, values_only=True) == self.VALUES_DIGEST

    def test_full_fingerprint_unchanged(self, fitted):
        assert fit_output_fingerprint(fitted) == self.FULL_DIGEST

    def test_legacy_mode_same_fingerprint(self, pin_lake, fitted):
        legacy = per_item_fit(pin_lake, CMDLConfig(use_joint=False, seed=0))
        assert fit_output_fingerprint(legacy) == fit_output_fingerprint(fitted)


class TestReviewFixRegressions:
    def test_rpforest_bulk_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="duplicate"):
            RPForestIndex(dim=3).build_bulk(
                [("k", np.ones(3)), ("k", np.zeros(3))]
            )

    def test_fingerprint_cache_bounded(self, monkeypatch):
        from repro.sketch.fingerprints import FingerprintCache

        monkeypatch.setattr(FingerprintCache, "MAX_ENTRIES", 2)
        cache = FingerprintCache()
        values = cache.fingerprints(["a", "b", "c", "d"])
        assert len(cache) == 2  # retention capped ...
        assert cache.fingerprint("d") == int(values[3])  # ... values still exact

    def test_bucket_table_grows_without_stale_rows(self):
        embedder = HashingEmbedder(dim=8, seed=0)
        first = embedder.embed_word("alpha").copy()
        # Force many incremental materialisations past several growths.
        for i in range(200):
            embedder.embed_word(f"w{i}")
        assert np.array_equal(embedder.embed_word("alpha"), first)
        fresh = HashingEmbedder(dim=8, seed=0)
        for i in range(200):
            assert np.array_equal(
                embedder.embed_word(f"w{i}"), fresh.embed_word(f"w{i}")
            )


class TestColumnarBandKernel:
    """The one-slab band kernel must match the per-signature band hashes."""

    @staticmethod
    def _signatures():
        mh = MinHash(num_hashes=64, seed=0)
        rng = np.random.default_rng(7)
        sigs = []
        for _ in range(40):
            size = int(rng.integers(1, 30))
            values = rng.integers(0, 500, size=size).tolist()
            sigs.append(mh.signature({f"v{v}" for v in values}))
        return sigs

    def test_batch_matches_per_signature(self):
        # Two independent signature lists over the same sets: one hashed
        # through the columnar kernel, one via the per-signature path, so
        # memo seeding on the batched list cannot mask a kernel mismatch.
        matrix = band_hashes_batch(self._signatures(), 16)
        expected = [s.band_hashes(16) for s in self._signatures()]
        assert matrix.shape == (40, 16)
        for row, exp in zip(matrix, expected):
            assert [int(h) for h in row] == exp

    def test_batch_seeds_per_signature_memo(self):
        sig = MinHash(num_hashes=32, seed=0).signature({"a", "b", "c"})
        matrix = band_hashes_batch([sig], 8)
        assert sig._band_memo[8] == [int(h) for h in matrix[0]]
        # The later per-key probe is a dict lookup, not a recompute.
        assert sig.band_hashes(8) is sig._band_memo[8]

    def test_band_hashes_memoised(self):
        sig = MinHash(num_hashes=32, seed=0).signature({"x", "y"})
        first = sig.band_hashes(8)
        assert sig.band_hashes(8) is first
        # Distinct band counts memoise independently.
        assert sig.band_hashes(4) is not first

    def test_lsh_index_bulk_matches_adds(self):
        mh = MinHash(num_hashes=64, seed=0)
        entries = [
            (f"k{i}", mh.signature({f"v{j}" for j in range(i + 1)}))
            for i in range(15)
        ]
        bulk = LSHIndex(num_bands=16).build_bulk(entries)
        single = LSHIndex(num_bands=16)
        for key, sig in entries:
            single.add(key, sig)
        assert [dict(b) for b in bulk._buckets] == [
            dict(b) for b in single._buckets
        ]
        probe = mh.signature({"v0", "v1", "v2"})
        assert bulk.query(probe, k=5) == single.query(probe, k=5)


@dataclass
class RefNode:
    """Split node or leaf of one reference RP tree."""

    # Leaf: indexes is set, normal/offset/children are None.
    indexes: list[int] | None = None
    normal: np.ndarray | None = None
    offset: float = 0.0
    left: "RefNode | None" = None
    right: "RefNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.indexes is not None


def plant_reference_trees(forest: RPForestIndex) -> list[RefNode]:
    """Plant the forest's trees recursively, depth first, over its planted
    matrix: the reference the level-synchronous array layout must equal.
    Splits go through the forest's own ``_split_plane`` (position-keyed
    randomness), projected with the same per-node GEMV."""

    def plant(indexes: list[int], tree: int, path: int, depth: int) -> RefNode:
        if len(indexes) <= forest.leaf_size or depth > forest.MAX_DEPTH:
            return RefNode(indexes=list(indexes))
        normal, offset, _ = forest._split_plane(indexes, tree, path)
        projections = forest._matrix[indexes] @ normal - offset
        left = [ix for ix, s in zip(indexes, projections) if s <= 0]
        right = [ix for ix, s in zip(indexes, projections) if s > 0]
        if not left or not right:
            return RefNode(indexes=list(indexes))
        return RefNode(
            normal=normal,
            offset=offset,
            left=plant(left, tree, 2 * path, depth + 1),
            right=plant(right, tree, 2 * path + 1, depth + 1),
        )

    all_indexes = list(range(forest._matrix.shape[0]))
    return [plant(all_indexes, tree, 1, 0) for tree in range(forest.num_trees)]


def assert_layout_matches(forest: RPForestIndex, trees: list[RefNode]) -> None:
    """Every array node equals its reference node: same plane and offset
    bits at splits, same row ids in the same order at leaves."""
    assert len(forest._tree_roots) == len(trees)
    stack = list(zip(forest._tree_roots, trees))
    while stack:
        node, ref = stack.pop()
        if ref.is_leaf:
            assert forest._node_left[node] == -1
            start, end = forest._leaf_start[node], forest._leaf_end[node]
            assert forest._leaf_items[start:end].tolist() == ref.indexes
            continue
        plane = forest._planes[forest._node_plane[node]]
        assert np.array_equal(plane, ref.normal)
        assert forest._node_offset[node] == ref.offset
        stack.append((forest._node_left[node], ref.left))
        stack.append((forest._node_right[node], ref.right))


def reference_query(forest: RPForestIndex, trees: list[RefNode], vector, k: int):
    """``RPForestIndex.query`` over the reference trees: the shared-heap
    walk, fresh rows scanned exactly, tombstones filtered, exact re-rank."""
    norm = np.linalg.norm(vector)
    q = vector / norm if norm > 0 else np.asarray(vector, dtype=float)
    budget = max(k * forest.num_trees * 4, k)
    candidates: set[int] = set()
    heap: list[tuple[float, int, RefNode]] = []
    counter = 0
    for tree in trees:
        heapq.heappush(heap, (-np.inf, counter, tree))
        counter += 1
    while heap and len(candidates) < budget:
        _, _, node = heapq.heappop(heap)
        while not node.is_leaf:
            margin = float(node.normal @ q - node.offset)
            near, far = (
                (node.left, node.right) if margin <= 0 else (node.right, node.left)
            )
            heapq.heappush(heap, (-abs(margin), counter, far))
            counter += 1
            node = near
        candidates.update(node.indexes)
    candidates.update(forest._fresh)
    planted = forest._matrix.shape[0]
    scored = []
    for idx in candidates:
        if idx in forest._deleted_idx:
            continue
        row = forest._matrix[idx] if idx < planted else forest._rows[idx]
        scored.append((forest._keys[idx], float(row @ q)))
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:k]


class TestForestBackendParity:
    """The array forest must equal the recursive reference planter.

    Identical layout and identical *query output* — same keys, same order —
    not just overlapping candidate sets: position-keyed per-node randomness
    makes depth-first and level-synchronous planting bit-identical, so
    every walk visits the same leaves.
    """

    @staticmethod
    def _checked(entries, dim, **kw):
        forest = RPForestIndex(dim=dim, **kw).build_bulk(entries)
        trees = plant_reference_trees(forest)
        assert_layout_matches(forest, trees)
        return forest, trees

    def test_random_points_identical(self):
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((300, 12))
        vecs[5] = vecs[17]  # duplicate rows force the degenerate-plane path
        vecs[40] = 0.0
        entries = [(f"p{i}", v) for i, v in enumerate(vecs)]
        forest, trees = self._checked(
            entries, dim=12, num_trees=6, leaf_size=8, seed=0
        )
        queries = [rng.standard_normal(12) for _ in range(20)]
        queries += [np.zeros(12), vecs[5]]
        for q in queries:
            for k in (1, 5, 20):
                assert forest.query(q, k=k) == reference_query(forest, trees, q, k)

    @pytest.mark.parametrize("lake_fixture", [
        "pharma_lake_m", "ukopen_lake_m", "mlopen_lake_m",
    ])
    def test_seed_lakes_identical(self, lake_fixture, request):
        lake = request.getfixturevalue(lake_fixture)
        profile = Profiler(embedding_dim=24, num_hashes=64, seed=0).profile(lake)
        sketches = {**profile.documents, **profile.columns}
        entries = [(de_id, s.encoding) for de_id, s in sorted(sketches.items())]
        dim = entries[0][1].shape[0]
        forest, trees = self._checked(entries, dim=dim, seed=0)
        for de_id, vec in entries:
            assert forest.query(vec, k=10) == reference_query(
                forest, trees, vec, 10
            ), de_id

    def test_mutation_keeps_backends_aligned(self):
        rng = np.random.default_rng(11)
        entries = [(f"p{i}", rng.standard_normal(8)) for i in range(80)]
        forest, trees = self._checked(
            entries, dim=8, num_trees=4, leaf_size=4, seed=2
        )
        # Below the re-plant bar: the trees stay, a fresh row and a
        # tombstone ride on top of them.
        extra = rng.standard_normal(8)
        forest.insert("extra", extra)
        forest.delete("p3")
        assert forest._fresh and forest._deleted_idx
        for q in (rng.standard_normal(8), extra):
            assert forest.query(q, k=8) == reference_query(forest, trees, q, 8)
        # Past it: the forest re-plants over the compacted rows.
        added = 0
        while forest._fresh:
            forest.insert(f"x{added}", rng.standard_normal(8))
            added += 1
        assert not forest._deleted_idx and forest._matrix.shape[0] == 80 + added
        trees = plant_reference_trees(forest)
        assert_layout_matches(forest, trees)
        for q in (rng.standard_normal(8), extra):
            assert forest.query(q, k=8) == reference_query(forest, trees, q, 8)


class TestParallelEmbedParity:
    """Every fit attributes its index and embed stages."""

    def test_index_breakdown_recorded(self, pin_lake):
        cmdl = CMDL(CMDLConfig(use_joint=False, seed=0))
        cmdl.fit(pin_lake)
        breakdown = cmdl.fit_stats.index_breakdown
        assert set(breakdown) == {
            "keyword", "value_containment", "schema", "numeric", "semantic"
        }
        assert all(v >= 0 for v in breakdown.values())
        # as_dict() stays flat-scalar for the benchmark emitters.
        assert "index_breakdown" not in cmdl.fit_stats.as_dict()

    def test_embed_breakdown_recorded(self, pin_lake):
        cmdl = CMDL(CMDLConfig(use_joint=False, seed=0))
        cmdl.fit(pin_lake)
        breakdown = cmdl.fit_stats.embed_breakdown
        assert set(breakdown) == {
            "grams", "route", "draw", "pool", "train_overlap"
        }
        assert all(v >= 0 for v in breakdown.values())
        # The default embedder runs the slab kernel, so some sub-stage accrues.
        assert sum(breakdown.values()) > 0
        assert "embed_breakdown" not in cmdl.fit_stats.as_dict()


class TestSwitchInterval:
    """A default-embedder fit shortens the GIL switch interval while its
    embedder trains; concurrent fits must still leave it as they found it."""

    def test_overlapping_blocks_restore_on_last_exit(self):
        before = sys.getswitchinterval()
        first, second = _training_switch_interval(), _training_switch_interval()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)  # exits out of order
        assert sys.getswitchinterval() == 0.0005
        second.__exit__(None, None, None)
        assert sys.getswitchinterval() == before

    def test_many_threads_restore_interval(self):
        before = sys.getswitchinterval()
        inside: list[float] = []

        def churn():
            for _ in range(200):
                with _training_switch_interval():
                    time.sleep(0.0001)  # releases the GIL mid-block
                    inside.append(sys.getswitchinterval())

        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(inside) == 8 * 200 and set(inside) == {0.0005}
        assert sys.getswitchinterval() == before

    def test_concurrent_shard_fits_restore_interval(self, pharma_lake_m,
                                                     monkeypatch):
        before = sys.getswitchinterval()
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with CMDL(CMDLConfig(use_joint=False, seed=0)).open(
            pharma_lake_m, shards=2
        ) as session:
            assert session._pool is not None
            assert sys.getswitchinterval() == before
            session.refresh()
            assert sys.getswitchinterval() == before
