"""Index sections store references to the profile's sketches, not copies.

Three layers are pinned here. The structures: ``persistent_state(source)``
followed by ``restore_state(state, source)`` rebuilds an RP forest whose
matrix, rows and planes are bit-identical and an LSH index whose
referenced signatures *are* the source's objects — under generated
build / insert / delete / re-insert / drift sequences, with and without a
source. The saved catalog: a fresh save stores no explicit row for any
live entry, only random-fallback planes, and ``uint32`` signatures; a
reference that cannot be honoured is refused as ``CatalogCorrupt``. The
invariant: a sketch rewritten by a sibling's document churn is checkpointed
together with the index sections that reference it.
"""

from __future__ import annotations

import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann.rpforest import RPForestIndex
from repro.core.session import open_lake
from repro.relational.catalog import Document
from repro.sketch.lsh import LSHIndex
from repro.sketch.lshensemble import LSHEnsemble
from repro.sketch.minhash import MINHASH_PRIME, MinHash, MinHashSignature
from repro.store import CatalogCorrupt, ShardStore, footprint

from tests.core.test_sharding import _config, _copy_lake
from tests.store.test_persistence import _assert_parity

KEYS = [f"k{i}" for i in range(8)]

#: One op of a generated mutation sequence: (kind, key index, value index).
#: "put" inserts (or re-inserts) a key, "delete" removes a live key, and
#: "drift" changes the key's source value without touching the index —
#: the entry must then be persisted explicitly.
ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "delete", "drift"]),
        st.integers(0, len(KEYS) - 1),
        st.integers(0, 5),
    ),
    max_size=24,
)


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


# ----------------------------------------------------------------- forests


def _vectors() -> list[np.ndarray]:
    """A small pool with exact duplicates (they force random fallback
    planes) and a zero vector (stored unnormalised)."""
    rng = np.random.default_rng(5)
    base = rng.standard_normal((4, 6))
    return [base[0], base[1], base[2], base[3], base[0].copy(), np.zeros(6)]


def _forest_run(initial: int, sequence) -> tuple[RPForestIndex, dict]:
    vectors = _vectors()
    forest = RPForestIndex(dim=6, num_trees=3, leaf_size=2, seed=7)
    source: dict[str, np.ndarray] = {}
    entries = [(KEYS[i], vectors[i % len(vectors)]) for i in range(initial)]
    source.update(entries)
    forest.build_bulk(entries)
    for kind, k, v in sequence:
        key, vector = KEYS[k], vectors[v]
        if kind == "put" and key not in forest:
            forest.insert(key, vector)
            source[key] = vector
        elif kind == "delete" and key in forest:
            forest.delete(key)
            source.pop(key)
        elif kind == "drift" and key in source:
            source[key] = vector * 2.0 + 1.0
    return forest, source


def _assert_forest_identical(restored: RPForestIndex, forest: RPForestIndex):
    assert restored._keys == forest._keys
    if forest._rows:
        assert np.array_equal(
            bits(np.stack(restored._rows)), bits(np.stack(forest._rows))
        )
    if forest._matrix is None:
        assert restored._matrix is None
    else:
        assert np.array_equal(bits(restored._matrix), bits(forest._matrix))
    assert np.array_equal(bits(restored._planes), bits(forest._planes))
    assert restored._norms == forest._norms
    probes = forest._rows[:4] + [np.ones(forest.dim)]
    for probe in probes:
        assert restored.query(probe, k=4) == forest.query(probe, k=4)


class TestForestReferences:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, len(KEYS)), ops)
    def test_restore_is_bit_identical(self, initial, sequence):
        forest, source = _forest_run(initial, sequence)
        for src in (None, source.get):
            state = forest.persistent_state(src)
            restored = RPForestIndex.restore_state(state, src)
            _assert_forest_identical(restored, forest)
            # Only live rows whose source reproduces them are references.
            refs = set(range(len(forest._keys))) - set(state["explicit"].tolist())
            for i in refs:
                assert src is not None
                assert i not in forest._deleted_idx
                assert forest._key_pos[forest._keys[i]] == i
            # Stored planes are exactly the random fallback ones.
            assert len(state["planes"]) == int((state["plane_pairs"][:, 0] < 0).sum())

    def test_duplicates_force_stored_fallback_planes(self):
        # Two clusters of exact duplicates: a root that samples two copies
        # of one point falls back to a random plane through the origin,
        # which separates the clusters.
        vector = np.arange(1.0, 7.0)
        entries = [(f"d{i}", vector if i % 2 else -vector) for i in range(8)]
        forest = RPForestIndex(dim=6, num_trees=8, leaf_size=2, seed=0)
        forest.build_bulk(entries)
        source = dict(entries).get
        state = forest.persistent_state(source)
        assert len(state["planes"]) > 0
        assert len(state["explicit"]) == 0
        _assert_forest_identical(RPForestIndex.restore_state(state, source), forest)

    def test_unresolved_and_moved_references_are_refused(self):
        forest, source = _forest_run(6, [])
        state = forest.persistent_state(source.get)
        with pytest.raises(KeyError, match="unresolved row reference"):
            RPForestIndex.restore_state(state, {}.get)
        moved = {key: vector * 3.0 + 0.5 for key, vector in source.items()}
        with pytest.raises(ValueError, match="recorded norms"):
            RPForestIndex.restore_state(state, moved.get)


# --------------------------------------------------------------------- LSH


def _signature_pool() -> list[MinHashSignature]:
    minhash = MinHash(num_hashes=32, seed=1)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
    return [minhash.signature(set(words[i : i + 3])) for i in range(6)]


def _lsh_entries(structure) -> dict[str, MinHashSignature]:
    if isinstance(structure, LSHIndex):
        return dict(structure.items())
    entries = dict(structure._pending)
    for partition in structure._partitions:
        entries.update(partition.items())
    return entries


def _assert_lsh_restored(restored, original, source) -> None:
    before, after = _lsh_entries(original), _lsh_entries(restored)
    assert list(after) == list(before)
    for key, signature in before.items():
        if source is not None and source(key) is signature:
            assert after[key] is signature  # bound, not copied
        else:
            assert after[key] is not signature
            assert after[key] == signature
            assert after[key].set_size == signature.set_size
            assert after[key].values.dtype == np.uint64
    for probe in _signature_pool():
        assert restored.query(probe, k=4) == original.query(probe, k=4)


class TestLSHReferences:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, len(KEYS)), ops, st.booleans())
    def test_ensemble_restore_binds_references(self, initial, sequence, build):
        pool = _signature_pool()
        ensemble = LSHEnsemble(num_partitions=3, num_bands=8)
        source: dict[str, MinHashSignature] = {}
        for i in range(initial):
            source[KEYS[i]] = pool[i % len(pool)]
            ensemble.add(KEYS[i], source[KEYS[i]])
        if build:
            ensemble.build()
        for kind, k, v in sequence:
            key = KEYS[k]
            if kind == "put" and key not in ensemble:
                # A fresh object per put: a re-inserted key never shares
                # its signature with the deleted entry.
                signature = MinHash(num_hashes=32, seed=1).signature({key, str(v)})
                ensemble.insert(key, signature)
                source[key] = signature
            elif kind == "delete" and key in ensemble:
                ensemble.delete(key)
                source.pop(key)
            elif kind == "drift" and key in source:
                source[key] = pickle.loads(pickle.dumps(source[key]))
        for src in (None, source.get):
            restored = LSHEnsemble.restore_state(ensemble.persistent_state(src), src)
            _assert_lsh_restored(restored, ensemble, src)
            assert restored._partition_upper == ensemble._partition_upper
            assert restored._built == ensemble._built

    def test_index_references_and_missing_source(self):
        pool = _signature_pool()
        index = LSHIndex(num_bands=8)
        index.build_bulk([(KEYS[i], pool[i]) for i in range(6)])
        source = {KEYS[i]: pool[i] for i in range(6)}
        state = index.persistent_state(source.get)
        assert len(state["explicit"]) == 0 and state["values"].size == 0
        _assert_lsh_restored(LSHIndex.restore_state(state, source.get), index,
                             source.get)
        with pytest.raises(KeyError, match="unresolved signature reference"):
            LSHIndex.restore_state(state)


# -------------------------------------------------------------- signatures


class TestSignaturePickle:
    def test_real_signatures_pickle_as_uint32(self):
        signature = _signature_pool()[0]
        assert signature.__getstate__()["values"].dtype == np.uint32
        copy = pickle.loads(pickle.dumps(signature))
        assert copy.values.dtype == np.uint64
        assert np.array_equal(copy.values, signature.values)

    def test_empty_signature_round_trips_exactly(self):
        empty = MinHash(num_hashes=16, seed=0).signature(set())
        assert int(empty.values.max()) == MINHASH_PRIME
        copy = pickle.loads(pickle.dumps(empty))
        assert copy.values.dtype == np.uint64
        assert np.array_equal(copy.values, empty.values)
        assert copy.set_size == 0

    def test_values_past_uint32_stay_uint64(self):
        values = np.array([1, 2**32, 2**40 + 7, 2**63], dtype=np.uint64)
        signature = MinHashSignature(values, set_size=4, num_hashes=4, seed=0)
        assert signature.__getstate__()["values"].dtype == np.uint64
        copy = pickle.loads(pickle.dumps(signature))
        assert copy.values.dtype == np.uint64
        assert np.array_equal(copy.values, values)


# ----------------------------------------------------------- saved catalog

SOURCED = ("value_containment", "column_containment", "column_semantic",
           "column_solo", "doc_solo")


class _SignatureSpy(pickle.Unpickler):
    """Unpickles sketches while recording each signature's stored dtype."""

    def __init__(self, blob: bytes, dtypes: list):
        super().__init__(io.BytesIO(blob))
        self.dtypes = dtypes

    def find_class(self, module, name):
        found = super().find_class(module, name)
        if found is not MinHashSignature:
            return found
        dtypes = self.dtypes

        class Recording(MinHashSignature):
            def __setstate__(self, state):
                dtypes.append(state["values"].dtype)
                super().__setstate__(state)

        return Recording


class TestSavedFootprint:
    def test_fresh_save_stores_references_only(self, pharma_generated, tmp_path):
        session = open_lake(_copy_lake(pharma_generated.lake), _config())
        session.save(tmp_path / "catalog")
        session.close()
        db = ShardStore(tmp_path / "catalog" / "shard-0000.sqlite")
        try:
            for name in SOURCED:
                state = db.get_state(f"index:{name}")
                if "partitions" in state:  # an LSH Ensemble
                    slabs = [state["pending"], *state["partitions"]]
                    assert all(len(s["explicit"]) == 0 for s in slabs), name
                else:
                    assert len(state["explicit"]) == 0, name
                    assert len(state["rows"]) == 0, name
                    random = int((state["plane_pairs"][:, 0] < 0).sum())
                    assert len(state["planes"]) == random, name
            dtypes: list = []
            for (blob,) in db.conn.execute("SELECT payload FROM sketches"):
                _SignatureSpy(blob, dtypes).load()
            assert dtypes and all(dtype == np.uint32 for dtype in dtypes)
        finally:
            db.close()

    @pytest.mark.parametrize("shards", [0, 2])
    def test_footprint_accounts_for_every_byte(self, toy_lake, tmp_path, shards):
        kwargs = {"shards": shards} if shards else {}
        session = open_lake(_copy_lake(toy_lake), _config(), **kwargs)
        path = session.save(tmp_path / "catalog")
        session.close()
        sizes = footprint(path)
        on_disk = sum(f.stat().st_size for f in path.glob("*.sqlite"))
        assert sum(sizes.values()) == on_disk
        assert sizes["sqlite_overhead"] > 0
        assert sizes["lake_tables"] > 0 and sizes["sketches"] > 0
        assert sizes["journal"] == 0
        assert "state:index:value_containment" in sizes

    def test_unresolved_reference_is_catalog_corrupt(self, toy_lake, tmp_path):
        session = open_lake(_copy_lake(toy_lake), _config())
        path = session.save(tmp_path / "catalog")
        session.close()
        db = ShardStore(path / "shard-0000.sqlite")
        meta = db.get_state("profile_meta")
        victim = meta["col_order"].pop()
        for columns in meta["table_columns"].values():
            if victim in columns:
                columns.remove(victim)
        db.put_state("profile_meta", meta)
        db.delete_sketch(victim)
        db.commit()
        db.close()
        with pytest.raises(CatalogCorrupt, match=r"shard-0000\.sqlite.*'index:"):
            open_lake(path)

    def test_moved_sketch_vector_is_catalog_corrupt(self, toy_lake, tmp_path):
        session = open_lake(_copy_lake(toy_lake), _config())
        path = session.save(tmp_path / "catalog")
        session.close()
        db = ShardStore(path / "shard-0000.sqlite")
        de_id, kind, sketch = next(
            row for row in db.iter_sketches() if row[1] == "column"
        )
        sketch.content_embedding = sketch.content_embedding * 2.0 + 1.0
        db.put_sketch(de_id, kind, sketch)
        db.commit()
        db.close()
        with pytest.raises(CatalogCorrupt, match="'index:column_semantic'"):
            open_lake(path)


# --------------------------------------------------------------- invariant


def test_sibling_doc_resketch_is_checkpointed_with_its_sections(toy_lake, tmp_path):
    """On a sharded lake a document batch on one shard can shift the
    corpus-wide df filter and re-sketch *another* shard's documents. Those
    sketch rows must be rewritten in the same checkpoint as the document
    index sections that reference them, so reopen == live."""
    session = open_lake(_copy_lake(toy_lake), _config(), shards=2)
    path = session.save(tmp_path / "catalog")
    sibling = session.shard_of("doc:aspirin")
    owner = 1 - sibling
    names = (f"doc:cox{i}" for i in range(1000))
    batch = [
        Document(doc_id=name, title="Cox review",
                 text="Cox inhibitors and cox pathways reviewed.")
        for name in names if session.router.shard_of(name) == owner
    ][:2]
    before = dict(session.shards[sibling].profile.documents)
    session.add_documents(batch)  # five docs: "cox" now crosses the cutoff
    after = session.shards[sibling].profile.documents
    resketched = [d for d in before if after[d] is not before[d]]
    assert resketched, "the batch must re-sketch a sibling shard's document"
    session.save()  # a delta checkpoint, not a full rewrite

    reopened = open_lake(path)
    try:
        _assert_parity(session, reopened, "sibling re-sketch checkpoint")
        for live, back in zip(session.shards, reopened.shards):
            assert {d: s.content_bow.terms for d, s in live.profile.documents.items()} \
                == {d: s.content_bow.terms for d, s in back.profile.documents.items()}
            _assert_forest_identical(back.indexes.doc_solo, live.indexes.doc_solo)
    finally:
        reopened.close()
        session.close()
