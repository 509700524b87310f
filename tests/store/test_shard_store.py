"""Unit tests for the on-disk layer: typed-blob codec and ShardStore.

These test the storage primitives in isolation — array split/join, typed
blob round-trips, row ordering semantics, state sections, journal
persistence, and the schema-version gate — independent of any session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.store import SCHEMA_VERSION, ShardStore
from repro.store.codec import (
    ArrayRef,
    decode_array,
    encode_array,
    join_arrays,
    split_arrays,
)


class TestCodec:
    def test_split_join_nested_containers(self):
        state = {
            "slab": np.arange(12, dtype=np.float64).reshape(3, 4),
            "nested": {"rows": [np.array([1, 2], dtype=np.int64), "text"]},
            "pair": (np.array([0.5], dtype=np.float32), 7),
            "plain": {"a": 1, "b": None},
        }
        arrays: list[np.ndarray] = []
        residual = split_arrays(state, arrays)
        assert len(arrays) == 3
        assert isinstance(residual["slab"], ArrayRef)
        assert isinstance(residual["nested"]["rows"][0], ArrayRef)
        assert isinstance(residual["pair"][0], ArrayRef)
        joined = join_arrays(residual, arrays)
        assert np.array_equal(joined["slab"], state["slab"])
        assert np.array_equal(joined["nested"]["rows"][0],
                              state["nested"]["rows"][0])
        assert joined["nested"]["rows"][1] == "text"
        assert np.array_equal(joined["pair"][0], state["pair"][0])
        assert joined["pair"][1] == 7
        assert joined["plain"] == state["plain"]

    def test_encode_decode_preserves_dtype_and_shape(self):
        for array in (
            np.arange(6, dtype=np.uint64).reshape(2, 3),
            np.array([], dtype=np.float32),
            np.array([[True, False]], dtype=bool),
        ):
            restored = decode_array(*encode_array(array))
            assert restored.dtype == array.dtype
            assert restored.shape == array.shape
            assert np.array_equal(restored, array)

    def test_decoded_arrays_are_writable(self):
        # Restored slabs may be mutated in place (e.g. incremental
        # embedder updates after a reopen) — frombuffer over the raw
        # blob would be read-only.
        restored = decode_array(*encode_array(np.zeros(4)))
        restored[0] = 1.0
        assert restored[0] == 1.0

    def test_non_contiguous_arrays_survive(self):
        base = np.arange(16, dtype=np.float64).reshape(4, 4)
        view = base[:, ::2]  # strided, non-contiguous
        assert not view.flags["C_CONTIGUOUS"]
        assert np.array_equal(decode_array(*encode_array(view)), view)


class TestShardStore:
    def test_create_then_reopen(self, tmp_path):
        path = tmp_path / "shard-0000.sqlite"
        store = ShardStore(path, create=True)
        store.put_meta("generation", "3")
        store.commit()
        store.close()
        reopened = ShardStore(path)
        assert reopened.get_meta("generation") == "3"
        assert reopened.get_meta("schema_version") == str(SCHEMA_VERSION)
        assert reopened.get_meta("missing", "fallback") == "fallback"
        reopened.close()

    def test_open_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardStore(tmp_path / "absent.sqlite")

    def test_schema_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "shard-0000.sqlite"
        store = ShardStore(path, create=True)
        store.put_meta("schema_version", str(SCHEMA_VERSION + 1))
        store.commit()
        store.close()
        with pytest.raises(ValueError, match="schema"):
            ShardStore(path)

    def test_rows_preserve_write_order(self, tmp_path):
        # Sessions rebuild their dict-backed catalogs from rowid order, so
        # a rewrite (DELETE + INSERT) must move the key to the end exactly
        # like a dict overwrite after a delete would.
        store = ShardStore(tmp_path / "s.sqlite", create=True)
        for name in ("alpha", "beta", "gamma"):
            store.put_row("lake_tables", name, {"name": name})
        store.put_row("lake_tables", "alpha", {"name": "alpha", "v": 2})
        store.delete_row("lake_tables", "beta")
        store.commit()
        keys = [key for key, _ in store.iter_rows("lake_tables")]
        assert keys == ["gamma", "alpha"]
        store.close()

    def test_sketch_rows(self, tmp_path):
        store = ShardStore(tmp_path / "s.sqlite", create=True)
        store.put_sketch("doc::a", "document", {"sig": 1})
        store.put_sketch("tbl::c1", "column", {"sig": 2})
        store.put_sketch("tbl::c2", "column", {"sig": 3})
        store.delete_sketch("tbl::c1")
        assert sorted(de_id for de_id, _, _ in store.iter_sketches()) == [
            "doc::a", "tbl::c2"
        ]
        store.clear("sketches")
        assert list(store.iter_sketches()) == []
        store.close()

    def test_state_sections_round_trip_arrays(self, tmp_path):
        store = ShardStore(tmp_path / "s.sqlite", create=True)
        section = {
            "matrix": np.arange(8, dtype=np.float32).reshape(2, 4),
            "names": ["a", "b"],
            "scalars": {"k": 3},
        }
        store.put_state("embedder", section)
        store.commit()
        restored = store.get_state("embedder")
        assert np.array_equal(restored["matrix"], section["matrix"])
        assert restored["names"] == section["names"]
        assert restored["scalars"] == section["scalars"]
        # Overwrite replaces the old slab rows rather than appending.
        store.put_state("embedder", {"matrix": np.zeros(2)})
        store.commit()
        assert store.get_state("embedder")["matrix"].shape == (2,)

    def test_missing_state_section_raises(self, tmp_path):
        store = ShardStore(tmp_path / "s.sqlite", create=True)
        with pytest.raises(KeyError):
            store.get_state("nope")

    def test_journal_round_trip(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = ShardStore(path, create=True)
        store.append_journal(1, "add_table", {"table": "t1"})
        store.append_journal(2, "remove", {"name": "t0"})
        store.append_journal(3, "refresh", {"with_gold": False})
        store.delete_journal(2)
        store.commit()
        store.close()
        reopened = ShardStore(path)
        entries = reopened.journal_entries()
        assert [(seq, op) for seq, op, _ in entries] == [
            (1, "add_table"), (3, "refresh")
        ]
        assert entries[0][2] == {"table": "t1"}
        reopened.clear_journal()
        assert reopened.journal_entries() == []
        reopened.close()
