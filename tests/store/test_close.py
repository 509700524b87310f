"""Close semantics of the store stack: idempotent teardown at every
layer, durability of the journal tail across a close, and the public
single-shard restore entry point the serving workers boot through."""

from __future__ import annotations

import pytest

from repro.core.session import open_lake
from repro.relational.table import Table
from repro.store import ShardStore, restore_shard_session
from repro.store.catalog import LakeStore

from tests.core.test_sharding import _config, _copy_lake, _workload


class TestIdempotentClose:
    def test_shard_store_double_close(self, tmp_path):
        db = ShardStore(tmp_path / "one.sqlite", create=True)
        db.put_meta("k", "v")
        db.commit()
        db.close()
        db.close()  # second close is a no-op, not a crash

    def test_lake_store_double_close(self, toy_lake, tmp_path):
        session = open_lake(_copy_lake(toy_lake), _config())
        session.save(tmp_path / "catalog")
        store = session._store
        assert isinstance(store, LakeStore)
        store.close()
        store.close()
        session._store = None
        session.close()

    def test_session_double_close_monolithic(self, toy_lake, tmp_path):
        session = open_lake(_copy_lake(toy_lake), _config())
        session.save(tmp_path / "catalog")
        session.close()
        session.close()

    def test_session_double_close_sharded(self, toy_lake, tmp_path):
        session = open_lake(_copy_lake(toy_lake), _config(), shards=2)
        session.save(tmp_path / "catalog")
        session.close()
        session.close()

    def test_close_without_store_is_safe(self, toy_lake):
        session = open_lake(_copy_lake(toy_lake), _config())
        session.close()
        session.close()


class TestCloseDurability:
    def test_journal_tail_survives_close(self, toy_lake, tmp_path):
        """close() releases handles but does not drop the write-ahead
        journal: an un-checkpointed mutation replays on reopen."""
        session = open_lake(_copy_lake(toy_lake), _config(), shards=2)
        session.save(tmp_path / "catalog")
        session.add_table(Table.from_dict("close_probe", {
            "probe_id": ["C1", "C2"], "value": [1, 2],
        }))
        expected = {
            q: session.discover(q).items for q in _workload(session.catalog)
        }
        session.close()

        reopened = open_lake(tmp_path / "catalog")
        try:
            assert "close_probe" in reopened.table_names
            for query, items in expected.items():
                assert reopened.discover(query).items == items
        finally:
            reopened.close()


class TestRebindClosesPreviousCatalog:
    @pytest.mark.parametrize("shards", [0, 2])
    def test_save_elsewhere_closes_old_store(self, toy_lake, tmp_path, shards):
        """save(p1); mutate; save(p2): p1's handles are released at the
        rebind (not at some later GC cycle), and p1 still reopens to the
        state the session had when it moved on — its journal tail
        included."""
        kwargs = {"shards": shards} if shards else {}
        session = open_lake(_copy_lake(toy_lake), _config(), **kwargs)
        session.save(tmp_path / "p1")
        old = session._store
        session.add_table(Table.from_dict("rebind_probe", {
            "probe_id": ["R1", "R2"], "value": [1, 2],
        }))
        expected = {
            q: session.discover(q).items for q in _workload(session.profile)
        }
        session.save(tmp_path / "p2")
        try:
            assert session._store is not old
            assert session._store.path == tmp_path / "p2"
            assert old.catalog_db._closed
            assert all(db._closed for db in old.shard_dbs)
        finally:
            session.close()
        for path in (tmp_path / "p1", tmp_path / "p2"):
            reopened = open_lake(path)
            try:
                assert "rebind_probe" in reopened.profile.table_columns
                for query, items in expected.items():
                    assert reopened.discover(query).items == items
            finally:
                reopened.close()


class TestRestoreShardSession:
    def test_restores_one_shard_without_refit(self, toy_lake, tmp_path):
        """The worker boot path: restore a single shard file into a live
        LakeSession that answers queries identically to the saved one."""
        live = open_lake(_copy_lake(toy_lake), _config())
        live.save(tmp_path / "catalog")
        db = ShardStore(tmp_path / "catalog" / "shard-0000.sqlite")
        try:
            restored = restore_shard_session(db)
            for query in _workload(live.profile):
                assert restored.discover(query).items == \
                    live.discover(query).items
        finally:
            db.close()
            live.close()
