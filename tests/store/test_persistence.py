"""Save / reopen behaviour of the persistent catalog subsystem.

The acceptance bar mirrors the sharding parity suite: a session reopened
from disk must return *identical* top-k results to the live session it
was saved from — for all six SRQL primitives, monolithic and sharded,
before and after journal-replayed mutations. The fast tests run the full
behaviour matrix on the handcrafted toy lake; the ``slow``-marked class
sweeps the three generated seed lakes at 1/2/4 shards.
"""

from __future__ import annotations

import re
from contextlib import closing

import pytest

from repro.core.session import LakeSession, open_lake
from repro.core.sharding import ShardedLakeSession
from repro.core.system import CMDL
from repro.serve import LakeServer
from repro.store import CatalogCorrupt, ShardStore

from tests.core.test_sharding import (
    _config,
    _copy_lake,
    _mutate,
    _workload,
)


def _assert_parity(live, reopened, context: str) -> None:
    for query in _workload(live.profile):
        expected = live.discover(query)
        got = reopened.discover(query)
        assert got.items == expected.items, (
            f"{context}: reopened session diverged on {query!r}\n"
            f"  live={expected.items}\n  reopened={got.items}"
        )


def _open(lake, shards: int):
    if shards == 0:
        return open_lake(_copy_lake(lake), _config())
    return open_lake(_copy_lake(lake), _config(), shards=shards)


class TestSaveAndReopen:
    @pytest.mark.parametrize("shards", [0, 3])
    def test_reopen_parity(self, toy_lake, tmp_path, shards):
        live = _open(toy_lake, shards)
        path = live.save(tmp_path / "catalog")
        live.close()
        assert (path / "catalog.sqlite").exists()
        reopened = open_lake(path)
        twin = _open(toy_lake, shards)
        assert type(reopened) is type(twin)
        _assert_parity(twin, reopened, f"shards={shards} (cold reopen)")
        reopened.close()

    def test_cmdl_load_equals_open_lake(self, toy_lake, tmp_path):
        live = _open(toy_lake, 0)
        live.save(tmp_path / "catalog")
        live.close()
        a = CMDL.load(tmp_path / "catalog")
        b = open_lake(str(tmp_path / "catalog"))
        _assert_parity(a, b, "CMDL.load vs open_lake")
        a.close()
        b.close()

    def test_save_rebinds_only_to_same_path(self, toy_lake, tmp_path):
        live = _open(toy_lake, 0)
        with pytest.raises(ValueError, match="no bound catalog"):
            live.save()
        live.save(tmp_path / "catalog")
        # A no-argument save on a bound session checkpoints in place.
        assert live.save() == live.save(tmp_path / "catalog")
        live.close()

    def test_open_lake_path_rejects_fit_options(self, tmp_path):
        with pytest.raises(ValueError):
            open_lake(str(tmp_path / "nowhere"), _config())
        with pytest.raises(ValueError):
            open_lake(str(tmp_path / "nowhere"), shards=2)

    @pytest.mark.parametrize("option", [
        {"gold_pairs": [("doc:aspirin", "drugs.name", 1)]},
        {"auto_refresh_threshold": 0.01},
        {"global_stats": False},
    ], ids=lambda option: next(iter(option)))
    def test_open_lake_path_rejects_every_option(self, toy_lake, tmp_path,
                                                 option):
        """Every fit-time option is persisted with the catalog: passing one
        with a path is an error, never silently dropped."""
        live = _open(toy_lake, 2)
        path = live.save(tmp_path / "catalog")
        live.close()
        with pytest.raises(ValueError, match=next(iter(option))):
            open_lake(path, **option)

    def test_shard_local_statistics_catalog_is_refused(self, toy_lake,
                                                       tmp_path):
        """A sharded catalog saved with shard-local statistics holds
        document bags built under per-shard df filters: every reader —
        the in-process reopen and both server backends — refuses it with
        CatalogCorrupt naming its manifest file."""
        live = _open(toy_lake, 2)
        path = live.save(tmp_path / "catalog")
        live.close()
        with closing(ShardStore(path / "catalog.sqlite")) as db:
            top = db.get_state("top")
            top.update(global_stats=False, df_pipeline=None)
            db.put_state("top", top)
            db.commit()
        named = re.escape(str(path / "catalog.sqlite"))
        with pytest.raises(CatalogCorrupt, match=named):
            open_lake(path)
        with pytest.raises(CatalogCorrupt, match=named):
            LakeServer(path)
        with pytest.raises(CatalogCorrupt, match=named):
            LakeServer(path, backend="process")

    def test_context_manager_closes_store(self, toy_lake, tmp_path):
        with _open(toy_lake, 0) as live:
            live.save(tmp_path / "catalog")
            assert live._store is not None
        assert live._store is None


class TestJournalReplay:
    @pytest.mark.parametrize("shards", [0, 3])
    def test_mutations_replay_on_reopen(self, toy_lake, tmp_path, shards):
        """Mutate after save, close *without* checkpointing: the reopened
        session must replay the journal and land on the exact state."""
        live = _open(toy_lake, shards)
        live.save(tmp_path / "catalog")
        live._store.checkpoint_every = 0  # keep every op in the journal
        _mutate(live)
        generation = live.generation
        pending = live._store.pending_journal()
        assert pending > 0
        live._store.close()  # simulate a crash: no checkpoint
        live._store = None

        reopened = open_lake(tmp_path / "catalog")
        assert reopened.generation == generation
        if shards:
            assert reopened.generations == live.generations
        twin = _open(toy_lake, shards)
        _mutate(twin)
        _assert_parity(twin, reopened, f"shards={shards} (journal replay)")
        # Replayed entries stay pending until the next checkpoint persists
        # them; a second reopen must not double-apply.
        assert reopened._store.pending_journal() == pending
        reopened.save()
        assert reopened._store.pending_journal() == 0
        reopened.close()

        again = open_lake(tmp_path / "catalog")
        assert again.generation == generation
        _assert_parity(twin, again, f"shards={shards} (post-checkpoint)")
        again.close()

    def test_failed_mutation_leaves_no_journal_record(self, toy_lake, tmp_path):
        live = _open(toy_lake, 0)
        live.save(tmp_path / "catalog")
        live._store.checkpoint_every = 0
        with pytest.raises(KeyError):
            live.remove("no_such_table")
        assert live._store.pending_journal() == 0
        live.close()
        reopened = open_lake(tmp_path / "catalog")
        twin = _open(toy_lake, 0)
        _assert_parity(twin, reopened, "failed-op replay")
        reopened.close()

    def test_auto_checkpoint_drains_journal(self, toy_lake, tmp_path):
        from repro.relational.table import Table

        live = _open(toy_lake, 0)
        live.save(tmp_path / "catalog")
        live._store.checkpoint_every = 2
        live.add_table(Table.from_dict("auto_a", {"x": ["1", "2"]}))
        assert live._store.pending_journal() == 1
        live.add_table(Table.from_dict("auto_b", {"y": ["3", "4"]}))
        assert live._store.pending_journal() == 0  # threshold hit
        live.close()
        reopened = open_lake(tmp_path / "catalog")
        assert "auto_a" in reopened.lake.table_names
        assert "auto_b" in reopened.lake.table_names
        reopened.close()


class TestIncrementalCheckpoint:
    @pytest.mark.parametrize("shards", [0, 3])
    def test_delta_checkpoint_parity(self, toy_lake, tmp_path, shards):
        """save → mutate → save again: the second save is a dirty-tracked
        delta rewrite, and a fresh reopen must still match exactly."""
        live = _open(toy_lake, shards)
        live.save(tmp_path / "catalog")
        _mutate(live)
        live.save()
        live.close()
        reopened = open_lake(tmp_path / "catalog")
        twin = _open(toy_lake, shards)
        _mutate(twin)
        _assert_parity(twin, reopened, f"shards={shards} (delta checkpoint)")
        reopened.close()

    def test_refresh_forces_full_rewrite(self, toy_lake, tmp_path):
        live = _open(toy_lake, 0)
        live.save(tmp_path / "catalog")
        live.refresh()
        live.save()
        live.close()
        reopened = open_lake(tmp_path / "catalog")
        twin = _open(toy_lake, 0)
        twin.refresh()
        assert reopened.generation == twin.generation == 1
        _assert_parity(twin, reopened, "post-refresh reopen")
        reopened.close()


class TestDriftSurvivesReopen:
    @pytest.mark.parametrize("shards", [0, 3])
    def test_drift_and_threshold_survive(self, toy_lake, tmp_path, shards):
        from repro.relational.table import Table

        lake = _copy_lake(toy_lake)
        if shards:
            live = open_lake(lake, _config(), shards=shards,
                             auto_refresh_threshold=0.9)
        else:
            live = open_lake(lake, _config(), auto_refresh_threshold=0.9)
        # Mostly fit-time vocabulary plus a few novel terms: drift lands
        # strictly between 0 and the threshold, so no auto refresh fires.
        live.add_table(Table.from_dict("drugs_extra", {
            "drug_id": ["D1", "D2", "D3", "D4"],
            "name": ["aspirin", "ibuprofen", "codeine", "morphine"],
            "year": ["1999", "2001", "2005", "2010"],
            "note": ["zyxglorp", "flumwort", "aspirin", "codeine"],
        }))
        drift = live.drift()
        assert 0.0 < drift < 0.9
        live.save(tmp_path / "catalog")
        live.close()
        reopened = open_lake(tmp_path / "catalog")
        assert reopened.auto_refresh_threshold == 0.9
        assert reopened.drift() == pytest.approx(drift)
        reopened.close()


@pytest.mark.slow
class TestReopenParitySlow:
    """The full acceptance sweep: three seed lakes, monolithic plus 2 and
    4 shards, cold reopen and journal-replayed mutations."""

    def _case(self, lake, shards, tmp_path):
        live = _open(lake, shards)
        live.save(tmp_path / "catalog")
        live.close()
        reopened = open_lake(tmp_path / "catalog")
        twin = _open(lake, shards)
        _assert_parity(twin, reopened, f"{lake.name} shards={shards} (cold)")
        _mutate(reopened)
        _mutate(twin)
        reopened.close()  # journal persisted, checkpoint not required
        replayed = open_lake(tmp_path / "catalog")
        _assert_parity(twin, replayed,
                       f"{lake.name} shards={shards} (mutated+replayed)")
        replayed.close()

    @pytest.mark.parametrize("shards", [0, 2, 4])
    def test_pharma(self, pharma_generated, shards, tmp_path):
        self._case(pharma_generated.lake, shards, tmp_path)

    @pytest.mark.parametrize("shards", [0, 2, 4])
    def test_ukopen(self, ukopen_generated, shards, tmp_path):
        self._case(ukopen_generated.lake, shards, tmp_path)

    @pytest.mark.parametrize("shards", [0, 2, 4])
    def test_mlopen(self, mlopen_generated, shards, tmp_path):
        self._case(mlopen_generated.lake, shards, tmp_path)
