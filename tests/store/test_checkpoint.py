"""What a checkpoint writes: the diff between a session and its file.

A checkpoint knows no mutation op. It writes the rows and sketches whose
live object is not the one the file was written from, deletes the keys
that are gone, rewrites a side's index sections only when one of that
side's sketches changed, and always writes the small sections. These
tests spy on the :class:`ShardStore` writers to pin that delta, and check
that the one order-sensitive case — an entry removed and re-added as the
same object — still reopens in live order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import open_lake
from repro.core.srql import Q
from repro.core.system import CMDLConfig
from repro.lakes.pharma import PharmaLakeConfig, generate_pharma_lake
from repro.relational.catalog import Document
from repro.relational.table import Table
from repro.store import ShardStore
from repro.store.catalog import COL_INDEX_SECTIONS, DOC_INDEX_SECTIONS

from tests.core.test_sharding import _config, _copy_lake
from tests.store.test_persistence import _assert_parity

#: Written by every checkpoint, whatever changed.
SMALL_SECTIONS = {"profile_meta", "engine", "session", "index:meta", "pipeline"}
DOC_SECTIONS = {f"index:{name}" for name in DOC_INDEX_SECTIONS}
COL_SECTIONS = {f"index:{name}" for name in COL_INDEX_SECTIONS}


@pytest.fixture
def writes(monkeypatch):
    """Every row, sketch and state write, as ``(kind, file name, key)``."""
    log: list[tuple[str, str, str]] = []

    def spy(kind, method):
        def wrapper(self, key_or_table, *args):
            key = args[0] if kind == "row" else key_or_table
            log.append((kind, self.path.name, key))
            return method(self, key_or_table, *args)
        return wrapper

    for kind, name in (("row", "put_row"), ("sketch", "put_sketch"),
                       ("state", "put_state")):
        monkeypatch.setattr(ShardStore, name,
                            spy(kind, getattr(ShardStore, name)))
    return log


def _of(log, kind: str, file: str | None = None) -> list[str]:
    return [key for k, f, key in log if k == kind and file in (None, f)]


def _open(lake, shards: int):
    if shards:
        return open_lake(_copy_lake(lake), _config(), shards=shards)
    return open_lake(_copy_lake(lake), _config())


def test_unchanged_session_writes_only_the_small_sections(toy_lake, tmp_path,
                                                          writes):
    session = _open(toy_lake, 0)
    session.save(tmp_path / "catalog")
    writes.clear()
    session.save()
    assert set(_of(writes, "state")) == SMALL_SECTIONS
    assert _of(writes, "row") == [] and _of(writes, "sketch") == []
    session.close()


def test_update_table_writes_its_row_sketches_and_column_sections(
        toy_lake, tmp_path, writes):
    session = _open(toy_lake, 0)
    session.save(tmp_path / "catalog")
    session._store.checkpoint_every = 0
    drugs = session.lake.table("drugs")
    session.update_table(drugs.select_rows([0, 1], "drugs"))
    writes.clear()
    session.save()
    assert _of(writes, "row") == ["drugs"]
    assert sorted(_of(writes, "sketch")) == sorted(
        session.profile.columns_of_table("drugs")
    )
    assert set(_of(writes, "state")) == SMALL_SECTIONS | COL_SECTIONS
    session.close()


def test_document_add_writes_doc_sections_only_where_sketches_changed(
        toy_lake, tmp_path, writes):
    session = _open(toy_lake, 2)
    session.save(tmp_path / "catalog")
    before = [dict(shard.profile.documents) for shard in session.shards]
    session.add_document(Document(
        doc_id="doc:quiet", title="Quiet note",
        text="Zyxglorp flumwort quibbles."))
    changed = {
        f"shard-{i:04d}.sqlite"
        for i, shard in enumerate(session.shards)
        if shard.profile.documents.keys() != before[i].keys()
        or any(shard.profile.documents[d] is not s for d, s in before[i].items())
    }
    assert len(changed) == 1, "the add must leave one shard's documents alone"
    writes.clear()
    session.save()
    doc_files = {f for k, f, key in writes if k == "state" and key in DOC_SECTIONS}
    assert doc_files == changed
    assert not any(key in COL_SECTIONS for key in _of(writes, "state"))
    assert _of(writes, "row") == ["doc:quiet"]
    session.close()


@pytest.mark.parametrize("shards", [0, 2])
def test_removed_entries_are_deleted_from_the_file(toy_lake, tmp_path, shards):
    session = _open(toy_lake, shards)
    path = session.save(tmp_path / "catalog")
    session.remove("drugs")
    session.remove("doc:aspirin")
    session.save()
    reopened = open_lake(path)
    try:
        for live, back in zip(getattr(session, "shards", [session]),
                              getattr(reopened, "shards", [reopened])):
            assert back.lake.table_names == live.lake.table_names
            assert [d.doc_id for d in back.lake.documents] \
                == [d.doc_id for d in live.lake.documents]
            assert back.profile.columns.keys() == live.profile.columns.keys()
        _assert_parity(session, reopened, f"shards={shards} removals")
    finally:
        reopened.close()
        session.close()


@pytest.mark.parametrize("shards", [0, 2])
def test_same_table_object_removed_and_readded_keeps_live_order(
        toy_lake, tmp_path, shards):
    session = _open(toy_lake, shards)
    path = session.save(tmp_path / "catalog")
    drugs = (session.shards[session.shard_of("drugs")].lake
             if shards else session.lake).table("drugs")
    session.remove("drugs")
    session.add_table(drugs)  # same object: its identity is unchanged
    session.save()
    reopened = open_lake(path)
    try:
        if shards:
            assert reopened.table_names == session.table_names
        assert [s.lake.table_names for s in getattr(reopened, "shards", [reopened])] \
            == [s.lake.table_names for s in getattr(session, "shards", [session])]
        _assert_parity(session, reopened, f"shards={shards} re-added table")
    finally:
        reopened.close()
        session.close()


# ------------------------------------------------ default configuration


def _smoke_lake():
    return generate_pharma_lake(PharmaLakeConfig(
        num_drugs=30, num_enzymes=15, num_documents=30, noise_documents=5,
        interactions_rows=40, targets_rows=30, chembl_compounds=30,
        chebi_compounds=18, union_derived_per_base=1, seed=0,
    )).lake


def _smoke_workload(profile) -> list:
    queries = [Q.content_search("compound trial rate", k=5),
               Q.metadata_search("report", k=5),
               Q.cross_modal("compound formulation trial", top_n=3)]
    for table in sorted(profile.table_columns)[:8]:
        queries += [Q.joinable(table, top_n=3), Q.pkfk(table, top_n=3)]
    return queries


@pytest.mark.parametrize("shards", [0, 2])
def test_default_config_reopens_and_replays(tmp_path, shards):
    """The default ``CMDLConfig()`` — corpus-trained embedder and joint
    model — reopens with identical answers, and an ``add_table`` left in
    the journal replays on the next reopen."""
    lake = _smoke_lake()
    kwargs = {"shards": shards} if shards else {}
    live = open_lake(_copy_lake(lake), CMDLConfig(), **kwargs)
    path = live.save(tmp_path / "catalog")
    live.close()  # unbind: one store owns a catalog at a time
    reopened = open_lake(path)
    for query in _smoke_workload(live.profile):
        assert reopened.discover(query).items == live.discover(query).items, query
    extra = {"id": ["S1", "S2"], "label": ["alpha", "beta"]}
    reopened.add_table(Table.from_dict("smoke_extra", extra))
    live.add_table(Table.from_dict("smoke_extra", extra))
    reopened.close()  # no checkpoint: the journal carries the add
    replayed = open_lake(path)
    try:
        assert replayed._store.pending_journal() == 1
        query = Q.content_search("alpha label", k=5)
        assert replayed.discover(query).items == live.discover(query).items
    finally:
        replayed.close()


def test_refresh_rewrites_the_retrained_embedder(tmp_path):
    """A refresh replaces the shard's ``IndexCatalog`` and retrains the
    corpus-trained embedder: the next checkpoint writes every state
    section, so the reopened session sketches new entries as the live one
    does."""
    live = open_lake(_smoke_lake(), CMDLConfig(use_joint=False))
    path = live.save(tmp_path / "catalog")
    live.add_document(Document(
        doc_id="doc:refresh", title="Kinase assay dosing",
        text="Kinase assay dosing trial compounds formulation rate review."))
    embedder = live.profiler.embedder
    live.refresh()
    assert live.profiler.embedder is not embedder
    live.save()
    live.close()  # unbind: the reopened session owns the catalog now
    reopened = open_lake(path)
    try:
        _assert_parity(live, reopened, "checkpoint after refresh")
        probe = Document(doc_id="doc:probe", title="Probe report",
                         text="Kinase formulation review of dosing rates.")
        live.add_document(probe)
        reopened.add_document(probe)
        assert np.array_equal(reopened.profile.documents["doc:probe"].encoding,
                              live.profile.documents["doc:probe"].encoding)
    finally:
        reopened.close()
