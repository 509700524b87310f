"""A rejected lake mutation changes nothing, on every front-end.

Every front-end — a monolithic session, a sharded session, a thread- or
process-backed server — validates a mutation before anything is
journaled, shipped or applied (:func:`repro.core.mutation.plan_mutation`
/ :func:`~repro.core.mutation.check_mutation`). A rejected call leaves the
lake, the generation vector, the pinned df filter and the journal exactly
as they were, and the next valid mutation lands where a reopened catalog
lands too.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.session import open_lake
from repro.core.sharding import ShardedLakeSession, ShardRouter
from repro.core.srql import Q
from repro.relational.catalog import Document
from repro.relational.table import Table
from repro.serve import LakeServer

from tests.serve.conftest import copy_lake, parity_config


def _doc_owned_by(router: ShardRouter, shard: int, stem: str) -> str:
    return next(
        f"{stem}{i}" for i in range(256)
        if router.shard_of(f"{stem}{i}") == shard
    )


def _shard_sessions(session) -> list:
    if isinstance(session, ShardedLakeSession):
        return session.shards
    return [session]


def _session_state(session) -> dict:
    """Everything a rejected mutation must leave alone, in a session."""
    shards = _shard_sessions(session)
    store = session._store
    return {
        "tables": sorted(t for s in shards for t in s.lake.table_names),
        "documents": sorted(d.doc_id for s in shards for d in s.lake.documents),
        "generations": [s.generation for s in shards],
        "filters": [
            (s.profiler.pipeline.common_terms,
             s.profiler.pipeline.num_docs_fit)
            for s in shards
        ],
        "journal": None if store is None else sum(
            len(db.journal_entries()) for db in store.shard_dbs
        ),
    }


def _server_state(server: LakeServer) -> dict:
    """The process front-end's side of the same: its merged planning
    views, generation vector, df filter and maintained corpus."""
    backend = server.backend
    return {
        "tables": sorted(backend.catalog.table_columns),
        "documents": sorted(backend.catalog.documents),
        "generations": server.generations,
        "num_docs_fit": backend._df_pipeline.num_docs_fit,
        "doc_texts": dict(backend._doc_texts),
    }


QUOKKA = [
    Q.content_search("quokka wombat", k=5),
    Q.metadata_search("quokka", k=5),
    Q.content_search("rate change", k=5),
]


@pytest.mark.parametrize("front", ["monolithic", "sharded", "thread", "process"])
def test_failed_document_batch_changes_nothing(pharma_generated, tmp_path, front):
    """A batch of [a new document owned by shard 0, an id shard 1 already
    holds] used to half-apply: the new document landed (unsketched, on a
    monolithic lake) while the journal record was dropped, so the live
    lake answered differently from its reopened catalog."""
    kwargs = {} if front == "monolithic" else {"shards": 2}
    session = open_lake(copy_lake(pharma_generated.lake), parity_config(), **kwargs)
    path = session.save(tmp_path / "lake")
    router = ShardRouter(2)
    existing = min(
        d.doc_id for s in _shard_sessions(session) for d in s.lake.documents
        if router.shard_of(d.doc_id) == 1
    )
    bad_batch = [
        Document(doc_id=_doc_owned_by(router, 0, "doc:quokka"), title="Quokka",
                 text="The quokka and the wombat share a burrow."),
        Document(doc_id=existing, title="Replacement",
                 text="A replacement text about a quokka wombat colony."),
    ]
    good = Document(doc_id=_doc_owned_by(router, 1, "doc:wombat"),
                    title="Wombat", text="A wombat digs beside a quokka.")

    if front == "thread":
        target = LakeServer(session)
    elif front == "process":
        # No result cache: the reads after the kill must reach the workers.
        target = session.serve(backend="process", cache=False)
    else:
        target = session

    def state() -> dict:
        if front == "process":
            return _server_state(target)
        return _session_state(session)

    try:
        before = state()
        with pytest.raises(ValueError, match="duplicate document id"):
            target.add_documents(bad_batch)
        assert state() == before
        target.add_documents([good])
        live = [target.discover(q).items for q in QUOKKA]
        if front == "process":
            for worker in target.backend.workers:  # kill -> respawn
                worker.proc.kill()
                worker.proc.wait()
            assert [target.discover(q).items for q in QUOKKA] == live
            assert target.backend.total_respawns == 2
            return
    finally:
        if target is not session:
            target.close()
    session.save()
    session.close()
    with open_lake(path) as reopened:
        assert [reopened.discover(q).items for q in QUOKKA] == live


# ------------------------------------------------ generated mutation sequences

_TABLE_NAMES = ["drugs", "cities", "fresh_a", "fresh_b", "nope"]
_REMOVE_NAMES = ["drugs", "targets", "doc:city", "doc:new0", "fresh_a", "nope"]
_DOC_IDS = ["doc:aspirin", "doc:new0", "doc:new1", "doc:new2"]

_ops = st.one_of(
    st.tuples(st.just("add_table"), st.sampled_from(_TABLE_NAMES)),
    st.tuples(st.just("update_table"), st.sampled_from(_TABLE_NAMES)),
    st.tuples(
        st.just("add_documents"),
        st.lists(st.sampled_from(_DOC_IDS), min_size=1, max_size=3),
    ),
    st.tuples(st.just("remove"), st.sampled_from(_REMOVE_NAMES)),
)


def _run(session, op: str, arg) -> None:
    if op in ("add_table", "update_table"):
        getattr(session, op)(Table.from_dict(arg, {
            f"{arg}_id": ["K1", "K2", "K3"],
            "city": ["london", "paris", "quito"],
        }))
    elif op == "add_documents":
        session.add_documents([
            Document(doc_id=doc_id, title=f"Note {doc_id}",
                     text=f"Cox inflammation note {i} about london growth.")
            for i, doc_id in enumerate(arg)
        ])
    else:
        session.remove(arg)


def _primitives(session) -> list:
    tables = sorted(
        t for s in _shard_sessions(session) for t in s.lake.table_names
    )[:2]
    queries = [
        Q.content_search("cox inflammation", k=5),
        Q.metadata_search("note", k=5),
        Q.cross_modal("cox synthase", top_n=3, representation="solo"),
    ]
    for table in tables:
        queries += [
            Q.joinable(table, top_n=3),
            Q.unionable(table, top_n=3),
            Q.pkfk(table, top_n=3),
        ]
    return queries


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=st.lists(_ops, min_size=1, max_size=6))
def test_failed_mutations_change_nothing(toy_lake, ops):
    """Generated add/update/remove/document-batch sequences mixing valid
    names, unknown names and in-batch duplicates, on a bound monolithic
    and a bound 2-shard session: every op either succeeds or
    leaves lake ids, generations, pinned filters and the journal as they
    were, and the final lake answers the six primitives exactly as its
    saved-and-reopened catalog does."""
    layouts = {"mono": {}, "sharded": {"shards": 2}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, kwargs in layouts.items():
            path = Path(tmp) / name
            session = open_lake(copy_lake(toy_lake), parity_config(), **kwargs)
            session.save(path)
            for op, arg in ops:
                before = _session_state(session)
                try:
                    _run(session, op, arg)
                except (KeyError, ValueError):
                    assert _session_state(session) == before, (op, arg)
            queries = _primitives(session)
            live = [session.discover(q).items for q in queries]
            session.save()
            session.close()
            with open_lake(path) as reopened:
                assert [reopened.discover(q).items for q in queries] == live
