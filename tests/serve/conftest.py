"""Shared helpers for the serving-layer tests.

The parity bar mirrors tests/core/test_sharding.py: the documented parity
configuration (no joint model, corpus-independent hashing embedder)
under which serving front-ends must return
byte-identical top-k to the in-process session they serve.
"""

from __future__ import annotations

import pytest

from repro.core.sharding import ShardedLakeSession
from repro.core.srql import Q
from repro.core.system import CMDLConfig
from repro.embed.hashing_embedder import HashingEmbedder
from repro.relational.catalog import DataLake, Document
from repro.relational.table import Table


def parity_config() -> CMDLConfig:
    return CMDLConfig(use_joint=False, embedder=HashingEmbedder(seed=0))


def copy_lake(lake: DataLake) -> DataLake:
    fresh = DataLake(name=lake.name)
    for table in lake.tables:
        fresh.add_table(table)
    for document in lake.documents:
        fresh.add_document(document)
    return fresh


def workload(session, tables_n: int = 4, docs_n: int = 2) -> list:
    """All six primitives over a deterministic slice of the lake."""
    if isinstance(session, ShardedLakeSession):
        tables = sorted(session.table_names)[:tables_n]
        docs = sorted(session.document_ids)[:docs_n]
    else:
        tables = sorted(session.lake.table_names)[:tables_n]
        docs = sorted(d.doc_id for d in session.lake.documents)[:docs_n]
    queries = [
        Q.content_search("rate change", k=5),
        Q.content_search("name", mode="table", k=5),
        Q.metadata_search("report", k=5),
        Q.cross_modal("compound formulation trial", top_n=3,
                      representation="solo"),
    ]
    queries += [
        Q.cross_modal(doc, top_n=3, representation="solo") for doc in docs
    ]
    for table in tables:
        queries += [
            Q.joinable(table, top_n=3),
            Q.unionable(table, top_n=3),
            Q.pkfk(table, top_n=3),
        ]
    return queries


def mutation_script(target, victim_doc: str, victim_table: str,
                    shrink_table: Table) -> None:
    """The interleaved add/remove/update script, identical on any target
    exposing the mutation surface (sessions and servers alike)."""
    target.add_table(Table.from_dict("parity_extra", {
        "extra_id": ["X1", "X2", "X3"],
        "label": ["alpha", "beta", "gamma"],
    }))
    target.add_documents([
        Document(doc_id="doc:parity0", title="Parity report",
                 text="A fresh report about compound rates and alpha labels."),
        Document(doc_id="doc:parity1", title="Second parity report",
                 text="Beta labels appear in the rate change discussion."),
    ])
    target.remove(victim_doc)
    target.remove(victim_table)
    target.update_table(shrink_table)


def mutation_args(session) -> tuple[str, str, Table]:
    """(victim doc, victim table, shrunken replacement) for the script,
    computed from a live session before anything mutates."""
    if isinstance(session, ShardedLakeSession):
        tables = sorted(session.table_names)
        docs = sorted(session.document_ids)
        target = tables[0]
        owner = session.shards[session.shard_of(target)]
        table = owner.lake.table(target)
    else:
        tables = sorted(session.lake.table_names)
        docs = sorted(d.doc_id for d in session.lake.documents)
        target = tables[0]
        table = session.lake.table(target)
    keep = list(range(max(1, table.num_rows // 2)))
    return docs[0], tables[-1], table.select_rows(keep, target)


def assert_same_results(expected: list, got: list, queries: list,
                        context: str) -> None:
    for query, want, have in zip(queries, expected, got):
        assert have.items == want.items, (
            f"{context}: serving diverged on {query!r}\n"
            f"  expected={want.items}\n  got={have.items}"
        )


@pytest.fixture(scope="module")
def seed_lakes(pharma_generated, ukopen_generated, mlopen_generated):
    return {
        "pharma": pharma_generated.lake,
        "ukopen": ukopen_generated.lake,
        "mlopen": mlopen_generated.lake,
    }
