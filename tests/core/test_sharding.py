"""Sharded-vs-monolithic parity, mutation routing, and rebalance tests.

The acceptance bar of the sharded-lake architecture: a default
:class:`~repro.core.sharding.ShardedLakeSession` must return *identical*
top-k results to a monolithic session — for all six SRQL primitives, on all
three seed lakes, at 1/2/4 shards — before and after interleaved
add/remove/update mutations. Both sides run the documented parity
configuration (no joint model, the corpus-independent hashing embedder);
shards share corpus-wide BM25/df statistics, which is what makes keyword
scores merge-exact (see the sharding module docs).
"""

from __future__ import annotations

import os

import pytest

from repro.core.session import LakeSession, open_lake
from repro.core.sharding import ShardedLakeSession, ShardRouter
from repro.core.srql import Q
from repro.core.system import CMDLConfig
from repro.embed.hashing_embedder import HashingEmbedder
from repro.relational.catalog import DataLake, Document
from repro.relational.table import Table

SHARD_COUNTS = (1, 2, 4)


def _config() -> CMDLConfig:
    return CMDLConfig(use_joint=False, embedder=HashingEmbedder(seed=0))


def _copy_lake(lake: DataLake) -> DataLake:
    """A fresh DataLake over the same Table/Document objects (each session
    must own its mutable catalog)."""
    fresh = DataLake(name=lake.name)
    for table in lake.tables:
        fresh.add_table(table)
    for document in lake.documents:
        fresh.add_document(document)
    return fresh


def _workload(profile) -> list:
    """All six primitives over a deterministic slice of the lake."""
    tables = sorted(profile.table_columns)[:6]
    docs = sorted(profile.documents)[:3]
    queries = [
        Q.content_search("rate change", k=5),
        Q.content_search("name", mode="table", k=5),
        Q.metadata_search("report", k=5),
        Q.metadata_search("id", mode="table", k=5),
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


def _mutate(session) -> None:
    """The interleaved mutation script, identical on every session."""
    tables = sorted(
        session.table_names if isinstance(session, ShardedLakeSession)
        else session.lake.table_names
    )
    docs = sorted(
        session.document_ids if isinstance(session, ShardedLakeSession)
        else [d.doc_id for d in session.lake.documents]
    )
    session.add_table(Table.from_dict("parity_extra", {
        "extra_id": ["X1", "X2", "X3"],
        "label": ["alpha", "beta", "gamma"],
    }))
    session.add_documents([
        Document(doc_id="doc:parity0", title="Parity report",
                 text="A fresh report about compound rates and alpha labels."),
        Document(doc_id="doc:parity1", title="Second parity report",
                 text="Beta labels appear in the rate change discussion."),
    ])
    session.remove(docs[0])
    session.remove(tables[-1])
    # Shrink an existing table in place (schema kept, half the rows).
    target = tables[0]
    if isinstance(session, ShardedLakeSession):
        owner = session.shards[session.shard_of(target)]
        table = owner.lake.table(target)
    else:
        table = session.lake.table(target)
    keep = list(range(max(1, table.num_rows // 2)))
    session.update_table(table.select_rows(keep, target))


def _assert_parity(mono, sharded, context: str) -> None:
    for query in _workload(mono.profile):
        expected = mono.discover(query)
        got = sharded.discover(query)
        assert got.items == expected.items, (
            f"{context}: sharded diverged from monolithic on {query!r}\n"
            f"  mono={expected.items}\n  shard={got.items}"
        )


def _parity_case(lake: DataLake, shards: int) -> None:
    mono = open_lake(_copy_lake(lake), _config())
    sharded = open_lake(_copy_lake(lake), _config(), shards=shards)
    _assert_parity(mono, sharded, f"{lake.name} shards={shards} (cold)")
    _mutate(mono)
    _mutate(sharded)
    assert sharded.generation >= 1
    _assert_parity(mono, sharded, f"{lake.name} shards={shards} (mutated)")


class TestShardedParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_pharma(self, pharma_generated, shards):
        _parity_case(pharma_generated.lake, shards)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_ukopen(self, ukopen_generated, shards):
        _parity_case(ukopen_generated.lake, shards)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_mlopen(self, mlopen_generated, shards):
        _parity_case(mlopen_generated.lake, shards)


@pytest.mark.slow
class TestShardedParitySlow:
    """Heavier cross-checks: batch execution and threaded scatter."""

    def test_batch_matches_singles_and_reports_shards(self, ukopen_generated):
        lake = ukopen_generated.lake
        mono = open_lake(_copy_lake(lake), _config())
        sharded = open_lake(_copy_lake(lake), _config(), shards=4)
        workload = _workload(mono.profile)
        batch = sharded.discover_batch(workload)
        singles = [mono.discover(q) for q in workload]
        assert [b.items for b in batch] == [s.items for s in singles]
        stats = sharded.last_batch_stats
        assert stats.generation == sharded.generation
        assert set(stats.shard_generations) == {0, 1, 2, 3}
        assert set(stats.shard_seconds) == {0, 1, 2, 3}
        assert stats.pkfk_sweeps == 1  # one lake-wide sweep fed every query

    def test_threaded_scatter_matches_serial(self, pharma_generated,
                                             monkeypatch):
        lake = pharma_generated.lake
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = open_lake(_copy_lake(lake), _config(), shards=2)
        assert serial._pool is None
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with open_lake(_copy_lake(lake), _config(), shards=2) as threaded:
            assert threaded._pool is not None
            for query in _workload(serial.profile):
                assert (
                    threaded.discover(query).items
                    == serial.discover(query).items
                )


def test_global_stats_keyword_is_only_a_compatibility_check(toy_lake):
    """``open_lake(lake, shards=2, global_stats=True)`` — the call older
    callers still make — answers exactly as the call without it; any
    other value is refused, since shards always share corpus statistics."""
    plain = open_lake(_copy_lake(toy_lake), _config(), shards=2)
    compat = open_lake(_copy_lake(toy_lake), _config(), shards=2,
                       global_stats=True)
    for query in _workload(plain.profile):
        assert compat.discover(query).items == plain.discover(query).items
    with pytest.raises(ValueError, match="corpus-wide statistics"):
        open_lake(_copy_lake(toy_lake), _config(), shards=2,
                  global_stats=False)


# ------------------------------------------------------------------ router


class TestShardRouter:
    def test_deterministic_and_total(self, pharma_generated):
        lake = pharma_generated.lake
        router = ShardRouter(4)
        again = ShardRouter(4)
        names = lake.table_names + [d.doc_id for d in lake.documents]
        assert [router.shard_of(n) for n in names] == [
            again.shard_of(n) for n in names
        ]
        assert all(0 <= router.shard_of(n) < 4 for n in names)

    def test_partition_is_disjoint_and_complete(self, pharma_generated):
        lake = pharma_generated.lake
        sublakes = ShardRouter(3).partition(lake)
        tables = [t for sub in sublakes for t in sub.table_names]
        docs = [d.doc_id for sub in sublakes for d in sub.documents]
        assert sorted(tables) == sorted(lake.table_names)
        assert sorted(docs) == sorted(d.doc_id for d in lake.documents)

    def test_explicit_assignment_wins(self):
        router = ShardRouter(4)
        hashed = router.shard_of("drugs")
        router.assign("drugs", (hashed + 1) % 4)
        assert router.shard_of("drugs") == (hashed + 1) % 4

    def test_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardRouter(0)
        with pytest.raises(ValueError, match="shard must be in"):
            ShardRouter(2).assign("drugs", 2)
        with pytest.raises(ValueError, match="shards=3 disagrees"):
            ShardedLakeSession(DataLake(), shards=3, router=ShardRouter(2))
        with pytest.raises(ValueError, match="shards=N or an explicit"):
            ShardedLakeSession(DataLake())
        # Rejected up front — before any shard fit or pool construction.
        with pytest.raises(ValueError, match="auto_refresh_threshold"):
            ShardedLakeSession(DataLake(), shards=2, auto_refresh_threshold=2.0)


# -------------------------------------------------------------- mutations


@pytest.fixture()
def toy_sharded(toy_lake) -> ShardedLakeSession:
    return open_lake(_copy_lake(toy_lake), _config(), shards=3)


class TestMutationRouting:
    def test_add_table_touches_only_owner(self, toy_sharded):
        session = toy_sharded
        table = Table.from_dict("capitals", {
            "city": ["london", "madrid"], "mayor": ["sadiq", "jose"],
        })
        owner = session.shard_of("capitals")
        before = session.generations
        session.add_table(table)
        after = session.generations
        assert after[owner] == before[owner] + 1
        assert all(
            after[i] == before[i] for i in after if i != owner
        ), "a table add must never touch sibling shards"
        assert "capitals" in session.shards[owner].lake.table_names

    def test_remove_and_update_route_to_owner(self, toy_sharded):
        session = toy_sharded
        owner = session.shard_of("drugs")
        updated = session.shards[owner].lake.table("drugs").select_rows(
            [0, 1], "drugs"
        )
        session.update_table(updated)
        assert session.shards[owner].lake.table("drugs").num_rows == 2
        session.remove("drugs")
        assert "drugs" not in session.table_names

    def test_unknown_names_raise(self, toy_sharded):
        with pytest.raises(KeyError, match="no table or document"):
            toy_sharded.remove("nope")
        with pytest.raises(KeyError, match="no table 'nope'"):
            toy_sharded.update_table(Table.from_dict("nope", {"a": ["1"]}))

    def test_joint_representation_rejected(self, toy_sharded):
        with pytest.raises(RuntimeError, match="not supported on sharded"):
            toy_sharded.discover(
                Q.cross_modal("doc:aspirin", top_n=2, representation="joint")
            )

    def test_document_mutations_keep_global_filter_parity(self, toy_lake):
        """Document churn must keep bags byte-identical
        to a monolithic session applying the same churn (the df filter is
        corpus-wide, so siblings re-sync when it shifts)."""
        mono = open_lake(_copy_lake(toy_lake), _config())
        sharded = open_lake(_copy_lake(toy_lake), _config(), shards=3)
        repeated = [
            Document(
                doc_id=f"doc:flood{i}",
                title=f"Flood {i}",
                text="population growth population growth in london berlin "
                     "paris madrid population",
            )
            for i in range(6)
        ]
        for session in (mono, sharded):
            session.add_documents(repeated)
            session.remove("doc:city")
        mono_bags = {
            doc_id: sketch.content_bow.terms
            for doc_id, sketch in mono.profile.documents.items()
        }
        sharded_bags = {
            doc_id: sketch.content_bow.terms
            for shard in sharded.shards
            for doc_id, sketch in shard.profile.documents.items()
        }
        assert sharded_bags == mono_bags
        for query in (
            Q.content_search("population growth", k=5),
            Q.metadata_search("flood", k=5),
        ):
            assert sharded.discover(query).items == mono.discover(query).items


# -------------------------------------------------------------- rebalance


class TestRebalance:
    def test_moves_update_routing_and_preserve_results(self, toy_lake):
        mono = open_lake(_copy_lake(toy_lake), _config())
        session = open_lake(_copy_lake(toy_lake), _config(), shards=3)
        workload = [
            Q.joinable("drugs", top_n=3),
            Q.unionable("drugs", top_n=3),
            Q.pkfk("drugs", top_n=3),
            Q.content_search("cox inflammation", k=5),
        ]
        expected = [mono.discover(q).items for q in workload]
        names = session.table_names + session.document_ids
        moved = session.rebalance({name: 0 for name in names})
        assert moved == sum(
            1 for name in names
            if ShardRouter(3).shard_of(name) != 0
        )
        assert all(session.shard_of(name) == 0 for name in names)
        assert session.shards[0].lake.num_tables == len(session.table_names)
        assert [session.discover(q).items for q in workload] == expected

    def test_already_home_assignment_moves_nothing(self, toy_sharded):
        session = toy_sharded
        owner = session.shard_of("drugs")
        before = session.generations
        assert session.rebalance({"drugs": owner}) == 0
        assert session.generations == before

    def test_rebalanced_entry_keeps_routing_for_mutations(self, toy_sharded):
        session = toy_sharded
        target = (session.shard_of("drugs") + 1) % session.num_shards
        session.rebalance({"drugs": target})
        updated = session.shards[target].lake.table("drugs").select_rows(
            [0], "drugs"
        )
        session.update_table(updated)  # must follow the new assignment
        assert session.shards[target].lake.table("drugs").num_rows == 1


# ------------------------------------------------------------------ drift


class TestShardedDrift:
    def test_drift_starts_at_zero_and_rises(self, toy_sharded):
        assert toy_sharded.drift() == 0.0
        toy_sharded.add_table(Table.from_dict("neologisms", {
            "blarfle": ["wuggish", "snorfling", "quibblet"],
        }))
        assert toy_sharded.drift() > 0.0

    def test_auto_refresh_is_per_shard(self, toy_lake):
        session = open_lake(
            _copy_lake(toy_lake), _config(), shards=3,
            auto_refresh_threshold=0.1,
        )
        owner = session.shard_of("neologisms")
        session.add_table(Table.from_dict("neologisms", {
            "blarfle": ["wuggish", "snorfling", "quibblet"],
        }))
        # The owning shard crossed the drift bound and refreshed itself
        # (mutation counter reset); siblings never noticed.
        assert session.shards[owner].mutations == 0
        assert session.shards[owner].drift() == 0.0
        assert all(
            shard.mutations == 0 for i, shard in enumerate(session.shards)
            if i != owner
        )
        assert all(
            session.generations[i] == 0
            for i in session.generations if i != owner
        )


# ------------------------------------------------- failed rebalance is atomic


@pytest.mark.parametrize("bad", [{"nope": 0}, {"cities": 7}],
                         ids=["unknown-name", "shard-out-of-range"])
def test_failed_rebalance_changes_nothing(toy_lake, tmp_path, bad):
    """Every name and target is validated before the first move: a bad
    assignment leaves the live session — and the catalog it reopens from —
    exactly as they were, with every entry still reachable."""
    session = open_lake(_copy_lake(toy_lake), _config(), shards=2)
    session.save(tmp_path / "lake")

    def homes(s) -> dict[str, int]:
        return {
            name: i for i, shard in enumerate(s.shards)
            for name in shard.lake.table_names
            + [d.doc_id for d in shard.lake.documents]
        }

    before, generations = homes(session), session.generations
    with pytest.raises((KeyError, ValueError)):
        session.rebalance({"drugs": 1 - session.shard_of("drugs"), **bad})
    assert homes(session) == before
    assert session.generations == generations
    assert session.router.assignments == {}

    session.save()
    session.close()
    with open_lake(tmp_path / "lake") as reopened:
        assert homes(reopened) == before
        assert all(reopened.shard_of(n) == i for n, i in before.items())
        drugs = reopened.shards[before["drugs"]].lake.table("drugs")
        reopened.update_table(drugs.select_rows([0], "drugs"))  # reachable
        reopened.remove("drugs")


# ------------------------------------------- session-side link-index lifetime


def _linked_copy(session, shard: int):
    """A copy of a PK-FK-linked table under a name the router sends to
    ``shard``: adding it adds links (the in-process mirror of
    tests/serve/test_cache.py::linked_copy)."""
    source = next(
        name for name in sorted(session.table_names)
        if session.discover(Q.pkfk(name, top_n=3)).items
    )
    table = session.shards[session.shard_of(source)].lake.table(source)
    name = next(
        f"{source}_copy{i}" for i in range(64)
        if session.router.shard_of(f"{source}_copy{i}") == shard
    )
    return source, table.select_rows(list(range(table.num_rows)), name)


def test_session_link_index_lives_exactly_one_generation_vector(
    pharma_generated,
):
    """The merged PK-FK link index is retained per generation vector: a
    repeated ``pkfk`` read is one cache lookup, and every kind of
    generation move — owner mutation, sibling mutation, rebalance, refresh
    — costs exactly one sweep, after which answers equal a cold monolithic
    fit of the same lake."""
    session = open_lake(_copy_lake(pharma_generated.lake), _config(),
                        shards=2)

    def sweeps_once_then_never(context: str) -> None:
        lake = DataLake(name="cold")
        for shard in session.shards:
            for table in shard.lake.tables:
                lake.add_table(table)
            for document in shard.lake.documents:
                lake.add_document(document)
        mono = open_lake(lake, _config())
        queries = [Q.pkfk(t, top_n=3) for t in sorted(session.table_names)]
        got = session.discover_batch(queries)
        assert session.last_batch_stats.pkfk_sweeps == 1, context
        assert [g.items for g in got] == [
            mono.discover(q).items for q in queries
        ], context
        session.discover(queries[0])
        stats = session.last_batch_stats
        assert stats.pkfk_sweeps == 0, context
        assert stats.shard_round_trips == {}, context
        assert (stats.cache_hits, stats.cache_misses) == (1, 0), context

    sweeps_once_then_never("cold")
    source, _ = _linked_copy(session, 0)
    owner = session.shard_of(source)
    session.add_table(_linked_copy(session, owner)[1])
    sweeps_once_then_never("owner-shard mutation")
    session.add_table(_linked_copy(session, 1 - owner)[1])
    sweeps_once_then_never("sibling-shard mutation")
    session.rebalance({source: 1 - owner})
    sweeps_once_then_never("rebalance")
    session.refresh()
    sweeps_once_then_never("refresh")


# ------------------------------------------------- one executor, one op table


def test_session_and_thread_server_share_one_read_path(pharma_generated):
    """Structural guard: a sharded session and a thread-backed LakeServer
    over it run the same executor class over the same ShardHost objects,
    and a six-primitive workload issues the same shard ops on both — a
    second scatter-gather path would have to show up here."""
    from repro.core import scatter
    from repro.serve import LakeServer

    session = open_lake(_copy_lake(pharma_generated.lake), _config(),
                        shards=2)
    server = LakeServer(session)
    executors, ops = [], []
    real_init = scatter.ScatterGatherExecutor.__init__

    def recording_init(self, *args, **kwargs):
        executors.append(type(self))
        real_init(self, *args, **kwargs)

    def run(front) -> tuple[list, list]:
        ops.clear()
        executors.clear()
        session._cache.clear()  # both fronts start from cold partials
        server.cache.clear()
        results = front.discover_batch(_workload(session.profile))
        return [r.items for r in results], sorted(ops)

    try:
        assert server.backend.hosts is session.hosts
        for i, host in enumerate(session.hosts):
            assert type(host) is scatter.ShardHost
            inner = host.handle
            host.handle = lambda op, payload, i=i, inner=inner: (
                ops.append((i, op)), inner(op, payload)
            )[1]
        scatter.ScatterGatherExecutor.__init__ = recording_init
        session_items, session_ops = run(session)
        assert executors == [scatter.ScatterGatherExecutor]
        server_items, server_ops = run(server)
        assert executors == [scatter.ScatterGatherExecutor]
    finally:
        scatter.ScatterGatherExecutor.__init__ = real_init
        server.close()
        session.close()
    assert server_items == session_items
    assert server_ops == session_ops
    assert {op for _, op in session_ops} >= {
        "keyword", "document_encoding", "text_query_sketch",
        "encoding_column_hits", "text_column_parts", "table_sketches",
        "joinable_columns_for", "union_phase1", "union_phase2",
        "pk_entries", "pkfk_links_for",
    }


# ------------------------------------------------------ one mutation plan


def test_session_and_process_server_share_one_mutation_plan(
    pharma_generated, tmp_path, monkeypatch
):
    """Structural guard: a sharded session and a process-backed LakeServer
    over its saved catalog plan every mutation through the one
    ``plan_mutation`` — identical plans for a scripted table + document
    sequence — and issue the same ``(shard, op)`` owner steps. A zero-
    column table is updated and removed on both paths: it holds no
    column, so the planning view's ``table_columns`` is what knows it."""
    from repro.core import mutation, sharding
    from repro.core.mutation import ROUTED_OPS
    from repro.serve import LakeServer, server as server_module

    session = open_lake(_copy_lake(pharma_generated.lake), _config(),
                        shards=2)
    session.save(tmp_path / "lake")
    session.close()  # unbound: the server is the catalog's only writer
    server = LakeServer(tmp_path / "lake", backend="process")

    plans: dict[str, list] = {"session": [], "server": []}
    steps: dict[str, list] = {"session": [], "server": []}

    def spy(front: str):
        def planned(*args, **kwargs):
            plan = mutation.plan_mutation(*args, **kwargs)
            plans[front].append(plan)
            return plan
        return planned

    monkeypatch.setattr(sharding, "plan_mutation", spy("session"))
    monkeypatch.setattr(server_module, "plan_mutation", spy("server"))
    for i, shard in enumerate(session.shards):
        for op in ROUTED_OPS:
            inner = getattr(shard, op)
            setattr(shard, op, lambda arg, i=i, op=op, inner=inner: (
                steps["session"].append((i, op)), inner(arg)
            )[1])
    for i, worker in enumerate(server.backend.workers):
        inner = worker.call
        worker.call = lambda op, payload=None, i=i, inner=inner, **kw: (
            op in ROUTED_OPS and steps["server"].append((i, op)),
            inner(op, payload, **kw),
        )[1]

    tables = sorted(session.table_names)
    docs = sorted(session.document_ids)
    shrunk = session.shards[session.shard_of(tables[0])].lake.table(tables[0])
    shrunk = shrunk.select_rows([0, 1], tables[0])
    hollow = Table("hollow", [])
    script = [
        ("add_table", Table.from_dict("parity_extra", {
            "extra_id": ["X1", "X2", "X3"], "label": ["a", "b", "c"],
        })),
        ("add_documents", [
            Document(doc_id=f"doc:plan{i}", title=f"Plan {i}",
                     text=f"Plan report {i} about compound rates.")
            for i in range(4)
        ]),
        ("add_table", hollow),
        ("update_table", hollow),
        ("update_table", shrunk),
        ("remove", docs[0]),
        ("remove", "hollow"),
        ("remove", tables[-1]),
    ]
    try:
        for front in (session, server):
            for op, arg in script:
                getattr(front, op)(arg)
        queries = _workload(session.profile)[:8]
        got = server.discover_batch(queries)
        assert [g.items for g in got] == [
            session.discover(q).items for q in queries
        ]
    finally:
        server.close()
    assert len(plans["session"]) == len(script)
    assert plans["server"] == plans["session"]
    assert steps["server"] == steps["session"]
    assert {shard for shard, _ in steps["session"]} == {0, 1}
    assert any(plan.resync_skip is not None for plan in plans["session"])
