"""ResultCache: LRU behaviour, counters, thread safety — and the one
merged value it holds, the served PK-FK link index (built once per
generation vector, invalidated by any shard's mutation)."""

from __future__ import annotations

import threading

import pytest

from repro.core.srql import Q
from repro.serve import LakeServer
from repro.serve.cache import FRONT, ResultCache

from tests.serve.conftest import assert_same_results
from tests.serve.test_process_backend import saved_session
from tests.serve.test_thread_backend import sharded_session


def test_get_put_roundtrip():
    cache = ResultCache()
    assert cache.get(0, ("kw", (1,))) is None
    cache.put(0, ("kw", (1,)), [1, 2, 3])
    assert cache.get(0, ("kw", (1,))) == [1, 2, 3]
    assert len(cache) == 1


def test_keys_are_shard_scoped():
    cache = ResultCache()
    cache.put(0, ("kw", (1,)), "a")
    cache.put(1, ("kw", (1,)), "b")
    assert cache.get(0, ("kw", (1,))) == "a"
    assert cache.get(1, ("kw", (1,))) == "b"
    assert sorted(cache.keys()) == [(0, ("kw", (1,))), (1, ("kw", (1,)))]


def test_counters_track_hits_and_misses():
    cache = ResultCache()
    cache.get(0, "k")            # miss
    cache.put(0, "k", 1)
    cache.get(0, "k")            # hit
    cache.get(0, "other")        # miss
    assert cache.hits == 1
    assert cache.misses == 2


def test_none_values_are_cacheable():
    cache = ResultCache()
    cache.put(0, "k", None)
    assert cache.get(0, "k") is None
    # ...but it counted as a hit: the sentinel distinguishes absence.
    assert cache.hits == 1
    assert cache.misses == 0


def test_lru_eviction_prefers_recent_entries():
    cache = ResultCache(max_entries=3)
    for i in range(3):
        cache.put(0, i, i)
    cache.get(0, 0)              # touch 0: now 1 is the oldest
    cache.put(0, 3, 3)           # evicts 1
    assert cache.get(0, 0) == 0
    assert cache.get(0, 1) is None
    assert cache.get(0, 2) == 2
    assert cache.get(0, 3) == 3
    assert len(cache) == 3


def test_put_refreshes_recency():
    cache = ResultCache(max_entries=2)
    cache.put(0, "a", 1)
    cache.put(0, "b", 2)
    cache.put(0, "a", 10)        # refresh "a": "b" is now the oldest
    cache.put(0, "c", 3)         # evicts "b"
    assert cache.get(0, "a") == 10
    assert cache.get(0, "b") is None
    assert cache.get(0, "c") == 3


def test_clear_resets_entries_but_keeps_counters():
    cache = ResultCache()
    cache.put(0, "k", 1)
    cache.get(0, "k")
    cache.clear()
    assert len(cache) == 0
    assert cache.get(0, "k") is None
    assert cache.hits == 1
    assert cache.misses == 1


def test_concurrent_access_is_safe():
    cache = ResultCache(max_entries=64)
    errors = []

    def worker(base):
        try:
            for i in range(500):
                key = (base * 500 + i) % 96  # force evictions
                cache.put(base, key, i)
                cache.get(base, key)
                cache.get((base + 1) % 4, key)
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    assert len(cache) <= 64


def test_evictions_count_lru_pushouts_only():
    cache = ResultCache(max_entries=2)
    for i in range(5):
        cache.put(0, i, i)
    assert cache.evictions == 3
    cache.drop_shard(0)
    cache.put(0, "k", 1)
    cache.clear()
    assert cache.evictions == 3
    assert "evictions=3" in repr(cache)


def test_drop_shard_also_evicts_front_entries():
    cache = ResultCache()
    cache.put(0, "a", 1)
    cache.put(1, "b", 2)
    cache.put(FRONT, "merged", 3)
    cache.drop_shard(1)
    assert cache.keys() == [(0, "a")]


# ----------------------------------------------------- served PK-FK index


def pkfk_workload(session) -> list:
    return [Q.pkfk(table, top_n=3) for table in sorted(session.table_names)]


def assert_pkfk_parity(server, session, context: str) -> None:
    queries = pkfk_workload(session)
    expected = [session.discover(query) for query in queries]
    # One at a time: every read after the first must come from the index.
    got = [server.discover(query) for query in queries]
    assert_same_results(expected, got, queries, context)
    assert any(result.items for result in got)


def index_vectors(server) -> list[tuple]:
    """Generation vectors of the link indexes the cache holds."""
    return [
        dep for shard, (tag, dep) in server.cache.keys()
        if shard == FRONT and tag == ("pkfk_index",)
    ]


def linked_copy(session, shard: int):
    """A copy of a PK-FK-linked table under a name the router sends to
    ``shard``: its columns equal the original's, so adding it adds links
    (and changes the original's ``pkfk`` answer)."""
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


class TestServedPKFKIndexThread:
    def test_unchanged_vector_read_is_one_lookup(self, seed_lakes):
        session = sharded_session(seed_lakes["pharma"])
        server = LakeServer(session)
        try:
            first, second = pkfk_workload(session)[:2]
            server.discover(first)
            assert server.last_stats.pkfk_sweeps == 1
            assert index_vectors(server) == [(0, 0)]
            lookups = server.cache.hits + server.cache.misses
            got = server.discover(second)  # another table, same vector
            stats = server.last_stats
            assert stats.shard_round_trips == {}
            assert stats.pkfk_sweeps == 0
            assert (stats.cache_hits, stats.cache_misses) == (1, 0)
            assert server.cache.hits + server.cache.misses == lookups + 1
            assert got.items == session.discover(second).items
        finally:
            server.close()
            session.close()

    def test_every_kind_of_generation_move_invalidates(self, seed_lakes):
        session = sharded_session(seed_lakes["pharma"])
        server = LakeServer(session)
        try:
            assert_pkfk_parity(server, session, "cold")
            source, _ = linked_copy(session, 0)
            owner = session.shard_of(source)
            before = session.discover(Q.pkfk(source, top_n=3)).items

            def moved(context: str) -> None:
                assert_pkfk_parity(server, session, context)
                vector = tuple(session.generations[i] for i in range(2))
                assert vector in index_vectors(server), context

            server.add_table(linked_copy(session, owner)[1])
            moved("owner-shard mutation")
            assert session.discover(Q.pkfk(source, top_n=3)).items != before
            server.add_table(linked_copy(session, 1 - owner)[1])
            moved("sibling-shard mutation")
            # refresh/rebalance act on the live session the server wraps.
            session.rebalance({source: 1 - owner})
            moved("rebalance")
            session.refresh()
            moved("refresh")
            assert len(set(index_vectors(server))) == 5
        finally:
            server.close()
            session.close()

    def test_cache_off_sweeps_every_time(self, seed_lakes):
        session = sharded_session(seed_lakes["pharma"])
        server = LakeServer(session, cache=False)
        try:
            assert_pkfk_parity(server, session, "cache=False")
            stats = server.last_stats
            assert stats.pkfk_sweeps == 1
            assert (stats.cache_hits, stats.cache_misses) == (0, 0)
            assert set(stats.shard_round_trips) == {0, 1}
        finally:
            server.close()
            session.close()


class TestServedPKFKIndexProcess:
    @pytest.fixture()
    def served(self, seed_lakes, tmp_path):
        reference = saved_session(seed_lakes["pharma"], tmp_path / "lake")
        server = LakeServer(tmp_path / "lake", backend="process")
        try:
            yield server, reference
        finally:
            server.close()

    def test_mutations_and_respawn_invalidate(self, served):
        server, reference = served
        assert_pkfk_parity(server, reference, "cold")
        server.discover(pkfk_workload(reference)[0])
        assert server.last_stats.shard_round_trips == {}

        source, _ = linked_copy(reference, 0)
        owner = reference.shard_of(source)
        for shard, context in ((owner, "owner"), (1 - owner, "sibling")):
            table = linked_copy(reference, shard)[1]
            reference.add_table(table)
            server.add_table(table)
            assert_pkfk_parity(server, reference, f"{context}-shard mutation")

        # A warm index never reaches the workers, so a dead one goes
        # unnoticed until some other read needs it; its respawn drops the
        # index along with the shard's partials.
        worker = server.backend.workers[owner]
        worker.proc.kill()
        worker.proc.wait()
        server.discover(Q.content_search("never cached before", k=3))
        assert server.backend.total_respawns == 1
        assert index_vectors(server) == []
        assert_pkfk_parity(server, reference, "respawn")
        assert index_vectors(server) == [
            tuple(server.generations[i] for i in range(2))
        ]

    def test_cache_off(self, seed_lakes, tmp_path):
        reference = saved_session(seed_lakes["pharma"], tmp_path / "lake")
        server = LakeServer(tmp_path / "lake", backend="process", cache=False)
        try:
            queries = pkfk_workload(reference)
            expected = reference.discover_batch(queries)
            got = server.discover_batch(queries)  # one sweep for the batch
            assert_same_results(expected, got, queries, "process cache=False")
            assert server.last_stats.pkfk_sweeps == 1
        finally:
            server.close()
