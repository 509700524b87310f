"""Thread-backed LakeServer: parity, snapshot pinning, cache invalidation.

The serving front-end wraps a *live* session here, so parity is a pure
transport check: the server's ScatterGatherExecutor (3 batched
round-trips per shard, plan-level cache) reads the session's own shard
hosts and must return byte-identically what the session's
``discover_batch`` returns on every primitive — cold, warm (cache hits),
and after interleaved mutations through the server's writer path.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.session import open_lake
from repro.core.srql import Q
from repro.relational.table import Table
from repro.serve import LakeServer

from tests.serve.conftest import (
    assert_same_results,
    copy_lake,
    mutation_args,
    mutation_script,
    parity_config,
    workload,
)

LAKES = ("pharma", "ukopen", "mlopen")


def sharded_session(lake, shards: int = 2):
    return open_lake(copy_lake(lake), parity_config(), shards=shards)


class TestThreadParity:
    @pytest.mark.parametrize("name", LAKES)
    def test_sharded_parity_cold_and_mutated(self, seed_lakes, name):
        session = sharded_session(seed_lakes[name])
        server = LakeServer(session)
        try:
            queries = workload(session)
            expected = session.discover_batch(queries)
            got = server.discover_batch(queries)
            assert_same_results(expected, got, queries, f"{name} cold")

            # Mutate through the server's writer path (same live session).
            victim_doc, victim_table, shrunk = mutation_args(session)
            mutation_script(server, victim_doc, victim_table, shrunk)

            queries = workload(session)
            expected = session.discover_batch(queries)
            got = server.discover_batch(queries)
            assert_same_results(expected, got, queries, f"{name} mutated")
        finally:
            server.close()
            session.close()

    def test_monolithic_session_served_as_one_shard(self, seed_lakes):
        session = open_lake(copy_lake(seed_lakes["pharma"]), parity_config())
        server = LakeServer(session)
        try:
            assert server.num_shards == 1
            queries = workload(session)
            expected = [session.discover(q) for q in queries]
            got = server.discover_batch(queries)
            assert_same_results(expected, got, queries, "monolithic")
        finally:
            server.close()
            session.close()

    def test_joint_representation_is_rejected(self, seed_lakes):
        session = sharded_session(seed_lakes["pharma"])
        server = LakeServer(session)
        try:
            doc = sorted(session.document_ids)[0]
            with pytest.raises(RuntimeError, match="joint"):
                server.discover(
                    Q.cross_modal(doc, top_n=3, representation="joint")
                )
        finally:
            server.close()
            session.close()


class TestExecutionStats:
    def test_round_trips_and_timings_per_shard(self, seed_lakes):
        session = sharded_session(seed_lakes["pharma"])
        server = LakeServer(session, cache=False)
        try:
            server.discover_batch(workload(session))
            stats = server.last_stats
            # At most three batched round-trips per shard per workload.
            assert set(stats.shard_round_trips) <= {0, 1}
            assert all(1 <= n <= 3 for n in stats.shard_round_trips.values())
            assert set(stats.shard_seconds) == set(stats.shard_round_trips)
            assert all(s >= 0.0 for s in stats.shard_seconds.values())
            # Cache disabled: the counters stay untouched.
            assert stats.cache_hits == 0
            assert stats.cache_misses == 0
        finally:
            server.close()
            session.close()

    def test_cache_counters_on_repeat_workload(self, seed_lakes):
        session = sharded_session(seed_lakes["pharma"])
        server = LakeServer(session)
        try:
            queries = workload(session)
            server.discover_batch(queries)
            cold = server.last_stats
            assert cold.cache_misses > 0
            assert cold.cache_hits == 0

            server.discover_batch(queries)
            warm = server.last_stats
            assert warm.cache_misses == 0
            assert warm.cache_hits > 0
            # Every partial came from the cache: no shard round-trips.
            assert warm.shard_round_trips == {}
        finally:
            server.close()
            session.close()


class TestCacheInvalidation:
    def test_mutation_on_shard_k_invalidates_only_its_entries(
        self, seed_lakes
    ):
        """The satellite contract: after a table-local mutation routed to
        shard *k*, every newly cached partial either lives on shard *k* or
        depends on shard *k*'s new generation; partials of untouched
        shards keep hitting, and results still match the session."""
        session = sharded_session(seed_lakes["pharma"])
        server = LakeServer(session)
        try:
            queries = workload(session)
            server.discover_batch(queries)
            before = set(server.cache.keys())

            table = Table.from_dict("invalidation_probe", {
                "probe_id": ["P1", "P2"], "label": ["left", "right"],
            })
            k = session.shard_of(table.name)
            server.add_table(table)
            new_gen = server.generations[k]

            got = server.discover_batch(queries)
            stats = server.last_stats
            # Untouched-shard partials were reused, not recomputed...
            assert stats.cache_hits > 0
            # ...and every re-filled entry depends on the mutated shard.
            delta = set(server.cache.keys()) - before
            assert delta, "the mutation should have invalidated something"
            for shard, (tag, dep) in delta:
                assert shard == k or new_gen in dep, (
                    f"entry {tag!r} on shard {shard} (dep={dep}) does not "
                    f"depend on mutated shard {k}"
                )
            # Correctness after the partial reuse.
            expected = session.discover_batch(queries)
            assert_same_results(expected, got, queries, "post-invalidation")
        finally:
            server.close()
            session.close()


class TestSnapshotPinning:
    def test_inflight_query_completes_against_its_snapshot(self, seed_lakes):
        """A reader that already started keeps its pinned generations: the
        writer blocks until the reader drains, and the reader's results
        match the pre-mutation lake."""
        session = sharded_session(seed_lakes["pharma"])
        # cache=False so the reader actually round-trips (and blocks).
        server = LakeServer(session, cache=False)
        query = Q.content_search("rate change", k=5)
        baseline = server.discover(query)

        reader_entered = threading.Event()
        release_reader = threading.Event()
        writer_done = threading.Event()
        inner = server.backend.round_trip

        def blocking_round_trip(shard, ops, pinned_gen=None):
            reader_entered.set()
            assert release_reader.wait(timeout=30)
            return inner(shard, ops, pinned_gen=pinned_gen)

        results: dict = {}

        def read():
            results["read"] = server.discover(query)

        def write():
            mutation_script(server, *mutation_args(session))
            writer_done.set()

        try:
            server.backend.round_trip = blocking_round_trip
            reader = threading.Thread(target=read)
            reader.start()
            assert reader_entered.wait(timeout=30)

            writer = threading.Thread(target=write)
            writer.start()
            # The writer must not commit while the reader is in flight.
            assert not writer_done.wait(timeout=0.5)
            pre_mutation_generations = server.generations

            release_reader.set()
            reader.join(timeout=60)
            assert not reader.is_alive()
            assert writer_done.wait(timeout=60)
            writer.join(timeout=60)

            # The reader saw the pre-mutation snapshot, byte for byte.
            assert results["read"].items == baseline.items
            assert server.generations != pre_mutation_generations

            server.backend.round_trip = inner
            # And a fresh read sees the post-mutation lake.
            fresh = server.discover(query)
            assert fresh.items == session.discover(query).items
        finally:
            server.backend.round_trip = inner
            release_reader.set()
            server.close()
            session.close()


class TestLifecycle:
    def test_close_is_idempotent_and_leaves_session_open(self, seed_lakes):
        session = sharded_session(seed_lakes["pharma"])
        server = LakeServer(session)
        server.close()
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.discover(Q.content_search("rate", k=3))
        with pytest.raises(RuntimeError, match="closed"):
            server.remove("anything")
        # Unowned backend: the caller's session survives the server.
        assert session.discover(Q.content_search("rate", k=3)) is not None
        session.close()

    def test_context_manager_closes(self, seed_lakes):
        session = open_lake(copy_lake(seed_lakes["pharma"]), parity_config())
        with LakeServer(session) as server:
            server.discover(Q.content_search("rate", k=3))
        assert server._closed
        session.close()

    def test_process_backend_requires_a_saved_catalog(self, seed_lakes):
        session = open_lake(copy_lake(seed_lakes["pharma"]), parity_config())
        with pytest.raises(ValueError, match="saved catalog"):
            LakeServer(session, backend="process")
        session.close()

    def test_unknown_backend_rejected(self, seed_lakes):
        session = open_lake(copy_lake(seed_lakes["pharma"]), parity_config())
        with pytest.raises(ValueError, match="backend"):
            LakeServer(session, backend="fiber")
        session.close()
