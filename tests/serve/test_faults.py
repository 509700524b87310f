"""Fault-tolerant serving: supervision, recovery, degraded scatter-gather.

The recovery invariant under test throughout: after any injected fault —
worker kill, hang past the deadline, torn reply frame, corrupted frame,
crash inside the journal-append window, crash mid-checkpoint — a
recovered process-backed server returns byte-identical top-k to an
undisturbed one, across all six discovery primitives. Faults are armed
with :mod:`repro.serve.faults` so every run replays deterministically.
"""

from __future__ import annotations

import errno
import shutil
import socket
import threading
from types import SimpleNamespace

import pytest

from repro.core.session import open_lake
from repro.core.srql import Q
from repro.relational.table import Table
from repro.serve import (
    LakeServer,
    RemoteShardError,
    ShardUnavailable,
    WorkerSupervisor,
)
from repro.serve import faults
from repro.serve.worker import ShardWorker
from repro.store import CatalogCorrupt, ShardStore

from tests.serve.conftest import assert_same_results, workload
from tests.serve.test_process_backend import saved_session

#: Supervisor knobs keeping respawn loops fast in tests.
FAST = {"backoff_base": 0.01, "backoff_cap": 0.05}


@pytest.fixture(autouse=True)
def _no_fault_leak():
    """No test leaves a fault spec armed for the ones after it."""
    yield
    faults.clear()


@pytest.fixture(scope="module")
def seed(seed_lakes, tmp_path_factory):
    """One fitted+saved 2-shard pharma catalog, with the undisturbed
    reference session and its expected workload results."""
    root = tmp_path_factory.mktemp("fault-seed")
    reference = saved_session(seed_lakes["pharma"], root / "lake", shards=2)
    queries = workload(reference)
    expected = reference.discover_batch(queries)
    return SimpleNamespace(
        path=root / "lake",
        reference=reference,
        queries=queries,
        expected=expected,
    )


def lake_copy(seed, tmp_path, name: str = "lake"):
    destination = tmp_path / name
    shutil.copytree(seed.path, destination)
    return destination


def kill_worker(server, shard: int) -> None:
    """Crash a worker the way the OOM killer would: no parent-side
    bookkeeping runs until the next call notices."""
    worker = server.backend.workers[shard]
    worker.proc.kill()
    worker.proc.wait()


class TestRecoveryInvariant:
    def test_killed_workers_respawn_to_parity(self, seed, tmp_path):
        # cache=False so every batch re-reads both shards — a warm cache
        # would serve the second batch without touching the dead worker.
        server = LakeServer(
            lake_copy(seed, tmp_path), backend="process", cache=False, **FAST
        )
        try:
            for shard in range(server.num_shards):
                kill_worker(server, shard)
                got = server.discover_batch(seed.queries)
                assert_same_results(
                    seed.expected, got, seed.queries, f"kill shard {shard}"
                )
                assert server.last_stats.degraded_shards == []
            assert server.backend.total_respawns >= server.num_shards
        finally:
            server.close()

    def test_hung_worker_times_out_and_recovers(self, seed, tmp_path):
        with faults.inject(f"delay:keyword:30@{tmp_path}/hang-once"):
            server = LakeServer(
                lake_copy(seed, tmp_path), backend="process",
                request_timeout=5.0, **FAST,
            )
            try:
                got = server.discover_batch(seed.queries)
                assert_same_results(
                    seed.expected, got, seed.queries, "timeout recovery"
                )
                assert server.last_stats.retries >= 1
                assert server.backend.total_respawns >= 1
            finally:
                server.close()

    @pytest.mark.parametrize("spec", [
        "mid_frame:keyword",
        "corrupt:keyword",
        "mid_frame:table_sketches",
        "corrupt:union_phase1",
    ])
    def test_torn_and_corrupt_replies_recover_to_parity(
        self, seed, tmp_path, spec
    ):
        with faults.inject(f"{spec}@{tmp_path}/reply-once"):
            server = LakeServer(
                lake_copy(seed, tmp_path), backend="process", **FAST
            )
            try:
                got = server.discover_batch(seed.queries)
                assert_same_results(seed.expected, got, seed.queries, spec)
                assert server.last_stats.retries >= 1
                assert server.backend.total_respawns >= 1
            finally:
                server.close()


class TestMutationCrashWindows:
    def test_append_crash_mutation_is_never_lost(self, seed, tmp_path):
        """A worker dying right after the write-ahead append: the same
        apply() call finishes the mutation through recovery replay, and
        the result matches an undisturbed server byte for byte."""
        table = Table.from_dict(
            "crash_extra", {"cx_id": ["A1", "A2"], "label": ["red", "blue"]}
        )
        catalog = lake_copy(seed, tmp_path)
        twin_catalog = lake_copy(seed, tmp_path, "twin")

        with faults.inject(f"crash:after_journal_append@{tmp_path}/append-once"):
            server = LakeServer(catalog, backend="process", **FAST)
            try:
                server.add_table(table)
                assert server.backend.total_respawns >= 1
                gens = server.generations
                got = server.discover_batch(seed.queries)
            finally:
                server.close()

        twin = LakeServer(twin_catalog, backend="process")
        try:
            twin.add_table(table)
            assert twin.generations == gens
            expected = twin.discover_batch(seed.queries)
            assert_same_results(
                expected, got, seed.queries, "append-crash vs undisturbed"
            )

            # The journal tail replays the mutation on reboot too.
            rebooted = LakeServer(catalog, backend="process")
            try:
                assert rebooted.generations == twin.generations
                got = rebooted.discover_batch(seed.queries)
                assert_same_results(
                    expected, got, seed.queries, "append-crash reboot"
                )
            finally:
                rebooted.close()
        finally:
            twin.close()

    def test_mid_checkpoint_crash_keeps_the_journal(self, seed, tmp_path):
        """A crash between the staged full-state rewrite and the journal
        clear rolls the rewrite back; the journal survives, the retry
        lands, and the folded catalog reopens to parity."""
        catalog = lake_copy(seed, tmp_path)
        table = Table.from_dict(
            "ckpt_extra", {"ck_id": ["B1", "B2"], "label": ["one", "two"]}
        )
        with faults.inject(f"crash:mid_checkpoint@{tmp_path}/ckpt-once"):
            server = LakeServer(catalog, backend="process", **FAST)
            try:
                server.add_table(table)
                with pytest.raises(ShardUnavailable, match="mid-checkpoint"):
                    server.checkpoint()
                server.checkpoint()  # recovery replayed the tail: retry folds
                got = server.discover_batch(seed.queries)
            finally:
                server.close()

        reference = open_lake(lake_copy(seed, tmp_path, "ref"))
        try:
            reference.add_table(table)
            expected = reference.discover_batch(seed.queries)
            assert_same_results(
                expected, got, seed.queries, "post-checkpoint-crash serve"
            )
            reopened = open_lake(catalog)
            try:
                got = reopened.discover_batch(seed.queries)
                assert_same_results(
                    expected, got, seed.queries, "checkpoint-crash reopen"
                )
            finally:
                reopened.close()
        finally:
            reference.close()


class TestDegraded:
    def down_server(self, seed, tmp_path, **kwargs):
        """A server whose shard 1 is dead with recovery disabled."""
        server = LakeServer(
            lake_copy(seed, tmp_path), backend="process",
            max_respawns=0, **kwargs,
        )
        kill_worker(server, 1)
        return server

    def test_fail_mode_raises_shard_unavailable(self, seed, tmp_path):
        server = self.down_server(seed, tmp_path)
        try:
            with pytest.raises(ShardUnavailable, match="circuit open") as err:
                server.discover_batch(seed.queries)
            # Satellite guarantee: no bare transport error ever escapes
            # the discovery surface.
            assert not isinstance(err.value, (EOFError, OSError))
        finally:
            server.close()

    def test_partial_mode_serves_the_live_shards(self, seed, tmp_path):
        server = self.down_server(seed, tmp_path, degraded="partial")
        try:
            results = server.discover_batch(seed.queries)
            stats = server.last_stats
            assert stats.degraded_shards == [1]
            assert len(results) == len(seed.queries)
            # The live shard still contributes real partials.
            assert any(result.items for result in results)
            # Partial results are served, never cached: a second pass
            # reports the same degradation instead of a stale hit.
            server.discover_batch(seed.queries)
            assert server.last_stats.degraded_shards == [1]
        finally:
            server.close()

    def test_partials_from_a_degraded_gather_do_not_outlive_the_outage(
        self, seed, tmp_path
    ):
        """A healthy shard's follow-up computed from an incomplete gather
        (links against a partial key list, phase-2 union over partial
        phase-1 evidence, join probes for sketches that never arrived)
        must not be cached: the down shard recovers to its reconciled
        generation, so the vector — and with it every full-scope key —
        is the same before and after the outage."""
        server = LakeServer(
            lake_copy(seed, tmp_path), backend="process",
            degraded="partial", max_respawns=1, **FAST,
        )
        try:
            picked = [
                (query, want)
                for query, want in zip(seed.queries, seed.expected)
                if want.operation in ("pkfk", "unionable", "joinable")
            ]
            queries = [query for query, _ in picked]
            expected = [want for _, want in picked]
            vector = server.generations

            faults.install("crash:boot")  # every respawn dies at boot
            try:
                kill_worker(server, 1)
                degraded = server.discover_batch(queries)
                assert server.last_stats.degraded_shards == [1]
                assert len(degraded) == len(queries)
            finally:
                faults.clear()

            server.reset_shard(1)
            got = server.discover_batch(queries)
            assert server.last_stats.degraded_shards == []
            assert server.backend.total_respawns == 1
            assert server.generations == vector
            assert_same_results(expected, got, queries, "after the outage")
            # ...and the recovered answers are what stays cached.
            again = server.discover_batch(queries)
            assert server.last_stats.shard_round_trips == {}
            assert_same_results(expected, again, queries, "warm after outage")
        finally:
            server.close()

    @pytest.mark.parametrize("degraded", ["fail", "partial"])
    def test_failed_launch_is_a_failed_respawn(
        self, seed, tmp_path, monkeypatch, degraded
    ):
        """A respawn whose launch itself fails (here: the front-end is
        out of descriptors) backs off, trips the breaker and ends in
        ``ShardUnavailable`` — which ``partial`` degrades — instead of
        escaping as a bare ``OSError``."""
        server = LakeServer(
            lake_copy(seed, tmp_path), backend="process",
            degraded=degraded, cache=False, **FAST,
        )
        try:
            kill_worker(server, 1)

            def out_of_descriptors(*args, **kwargs):
                raise OSError(errno.EMFILE, "Too many open files")

            monkeypatch.setattr(socket, "socketpair", out_of_descriptors)
            query = seed.queries[0]
            if degraded == "fail":
                with pytest.raises(ShardUnavailable, match="circuit open"):
                    server.discover(query)
            else:
                server.discover(query)
                assert server.last_stats.degraded_shards == [1]
            monkeypatch.undo()
            assert server.backend.supervisor.tripped(1)
            server.reset_shard(1)
            got = server.discover_batch(seed.queries)
            assert_same_results(seed.expected, got, seed.queries, "relaunched")
            assert server.last_stats.degraded_shards == []
        finally:
            server.close()

    def test_mutations_never_degrade(self, seed, tmp_path):
        server = self.down_server(seed, tmp_path, degraded="partial")
        try:
            router = server.backend.router

            def table_owned_by(shard: int) -> str:
                i = 0
                while True:
                    name = f"degraded_extra_{i}"
                    if router.shard_of(name) == shard:
                        return name
                    i += 1

            dead = Table.from_dict(table_owned_by(1), {"x": [1, 2]})
            with pytest.raises(ShardUnavailable, match="circuit open"):
                server.add_table(dead)
            live_name = table_owned_by(0)
            server.add_table(Table.from_dict(live_name, {"x": [1, 2]}))
            assert live_name in server.backend.catalog.table_columns
        finally:
            server.close()


class TestCircuitBreaker:
    def test_circuit_opens_then_reset_rearms(self, seed, tmp_path):
        server = LakeServer(
            lake_copy(seed, tmp_path), backend="process",
            max_respawns=2, cache=False, **FAST,
        )
        try:
            query = Q.content_search("rate change", k=5)
            baseline = server.discover(query)

            faults.install("crash:boot")  # every respawn dies at boot
            try:
                kill_worker(server, 0)
                with pytest.raises(ShardUnavailable, match="circuit open"):
                    server.discover(query)
            finally:
                faults.clear()
            assert server.backend.supervisor.failures[0] >= 2

            # Cleared faults alone don't close the circuit…
            with pytest.raises(ShardUnavailable, match="reset_shard"):
                server.discover(query)
            # …an explicit reset does.
            server.reset_shard(0)
            assert server.discover(query).items == baseline.items
            assert server.backend.total_respawns >= 1
        finally:
            server.close()


class TestSupervisorUnits:
    def test_backoff_doubles_and_caps(self):
        delays: list[float] = []
        supervisor = WorkerSupervisor(
            max_respawns=3, backoff_base=0.1, backoff_cap=0.25,
            sleep=delays.append,
        )
        supervisor.backoff(0)
        assert delays == []  # no failures yet: no sleep
        for _ in range(3):
            supervisor.note_failure(0)
            supervisor.backoff(0)
        assert delays == [0.1, 0.2, 0.25]
        assert supervisor.tripped(0)
        supervisor.note_ok(0)
        assert not supervisor.tripped(0)
        supervisor.note_respawn(0)
        supervisor.note_respawn(0)
        assert supervisor.respawns[0] == 2

    def test_zero_max_respawns_means_recovery_disabled(self):
        supervisor = WorkerSupervisor(max_respawns=0)
        assert supervisor.tripped(7)


class TestHeartbeat:
    def test_ping_tracks_liveness(self, seed, tmp_path):
        server = LakeServer(lake_copy(seed, tmp_path), backend="process")
        try:
            workers = server.backend.workers
            assert all(worker.ping() for worker in workers)
            kill_worker(server, 0)
            assert workers[0].ping() is False
        finally:
            server.close()

    def test_ping_answers_while_the_serve_loop_is_busy(self, seed, tmp_path):
        """A hung worker is distinguishable from a dead one: the request
        pipe stalls but the heartbeat thread keeps answering."""
        query = seed.queries[0]
        with faults.inject(f"delay:keyword:2@{tmp_path}/busy-once"):
            server = LakeServer(lake_copy(seed, tmp_path), backend="process")
            try:
                box: dict = {}
                reader = threading.Thread(
                    target=lambda: box.update(result=server.discover(query))
                )
                reader.start()
                try:
                    assert all(
                        worker.ping(timeout=1.5)
                        for worker in server.backend.workers
                    )
                finally:
                    reader.join(timeout=30)
                assert not reader.is_alive()
                assert box["result"].items == seed.expected[0].items
            finally:
                server.close()


class TestCatalogIntegrity:
    def test_truncated_shard_file_fails_boot_with_the_path(
        self, seed, tmp_path
    ):
        catalog = lake_copy(seed, tmp_path)
        shard_file = catalog / "shard-0000.sqlite"
        data = shard_file.read_bytes()
        shard_file.write_bytes(data[: len(data) // 3])
        for suffix in ("-wal", "-shm"):
            sidecar = shard_file.with_name(shard_file.name + suffix)
            sidecar.unlink(missing_ok=True)
        with pytest.raises(RemoteShardError) as err:
            LakeServer(catalog, backend="process")
        assert "CatalogCorrupt" in str(err.value)
        assert "shard-0000.sqlite" in str(err.value)

    def test_schema_version_mismatch_is_catalog_corrupt(self, seed, tmp_path):
        catalog = lake_copy(seed, tmp_path)
        shard_file = catalog / "shard-0000.sqlite"
        db = ShardStore(shard_file)
        db.put_meta("schema_version", "99")
        db.commit()
        db.close()
        with pytest.raises(CatalogCorrupt, match="schema version"):
            ShardStore(shard_file)
        assert issubclass(CatalogCorrupt, ValueError)

    def test_quick_check_passes_on_a_healthy_shard(self, seed, tmp_path):
        db = ShardStore(lake_copy(seed, tmp_path) / "shard-0001.sqlite")
        try:
            db.integrity_check()
        finally:
            db.close()

    def test_quick_check_flags_a_torn_shard(self, seed, tmp_path):
        catalog = lake_copy(seed, tmp_path)
        shard_file = catalog / "shard-0000.sqlite"
        data = bytearray(shard_file.read_bytes())
        # Tear a page in the middle; the header stays valid so the file
        # still opens and the quick_check gate is what must catch it.
        start = len(data) // 2
        data[start : start + 4096] = b"\xde\xad\xbe\xef" * 1024
        shard_file.write_bytes(bytes(data))
        # Depending on where the tear lands, either the open-time meta
        # read or the quick_check gate trips — both are CatalogCorrupt.
        with pytest.raises(CatalogCorrupt) as err:
            db = ShardStore(shard_file)
            db.integrity_check()
        assert "shard-0000.sqlite" in str(err.value)


class TestShutdownTolerance:
    def test_server_close_survives_dead_children(self, seed, tmp_path):
        server = LakeServer(lake_copy(seed, tmp_path), backend="process")
        for shard in range(server.num_shards):
            kill_worker(server, shard)
        server.close()
        server.close()  # idempotent

    def test_worker_close_and_kill_are_idempotent(self, seed, tmp_path):
        catalog = lake_copy(seed, tmp_path)
        worker = ShardWorker(catalog / "shard-0000.sqlite", index=0)
        worker.wait_ready(timeout=30)
        worker.proc.kill()
        worker.proc.wait()
        worker.close()  # child already dead: must not raise
        worker.close()
        worker.kill()


class TestFaultSpecs:
    def test_spec_is_read_at_launch_not_at_boot(self, seed, tmp_path):
        """A spec armed after the server booted reaches the next worker
        launched, and a cleared spec stops reaching the ones after it."""
        server = LakeServer(
            lake_copy(seed, tmp_path), backend="process", cache=False, **FAST
        )
        marker = tmp_path / "boot-crash"
        try:
            with faults.inject(f"crash:boot@{marker}"):
                kill_worker(server, 0)
                got = server.discover_batch(seed.queries)
            assert marker.exists(), "the respawned worker ignored the spec"
            assert server.backend.supervisor.respawns[0] == 1
            assert_same_results(seed.expected, got, seed.queries, "armed")

            marker.unlink()
            kill_worker(server, 0)
            got = server.discover_batch(seed.queries)
            assert not marker.exists(), "a cleared spec still fired"
            assert server.backend.supervisor.respawns[0] == 2
            assert_same_results(seed.expected, got, seed.queries, "cleared")
        finally:
            server.close()

    def test_parse_round_trips_the_grammar(self):
        parsed = faults.parse(
            "crash:boot;delay:keyword:1.5;mid_frame:batch@/tmp/m;corrupt:keyword"
        )
        assert [fault.kind for fault in parsed] == [
            "crash", "delay", "mid_frame", "corrupt"
        ]
        assert parsed[1].seconds == 1.5
        assert parsed[2].marker == "/tmp/m"
        assert parsed[3].marker is None

    @pytest.mark.parametrize("bad", [
        "explode:boot", "crash:nowhere", "delay:keyword", "mid_frame",
    ])
    def test_bad_specs_are_rejected_in_the_parent(self, bad):
        with pytest.raises(ValueError):
            faults.install(bad)

    def test_batch_sub_ops_match(self):
        plan = faults.FaultPlan([faults.Fault("delay", "keyword", 0.0)])
        assert plan.reply_action(
            "batch", {"ops": [("keyword", {"k": 5})]}
        ) is None  # the zero-second delay fired (and returned None)
        assert plan.reply_action("batch", {"ops": [("pk_entries", {})]}) is None
        fault = faults.FaultPlan([faults.Fault("corrupt", "keyword")])
        assert fault.reply_action(
            "batch", {"ops": [("keyword", {"k": 5})]}
        ) is not None
