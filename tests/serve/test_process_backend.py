"""Process-backed LakeServer: one worker process per shard.

The acceptance bar of the serving tentpole: with the hashing embedder, a
process-backed server over a saved catalog returns byte-identical top-k
to the in-process ShardedLakeSession for all six primitives on all three
seed lakes — cold (fresh boot via the catalog-reopen path) and after
interleaved mutations applied through the server's RPC writer path
(including the corpus-wide df ripple that document churn triggers).
"""

from __future__ import annotations

import gc
import os
import shutil
import sqlite3
import time
from contextlib import closing

import pytest

from repro.core.session import open_lake
from repro.core.srql import Q
from repro.relational.table import Table
from repro.serve import LakeServer, ShardUnavailable, faults
from repro.store import ShardStore

from tests.serve.conftest import (
    assert_same_results,
    copy_lake,
    mutation_args,
    mutation_script,
    parity_config,
    workload,
)

LAKES = ("pharma", "ukopen", "mlopen")


def saved_session(lake, path, shards: int = 2):
    """Fit + save a sharded session, then unbind its store so the process
    server is the catalog's only writer. The session object stays usable
    in memory as the parity reference."""
    session = open_lake(copy_lake(lake), parity_config(), shards=shards)
    session.save(path)
    session.close()
    return session


def wait_exit(procs, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(p.poll() is not None for p in procs):
            return True
        time.sleep(0.05)
    return False


def pid_exists(pid: int) -> bool:
    """Whether ``pid`` is still a process — running or an unreaped zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def parity_case(lake, tmp_path, shards: int) -> None:
    reference = saved_session(lake, tmp_path / "lake", shards=shards)
    server = LakeServer(tmp_path / "lake", backend="process")
    try:
        assert server.num_shards == shards
        queries = workload(reference)
        expected = reference.discover_batch(queries)
        got = server.discover_batch(queries)
        assert_same_results(
            expected, got, queries, f"{lake.name} shards={shards} cold"
        )

        mutation = mutation_args(reference)
        mutation_script(reference, *mutation)
        mutation_script(server, *mutation)

        queries = workload(reference)
        expected = reference.discover_batch(queries)
        got = server.discover_batch(queries)
        assert_same_results(
            expected, got, queries, f"{lake.name} shards={shards} mutated"
        )
    finally:
        server.close()


class TestProcessParity:
    @pytest.mark.parametrize("name", LAKES)
    def test_two_shards_cold_and_mutated(self, seed_lakes, name, tmp_path):
        parity_case(seed_lakes[name], tmp_path, shards=2)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", LAKES)
    def test_four_shards_cold_and_mutated(self, seed_lakes, name, tmp_path):
        parity_case(seed_lakes[name], tmp_path, shards=4)

    def test_checkpoint_keeps_catalog_reopenable(self, seed_lakes, tmp_path):
        """After mutating and checkpointing through the server, the same
        directory reopens in-process with the mutations folded in."""
        reference = saved_session(seed_lakes["pharma"], tmp_path / "lake")
        server = LakeServer(tmp_path / "lake", backend="process")
        try:
            mutation = mutation_args(reference)
            mutation_script(reference, *mutation)
            mutation_script(server, *mutation)
            server.checkpoint()
        finally:
            server.close()

        reopened = open_lake(tmp_path / "lake")
        try:
            queries = workload(reference)
            expected = reference.discover_batch(queries)
            got = reopened.discover_batch(queries)
            assert_same_results(expected, got, queries, "reopen after serve")
        finally:
            reopened.close()


class TestJournalReplay:
    def test_unsaved_mutations_replay_on_reboot(self, seed_lakes, tmp_path):
        """Mutations applied through the server but never checkpointed
        live in the shard journals; a rebooted server replays them."""
        reference = saved_session(seed_lakes["pharma"], tmp_path / "lake")
        queries = workload(reference)

        server = LakeServer(tmp_path / "lake", backend="process")
        try:
            mutation = mutation_args(reference)
            mutation_script(reference, *mutation)
            mutation_script(server, *mutation)
            expected = server.discover_batch(queries)
            generations = server.generations
        finally:
            server.close()  # no checkpoint: the journal tail stays

        rebooted = LakeServer(tmp_path / "lake", backend="process")
        try:
            got = rebooted.discover_batch(queries)
            assert_same_results(expected, got, queries, "journal replay")
            want = reference.discover_batch(queries)
            assert_same_results(want, got, queries, "replay vs reference")
        finally:
            rebooted.close()


#: Row key column of each audited table of a shard file.
_AUDITED = {"state": "section", "arrays": "section",
            "lake_tables": "name", "lake_documents": "doc_id",
            "sketches": "de_id"}


def _audit(path) -> None:
    """Triggers that log every row a writer inserts, updates or deletes
    in ``path`` — they fire inside the shard worker's own connection."""
    with closing(sqlite3.connect(path)) as conn:
        conn.execute("CREATE TABLE audit (tbl TEXT, key TEXT)")
        for table, key in _AUDITED.items():
            for event, row in (("INSERT", "NEW"), ("UPDATE", "NEW"),
                               ("DELETE", "OLD")):
                conn.execute(
                    f"CREATE TRIGGER audit_{table}_{event} AFTER {event} "
                    f"ON {table} BEGIN INSERT INTO audit "
                    f"VALUES ('{table}', {row}.{key}); END"
                )
        conn.commit()


def _audited(path) -> set[tuple[str, str]]:
    with closing(sqlite3.connect(path)) as conn:
        return set(conn.execute("SELECT tbl, key FROM audit"))


class TestCheckpoint:
    def test_table_checkpoint_leaves_document_sections_untouched(
            self, seed_lakes, tmp_path):
        """A worker checkpoints a delta, not its whole shard: after one
        table mutation no document row, sketch or section is rewritten."""
        reference = saved_session(seed_lakes["pharma"], tmp_path / "lake")
        files = sorted((tmp_path / "lake").glob("shard-*.sqlite"))
        for file in files:
            _audit(file)
        server = LakeServer(tmp_path / "lake", backend="process")
        try:
            server.add_table(Table.from_dict("audit_extra", {
                "audit_id": ["A1", "A2", "A3"], "label": ["x", "y", "z"],
            }))
            server.checkpoint()
        finally:
            server.close()
        owner = files[reference.router.shard_of("audit_extra")]
        for file in files:
            touched = _audited(file)
            sections = {key for tbl, key in touched if tbl == "state"}
            assert not {key for key in sections if key.startswith("index:doc_")}
            assert not {key for tbl, key in touched if tbl == "lake_documents"}
            if file == owner:
                assert ("lake_tables", "audit_extra") in touched
                assert "index:column_schema" in sections
                assert {key for tbl, key in touched if tbl == "sketches"} \
                    == {"audit_extra.audit_id", "audit_extra.label"}
            else:
                assert not {key for tbl, key in touched if tbl == "sketches"}
                assert not {key for key in sections
                            if key.startswith("index:column_")}

    def test_auto_checkpoint_bounds_worker_journals(self, seed_lakes, tmp_path):
        """The server folds its workers' journals every ``checkpoint_every``
        mutations of the catalog, as a bound session does."""
        reference = open_lake(copy_lake(seed_lakes["pharma"]), parity_config(),
                              shards=2)
        path = reference.save(tmp_path / "lake")
        reference._store.checkpoint_every = 3
        reference.save()  # the manifest now carries the bound
        reference.close()
        files = sorted(path.glob("shard-*.sqlite"))
        server = LakeServer(path, backend="process")
        try:
            for i in range(7):
                table = Table.from_dict(f"auto_{i}", {
                    "auto_id": [f"K{i}", f"L{i}"], "note": ["p", "q"],
                })
                server.add_table(table)
                reference.add_table(table)
                for file in files:
                    with closing(ShardStore(file)) as db:
                        assert len(db.journal_entries()) < 3
        finally:
            server.close()
        reopened = open_lake(path)
        try:
            queries = workload(reference)
            assert_same_results(reference.discover_batch(queries),
                                reopened.discover_batch(queries), queries,
                                "reopen after auto-checkpoints")
        finally:
            reopened.close()


class TestCrashWindow:
    def test_kill_between_append_and_apply_replays_on_reboot(
        self, seed_lakes, tmp_path
    ):
        """The write-ahead window: a worker killed after the journal
        append committed but before the op applied. With recovery
        disabled the mutation fails in-flight — but the journaled record
        is durable, so a reboot replays it to the exact generation an
        undisturbed server reaches."""
        reference = saved_session(seed_lakes["pharma"], tmp_path / "lake")
        shutil.copytree(tmp_path / "lake", tmp_path / "twin")
        table = Table.from_dict(
            "window_extra", {"wx_id": ["W1", "W2"], "label": ["up", "down"]}
        )
        marker = tmp_path / "append-crash"
        with faults.inject(f"crash:after_journal_append@{marker}"):
            server = LakeServer(
                tmp_path / "lake", backend="process", max_respawns=0
            )
            try:
                with pytest.raises(ShardUnavailable):
                    server.add_table(table)
            finally:
                server.close()
        assert marker.exists(), "the injected crash never fired"

        twin = LakeServer(tmp_path / "twin", backend="process")
        rebooted = LakeServer(tmp_path / "lake", backend="process")
        try:
            twin.add_table(table)
            assert "window_extra" in rebooted.backend.catalog.table_columns
            assert rebooted.generations == twin.generations
            reference.add_table(table)
            queries = workload(reference)
            expected = twin.discover_batch(queries)
            got = rebooted.discover_batch(queries)
            assert_same_results(
                expected, got, queries, "crash-window reboot vs undisturbed"
            )
            want = reference.discover_batch(queries)
            assert_same_results(
                want, got, queries, "crash-window reboot vs reference"
            )
        finally:
            twin.close()
            rebooted.close()


class TestWorkerLifecycle:
    def test_close_shuts_workers_down(self, seed_lakes, tmp_path):
        saved_session(seed_lakes["pharma"], tmp_path / "lake")
        server = LakeServer(tmp_path / "lake", backend="process")
        procs = [worker.proc for worker in server.backend.workers]
        assert len(procs) == 2
        assert all(p.poll() is None for p in procs)
        server.close()
        assert wait_exit(procs), "workers still alive after close()"
        server.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            server.discover(Q.content_search("rate", k=3))

    def test_gc_reaps_abandoned_workers(self, seed_lakes, tmp_path):
        saved_session(seed_lakes["pharma"], tmp_path / "lake")
        server = LakeServer(tmp_path / "lake", backend="process")
        procs = [worker.proc for worker in server.backend.workers]
        del server
        gc.collect()
        assert wait_exit(procs), "workers leaked after the server was GC'd"

    @pytest.mark.parametrize("shutdown", ["close", "gc"])
    def test_no_worker_or_zygote_outlives_the_server(
        self, seed_lakes, tmp_path, shutdown
    ):
        """Every worker is forked by the server's one zygote, which reaps
        them and is itself waited for — nothing is left running and no
        zombie is left behind. Only pids and the zygote's own process
        handle are kept here: a worker handle would keep its zygote's
        handle (and so the GC wait) alive."""
        saved_session(seed_lakes["pharma"], tmp_path / "lake")
        server = LakeServer(tmp_path / "lake", backend="process")
        zygote = server.backend.zygote.proc
        pids = [worker.proc.pid for worker in server.backend.workers]
        assert zygote.poll() is None and all(map(pid_exists, pids))
        if shutdown == "close":
            server.close()
        else:
            del server
            gc.collect()
        assert zygote.poll() is not None, "zygote still running"
        assert not any(map(pid_exists, pids)), "a worker outlived its zygote"

    def test_killed_zygote_is_relaunched_by_the_next_respawn(
        self, seed_lakes, tmp_path
    ):
        reference = saved_session(seed_lakes["pharma"], tmp_path / "lake")
        queries = workload(reference)
        expected = reference.discover_batch(queries)
        server = LakeServer(tmp_path / "lake", backend="process", cache=False)
        try:
            first = server.backend.zygote
            assert all(w.boot_s > 0 for w in server.backend.workers)
            first.proc.kill()
            first.proc.wait()
            # The workers it forked keep serving without their launcher.
            got = server.discover_batch(queries)
            assert_same_results(expected, got, queries, "zygote killed")
            assert server.backend.total_respawns == 0

            victim = server.backend.workers[0]
            victim.proc.kill()
            victim.proc.wait()
            got = server.discover_batch(queries)
            assert_same_results(expected, got, queries, "respawn, new zygote")
            assert server.backend.total_respawns == 1
            assert server.backend.zygote is not first
            assert server.backend.zygote.proc.poll() is None
            fresh = server.backend.workers[0]
            assert fresh.proc.pid != victim.proc.pid and fresh.boot_s > 0
        finally:
            server.close()

    def test_serve_contract_on_sessions(self, seed_lakes, tmp_path):
        """``session.serve(backend='process')`` hands the catalog over:
        the session closes, the server becomes the sole writer."""
        session = open_lake(
            copy_lake(seed_lakes["pharma"]), parity_config(), shards=2
        )
        # Unsaved sessions cannot be process-served.
        with pytest.raises(ValueError, match="save"):
            session.serve(backend="process")

        session.save(tmp_path / "lake")
        queries = workload(session)
        expected = session.discover_batch(queries)
        server = session.serve(backend="process")
        try:
            assert session._store is None  # handed over
            got = server.discover_batch(queries)
            assert_same_results(expected, got, queries, "session.serve")
        finally:
            server.close()


class TestMutationSurface:
    def test_validation_errors_match_the_session(self, seed_lakes, tmp_path):
        reference = saved_session(seed_lakes["pharma"], tmp_path / "lake")
        server = LakeServer(tmp_path / "lake", backend="process")
        try:
            ghost = Table.from_dict("ghost", {"x": [1]})
            with pytest.raises(KeyError) as server_err:
                server.update_table(ghost)
            with pytest.raises(KeyError) as session_err:
                reference.update_table(ghost)
            assert str(server_err.value) == str(session_err.value)

            with pytest.raises(KeyError) as server_err:
                server.remove("no_such_thing")
            with pytest.raises(KeyError) as session_err:
                reference.remove("no_such_thing")
            assert str(server_err.value) == str(session_err.value)

            # A failed mutation leaves no journal residue: a reboot sees
            # the same lake.
            generations = server.generations
            server.close()
            rebooted = LakeServer(tmp_path / "lake", backend="process")
            try:
                assert rebooted.generations == generations
            finally:
                rebooted.close()
        finally:
            server.close()

    def test_refresh_and_rebalance_are_rejected(self, seed_lakes, tmp_path):
        saved_session(seed_lakes["pharma"], tmp_path / "lake")
        server = LakeServer(tmp_path / "lake", backend="process")
        try:
            with pytest.raises(NotImplementedError, match="open_lake"):
                server.backend.apply("refresh", {})
            with pytest.raises(NotImplementedError, match="open_lake"):
                server.backend.apply("rebalance", {})
        finally:
            server.close()

    def test_missing_catalog_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="catalog.sqlite"):
            LakeServer(tmp_path / "nowhere", backend="process")


@pytest.mark.parametrize("front", ["unbound", "bound", "thread", "process"])
@pytest.mark.parametrize("shards", [None, 2], ids=["monolithic", "sharded"])
def test_empty_document_batch_is_a_noop(seed_lakes, tmp_path, shards, front):
    """``add_documents([])`` journals nothing and bumps no generation —
    on a session with or without a bound catalog, and through both
    server backends (routing used to index ``documents[0]``)."""
    kwargs = {"shards": shards} if shards else {}
    session = open_lake(copy_lake(seed_lakes["pharma"]), parity_config(), **kwargs)
    target = session
    if front != "unbound":
        session.save(tmp_path / "lake")
    if front == "thread":
        target = LakeServer(session)
    elif front == "process":
        target = session.serve(backend="process")
    try:
        generation = target.generation
        target.add_documents([])
        assert target.generation == generation
        if front in ("bound", "thread"):
            assert session._store.pending_journal() == 0
    finally:
        target.close()
        session.close()
    if front != "unbound":
        with open_lake(tmp_path / "lake") as reopened:
            assert reopened.generation == generation
