"""`LakeServer`: concurrent discovery over thread- or process-hosted shards.

The server splits the two roles a session interleaves — mutation and
discovery — the way the HTAP systems in PAPERS.md isolate update
propagation from analytics (Polynesia, arXiv:2103.00798):

* **generation-pinned snapshot reads** — a query acquires the read side of
  one server-wide reader/writer lock, captures the per-shard generation
  vector, and plans *and* executes against exactly that vector. Mutations
  take the write side, so a query in flight always completes against the
  snapshot it planned under (zero torn reads), and a mutation commits to
  the next generation only once no reader can observe it mid-apply;
* **a single writer path per shard** — all mutations funnel through the
  write lock, so each shard's journal records a single totally-ordered
  history (seq allocation and the write-ahead append can never interleave
  between two writers);
* **the plan-level result cache** — per-shard partials keyed by
  ``(plan node, generation scope)``; see :mod:`repro.serve.cache`.

Two shard backends are the transports of the one scatter-gather executor
(:mod:`repro.core.scatter`), which they share with the in-process
sharded session:

* ``backend="thread"`` wraps a *live* session (monolithic or sharded)
  in-process — no serialisation cost, but every shard still shares the
  caller's GIL;
* ``backend="process"`` serves a *saved catalog* with one worker process
  per shard (:mod:`repro.serve.worker`) — per-shard CPU parallelism, RPC
  framing cost per round-trip. A sharded lake's corpus-wide statistics
  are kept coherent by snapshot exchange: after every mutation the
  front-end re-collects the changed shards' df/N statistics and
  re-installs merged :class:`CorpusStatsGroup` views on every worker.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from threading import Condition, Lock

from repro.core.discovery import DiscoveryEngine, DiscoveryResultSet
from repro.core.mutation import (
    MutationPlan,
    apply_mutation,
    journal_shard,
    plan_mutation,
)
from repro.core.scatter import (
    DirectTransport,
    MergedCatalog,
    ScatterGatherExecutor,
    ShardHost,
)
from repro.core.session import LakeSession
from repro.core.sharding import STATS_FAMILIES, ShardedLakeSession, ShardRouter
from repro.core.srql.executor import ExecutionStats
from repro.core.srql.planner import Planner
from repro.serve.cache import DEFAULT_ENTRIES, ResultCache
from repro.serve.rpc import (
    FrameCorrupt,
    RemoteShardError,
    RPCError,
    ShardUnavailable,
    WorkerCrashed,
    WorkerTimeout,
)
from repro.serve.worker import ShardWorker, WorkerSupervisor, Zygote
from repro.store.catalog import read_manifest
from repro.store.shard import ShardStore


class _RWLock:
    """Reader/writer lock with writer preference.

    Readers run concurrently; a waiting writer blocks *new* readers (no
    writer starvation) but never interrupts readers already inside — the
    mechanism behind the snapshot guarantee: in-flight queries finish
    against their pinned generations before any mutation applies.
    """

    def __init__(self):
        self._cond = Condition(Lock())
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


# ------------------------------------------------------------ thread backend


#: Transport failures that mean "the worker is gone or can't be trusted"
#: — the supervisor's trigger set (application errors inside a healthy
#: worker stay RemoteShardError and are never retried or respawned on).
_WORKER_DOWN = (WorkerCrashed, WorkerTimeout, FrameCorrupt)


class ThreadBackend(DirectTransport):
    """Shards served from a live session in the caller's process.

    A sharded session's own hosts and catalog are served in place (the
    server and the session read through the same :class:`ShardHost`
    objects); a monolithic session is hosted as one shard. There is
    nothing to supervise: in-process shards cannot crash independently
    of the caller.
    """

    supervisor = None

    def __init__(self, session, owned: bool = False):
        self.session = session
        self.owned = owned
        if isinstance(session, ShardedLakeSession):
            self.router = session.router
            self.hosts = session.hosts
            self.catalog = session.catalog
            self.name = session.name
            config = session.config
        else:
            self.router = ShardRouter(1)
            self.hosts = [ShardHost(session)]
            self.catalog = MergedCatalog(self.hosts)
            self.name = session.lake.name
            config = session.cmdl.config
        self.num_shards = len(self.hosts)
        self.default_strategy = config.discovery_strategy
        self.operator_strategies = config.operator_strategies

    def generations(self) -> dict[int, int]:
        return {i: host.generation for i, host in enumerate(self.hosts)}

    def apply(self, op: str, payload: dict) -> None:
        """Mutations run through the wrapped session's own mutators: the
        session plans, journals and routes them."""
        apply_mutation(self.session, op, payload)

    def checkpoint(self) -> None:
        if self.session._store is not None:
            self.session._store.checkpoint()

    def close(self) -> None:
        if self.owned:
            self.session.close()


# ----------------------------------------------------------- process backend


class _ShardView:
    """Front-end copy of one worker's planning catalog (lite): the shard
    view :class:`~repro.core.scatter.MergedCatalog` merges."""

    def __init__(self, lite: dict):
        self.update(lite)

    def update(self, lite: dict) -> None:
        self.generation = lite["generation"]
        self.table_columns = lite["table_columns"]
        self.columns = lite["columns"]
        self.documents = dict.fromkeys(lite["documents"])


class ProcessBackend:
    """Shards served by one worker process each, from a saved catalog.

    Every worker — at boot and at each respawn — is forked from the
    backend's one :class:`~repro.serve.worker.Zygote`, which has the
    worker code imported already; :meth:`close` (or GC) closes the
    workers and then waits for the zygote.

    Mutations are planned by :func:`~repro.core.mutation.plan_mutation`
    against the front-end's shard views — the plan an in-process
    :class:`~repro.core.sharding.ShardedLakeSession` runs — and executed
    here with the write-ahead journal append, crash resume and inline
    recovery around each step (:meth:`apply`).

    Failure handling, per layer:

    * every worker call carries ``request_timeout``; any transport
      failure marks the worker broken and surfaces as one of
      ``_WORKER_DOWN`` (:class:`WorkerCrashed` / :class:`WorkerTimeout`
      / :class:`FrameCorrupt`);
    * :meth:`_recover` respawns a broken worker through the
      catalog-reopen path — the child replays its own journal tail back
      to the exact pre-crash state — then reconciles the front-end
      (re-pin the df filter, resync sketches, advance the generation to
      at least the recorded one, re-push corpus stats, drop the shard's
      cache partials via ``on_respawn``). :class:`WorkerSupervisor`
      paces attempts (capped exponential backoff) and opens the circuit
      after ``max_respawns`` consecutive failures;
    * reads (:meth:`round_trip`) are idempotent and retry up to
      ``read_retries`` times on a respawned worker, pinned to the
      batch's snapshot generation — if recovery moved the shard past the
      pinned generation the batch gets :class:`ShardUnavailable` rather
      than a torn read;
    * mutations are never blindly retried (replay would double-apply).
      The write-ahead journal append is the commit point: a crash after
      it leaves a durable record that recovery replays — the mutation
      is delayed, never lost — while a crash before it leaves nothing
      applied and the caller may safely retry.
    """

    def __init__(
        self,
        path: str | Path,
        request_timeout: float | None = 30.0,
        read_retries: int = 1,
        max_respawns: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        path = Path(path)
        if not (path / "catalog.sqlite").exists():
            raise FileNotFoundError(
                f"{path} is not a saved lake catalog (no catalog.sqlite); "
                "create one with session.save(path)"
            )
        self.path = path
        self.catalog_db = ShardStore(path / "catalog.sqlite")
        manifest = read_manifest(self.catalog_db)
        self.kind = manifest.kind
        self.num_shards = manifest.num_shards
        self.name = manifest.name
        self._seq = manifest.journal_seq
        self.checkpoint_every = manifest.checkpoint_every
        self.router = manifest.router
        self._top = manifest.top
        self._df_pipeline = manifest.df_pipeline
        self.request_timeout = request_timeout
        self.read_retries = read_retries
        self.supervisor = WorkerSupervisor(
            max_respawns=max_respawns,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
        )
        #: Monotonic supervision counters; executors snapshot deltas into
        #: :class:`~repro.core.srql.executor.ExecutionStats`.
        self.total_retries = 0
        self.total_respawns = 0
        #: Called with the shard index after every successful respawn —
        #: the server points it at ``ResultCache.drop_shard``.
        self.on_respawn = None
        #: Shards that crashed under a journaled mutation whose apply is
        #: unconfirmed: recovery must land strictly past the recorded
        #: generation so no cache key spans the crash.
        self._pending_crash: set[int] = set()
        self._recover_locks = [Lock() for _ in range(self.num_shards)]
        self._zygote_lock = Lock()
        self.zygote: Zygote | None = None
        self.workers: list[ShardWorker] = []
        self.views: list[_ShardView] = []
        self._doc_texts: dict[str, str] = {}
        #: Last collected per-shard corpus statistics.
        self._stat_snapshots: list = [None] * self.num_shards
        try:
            self.zygote = Zygote()
            self._boot()
        except BaseException:
            self.close()
            raise
        self.catalog = MergedCatalog(self.views)
        self.default_strategy = self._lites[0]["discovery_strategy"]
        self.operator_strategies = dict(self._lites[0]["operator_strategies"])
        self.union_candidate_k = self._lites[0]["union_candidate_k"]

    # --------------------------------------------------------------- boot

    def _spawn(self, shard: int) -> ShardWorker:
        """Fork a worker for ``shard``. A failed launch (the zygote died
        or stopped answering, descriptors ran out) relaunches the zygote
        once and retries; a second failure raises ``OSError``."""
        path = self.path / f"shard-{shard:04d}.sqlite"
        zygote = self.zygote
        try:
            return ShardWorker.forked(zygote, path, shard, self.request_timeout)
        except OSError:
            with self._zygote_lock:
                if self.zygote is zygote:  # not already replaced by a sibling
                    self.zygote = Zygote()
                    zygote.detach()
        return ShardWorker.forked(self.zygote, path, shard, self.request_timeout)

    def _boot(self) -> None:
        # Fork every worker first, then collect handshakes: the shard
        # restores (and journal-tail replays) run concurrently across the
        # children. Replay happens *inside* each worker — the recovery
        # path and the boot path are one code path.
        self.workers = [self._spawn(i) for i in range(self.num_shards)]
        readies = [w.wait_ready(timeout=self.request_timeout) for w in self.workers]
        self._lites = [w.call("catalog_lite") for w in self.workers]
        self.views = [_ShardView(lite) for lite in self._lites]
        self.gens = {i: view.generation for i, view in enumerate(self.views)}
        if self._ripples():
            for worker in self.workers:
                for doc_id, text in worker.call("doc_texts"):
                    self._doc_texts[doc_id] = text
            if any(ready.get("replayed") for ready in readies):
                # Replayed document churn may have shifted the corpus df
                # filter: re-pin it from the final corpus and re-sketch
                # whatever drifted (document bags depend only on the
                # final pinned filter, so pin-then-resync converges to
                # the undisturbed writer's state).
                self._pin_all()
                for i, worker in enumerate(self.workers):
                    response = worker.call("resync_documents")
                    self.gens[i] = response["generation"]
                    self.views[i].generation = response["generation"]
        self._push_stats(range(self.num_shards))
        self._seq = max(
            [self._seq] + [ready.get("journal_seq", 0) for ready in readies]
        )
        #: Journaled mutations since the last checkpoint (the replayed tail
        #: counts: it is still in the journals).
        self._pending = sum(ready["replayed"] for ready in readies)

    def _ripples(self) -> bool:
        """Whether document churn ripples across shards: a sharded lake
        pins every shard to its corpus-wide df filter."""
        return self.kind == "sharded"

    def _push_stats(self, fetch_shards) -> None:
        """Re-collect ``fetch_shards``' corpus statistics and re-install
        the merged view on every worker.

        The install fan-out skips broken workers: a dead sibling must
        not fail another shard's mutation or recovery — its own
        recovery re-installs the merged view (:meth:`_recouple`).
        """
        if self.num_shards == 1:
            return
        for i in fetch_shards:
            self._stat_snapshots[i] = self.workers[i].call("stats_snapshot")
        for i, worker in enumerate(self.workers):
            remote = {
                family: [
                    self._stat_snapshots[j][family]
                    for j in range(self.num_shards)
                    if j != i
                ]
                for family in STATS_FAMILIES
            }
            if not worker.usable:
                continue
            try:
                worker.call("install_stats", {"remote": remote})
            except _WORKER_DOWN:
                self.supervisor.note_failure(i)

    # ------------------------------------------------------------ queries

    def generations(self) -> dict[int, int]:
        return dict(self.gens)

    def round_trip(
        self, shard: int, ops: list, pinned_gen: int | None = None
    ) -> list:
        """One batched read round-trip, supervised.

        A worker failure triggers recovery and up to ``read_retries``
        re-sends — safe because every batched read is idempotent. The
        batch stays pinned to ``pinned_gen``: if recovery moved the
        shard to a different generation (a journaled mutation the crash
        had not yet acknowledged replayed during respawn), re-running
        the reads would tear the snapshot, so the shard is reported
        unavailable *for this batch* instead.
        """
        retries_left = self.read_retries
        while True:
            self._check_pin(shard, pinned_gen)
            worker = self.workers[shard]
            if not worker.usable:
                self._recover(shard)
                continue  # re-check the pin against the recovered state
            try:
                result = worker.call("batch", {"ops": list(ops)})
            except _WORKER_DOWN as exc:
                self.supervisor.note_failure(shard)
                if retries_left <= 0:
                    # Out of budget for this batch; still try to bring
                    # the shard back for the callers after us.
                    try:
                        self._recover(shard)
                    except ShardUnavailable:
                        pass
                    raise ShardUnavailable(
                        f"shard {shard} failed a read past its retry "
                        f"budget: {exc}"
                    ) from exc
                retries_left -= 1
                self.total_retries += 1
                self._recover(shard)
                continue
            self.supervisor.note_ok(shard)
            return result

    def _check_pin(self, shard: int, pinned_gen: int | None) -> None:
        if pinned_gen is not None and self.gens[shard] != pinned_gen:
            raise ShardUnavailable(
                f"shard {shard} moved to generation {self.gens[shard]} "
                f"during recovery; this batch pinned generation "
                f"{pinned_gen}"
            )

    # ----------------------------------------------------------- recovery

    def _recover(self, shard: int) -> ShardWorker:
        """Respawn a broken worker and reconcile it into the serving
        state; raises :class:`ShardUnavailable` when the circuit is open
        or every attempt failed."""
        with self._recover_locks[shard]:
            worker = self.workers[shard]
            if worker.usable:
                return worker  # another caller already recovered it
            last_error: Exception | None = None
            while True:
                if self.supervisor.tripped(shard):
                    raise ShardUnavailable(
                        f"shard {shard} is unavailable: circuit open "
                        f"after {self.supervisor.failures.get(shard, 0)} "
                        f"consecutive failures"
                        + (f" (last: {last_error})" if last_error else "")
                        + f"; server.reset_shard({shard}) re-arms it"
                    ) from last_error
                self.supervisor.backoff(shard)
                self.workers[shard].kill()
                try:
                    fresh = self._spawn(shard)
                except OSError as exc:
                    # Even a relaunched zygote could not fork it: a
                    # failed respawn like any other, never a bare OSError.
                    self.supervisor.note_failure(shard)
                    last_error = exc
                    continue
                try:
                    fresh.wait_ready(timeout=self.request_timeout)
                    self.workers[shard] = fresh
                    self._recouple(shard, fresh)
                except (RPCError, RemoteShardError) as exc:
                    fresh.kill()
                    self.supervisor.note_failure(shard)
                    last_error = exc
                    continue
                break
            self.total_respawns += 1
            self.supervisor.note_respawn(shard)
            self._pending_crash.discard(shard)
            if self.on_respawn is not None:
                self.on_respawn(shard)
            return fresh

    def _recouple(self, shard: int, fresh: ShardWorker) -> None:
        """Bring a freshly respawned worker (journal already self-replayed
        at boot) back into front-end state."""
        if self._ripples():
            # The persisted df filter predates the crash; re-pin the
            # current one and re-sketch whatever drifted under it.
            fresh.call("pin_filter", self._pin_payload())
            fresh.call("resync_documents")
        lite = fresh.call("catalog_lite")
        recorded = self.gens[shard]
        floor = recorded + 1 if shard in self._pending_crash else recorded
        if lite["generation"] < floor:
            # Sibling-resync bumps (and a mutation the worker died
            # under) are not in this shard's own journal, so the
            # recovered engine can come back behind the front-end's
            # recorded generation. Advance it: a (shard, generation)
            # cache key must never name two different states.
            lite["generation"] = fresh.call("bump_generation", {"to": floor})
        self.views[shard].update(lite)
        self.gens[shard] = lite["generation"]
        self._push_stats([shard])

    # ---------------------------------------------------------- mutations

    def _next_seq(self) -> int:
        self._seq += 1
        self.catalog_db.put_meta("journal_seq", str(self._seq))
        self.catalog_db.commit()
        return self._seq

    def apply(self, op: str, payload: dict) -> None:
        if op in ("refresh", "rebalance"):
            raise NotImplementedError(
                f"{op}() is not supported on a process-backed server: it "
                "refits or repartitions whole shards; reopen the catalog "
                "in-process (repro.open_lake(path)), run it there, save, "
                "and serve again"
            )
        # Planned (and validated) once, before anything is journaled or
        # shipped; crash resume below reuses the same plan.
        plan = plan_mutation(op, payload, self.router, self.views, self.name)
        if not self._ripples():
            plan = MutationPlan(plan.steps)  # the worker fits its own filter
        owner = journal_shard(op, payload, self.router)
        if not self.workers[owner].usable:
            # Writer-inline recovery: we hold the write lock, so no
            # reader can observe the generation moving under it.
            self._recover(owner)
        seq = self._next_seq()
        try:
            self.workers[owner].call(
                "journal_append", {"seq": seq, "op": op, "payload": payload}
            )
        except _WORKER_DOWN as exc:
            self.supervisor.note_failure(owner)
            self._pending_crash.add(owner)
            changed = self._resume_after_append_crash(
                op, plan, owner, seq, exc
            )
        else:
            try:
                changed = self._execute(plan)
            except ShardUnavailable:
                # A shard died mid-apply and could not be respawned. The
                # journaled record is durable and replays when the shard
                # recovers: the mutation is delayed, never lost.
                raise
            except BaseException:
                # Application-level failure (the worker rejected the op
                # with the shard healthy): the record must not replay.
                try:
                    self.workers[owner].call("journal_delete", {"seq": seq})
                except _WORKER_DOWN:
                    self.supervisor.note_failure(owner)
                    self._pending_crash.add(owner)
                raise
        self._push_stats(changed)
        self._pending += 1
        if self.checkpoint_every and self._pending >= self.checkpoint_every:
            try:
                self.checkpoint()
            except ShardUnavailable:
                # The mutation stands, durable in its journal; the fold is
                # retried after the next one.
                pass

    def _resume_after_append_crash(
        self, op: str, plan: MutationPlan, owner: int, seq: int,
        cause: Exception,
    ) -> set[int]:
        """The owner died during the write-ahead append: decide the
        mutation's fate from what recovery finds in its journal.

        Seq present — the append committed before the crash, so the
        respawned worker already replayed the owner's part; finish the
        cross-shard remainder and report success. Seq absent — nothing
        committed, nothing applied anywhere: fail cleanly and tell the
        caller a retry is safe. Never re-send the append itself: replay
        makes blind mutation retries double-applies.
        """
        self._recover(owner)  # ShardUnavailable (fate unknown) if it fails
        entries = self.workers[owner].call("journal_entries")
        if not any(entry[0] == seq for entry in entries):
            raise ShardUnavailable(
                f"shard {owner} crashed before journaling mutation "
                f"{op!r} (seq {seq}); nothing was applied — safe to retry"
            ) from cause
        return self._execute(plan, replayed={owner})

    def _execute(
        self, plan: MutationPlan, replayed: set | None = None
    ) -> set[int]:
        """Run one journaled mutation plan in its order, with recovery
        around each step; returns the shards whose generation changed.

        ``replayed`` holds the shards whose step already landed through
        crash-recovery journal replay: the step is skipped (a re-send
        would double-apply) and the sibling re-sync covers them, since
        their replay predates the current df filter. A step that crashes
        its worker recovers it inline (we hold the write lock) and joins
        ``replayed``; an unrecoverable shard raises
        :class:`ShardUnavailable` with the record durable in its journal.
        """
        replayed = set() if replayed is None else replayed
        if plan.corpus is not None:
            added, removed = plan.corpus
            self._doc_texts.update(added)
            for doc_id in removed:
                self._doc_texts.pop(doc_id, None)
            self._pin_all()
        for shard, op, payload in plan.steps:
            if shard in replayed:
                continue
            try:
                response = self.workers[shard].call(op, payload)
            except _WORKER_DOWN:
                self.supervisor.note_failure(shard)
                self._pending_crash.add(shard)
                self._recover(shard)  # boot replay applies the journal slice
                replayed.add(shard)
            else:
                self.gens[shard] = response["generation"]
                self.views[shard].update(response["catalog"])
        changed = {shard for shard, _, _ in plan.steps}
        if plan.resync_skip is not None:
            changed |= self._resync_siblings(skip=plan.resync_skip - replayed)
        return changed

    def _pin_payload(self) -> dict:
        """Refit the corpus-wide df filter from the maintained text corpus
        (the front-end's copy of every shard's document texts)."""
        texts = list(self._doc_texts.values())
        self._df_pipeline.fit(texts)
        return {
            "common_terms": sorted(self._df_pipeline.common_terms),
            "num_docs": len(texts),
        }

    def _pin_all(self) -> None:
        """Pin the current df filter on every reachable worker. A broken
        worker is skipped: its recovery pins the filter (:meth:`_recouple`)."""
        payload = self._pin_payload()
        for shard, worker in enumerate(self.workers):
            if not worker.usable:
                continue
            try:
                worker.call("pin_filter", payload)
            except _WORKER_DOWN:
                self.supervisor.note_failure(shard)

    def _resync_siblings(self, skip: set[int]) -> set[int]:
        changed = set()
        for i, worker in enumerate(self.workers):
            if i in skip:
                continue
            try:
                response = worker.call("resync_documents")
            except _WORKER_DOWN:
                # Recovery resyncs this shard when it comes back; don't
                # let a dead sibling fail the mutation that completed.
                self.supervisor.note_failure(i)
                continue
            if response["changed"]:
                self.gens[i] = response["generation"]
                self.views[i].generation = response["generation"]
                changed.add(i)
        return changed

    # -------------------------------------------------------- persistence

    def checkpoint(self) -> None:
        """Fold every worker's journal into its shard file and refresh the
        manifest — the served catalog stays reopenable at any time. Runs
        on its own every ``checkpoint_every`` mutations, as in a session
        bound to the catalog."""
        for shard, worker in enumerate(self.workers):
            try:
                worker.call("checkpoint")
            except _WORKER_DOWN as exc:
                # The staged rewrite rolls back with the crash; the
                # journal tail is intact and recovery replays it.
                self.supervisor.note_failure(shard)
                self._pending_crash.add(shard)
                self._recover(shard)
                raise ShardUnavailable(
                    f"shard {shard} crashed mid-checkpoint; its journal "
                    f"tail is intact and has been replayed by recovery — "
                    f"retry checkpoint()"
                ) from exc
        if self._top is not None:
            self._top["df_pipeline"] = self._df_pipeline.persistent_state()
            self.catalog_db.put_state("top", self._top)
        self.catalog_db.put_meta("journal_seq", str(self._seq))
        self.catalog_db.commit()
        self._pending = 0

    def close(self) -> None:
        for worker in self.workers:
            worker.close()
        self.workers = []
        if self.zygote is not None:
            self.zygote.close()  # after the workers: it outlives its children
        self.catalog_db.close()


# ------------------------------------------------------------------ server


class LakeServer:
    """Concurrent serving front-end over thread- or process-hosted shards.

    Construct from a live session (``backend="thread"``) or a saved
    catalog path (either backend); or call ``session.serve()``. Queries
    (:meth:`discover` / :meth:`discover_batch`) may run from many threads
    at once; mutations serialise on the writer path. See the module docs
    for the snapshot and caching contracts.

    Fault tolerance (``backend="process"`` — in-process shards cannot
    crash independently, so the knobs are inert on a thread backend):

    * ``request_timeout`` — per-RPC deadline in seconds (``None`` waits
      forever); a worker that misses it is treated as hung and respawned;
    * ``read_retries`` — how many times a read batch is re-sent to a
      freshly respawned worker before the shard counts as down for that
      batch;
    * ``max_respawns`` / ``backoff_base`` / ``backoff_cap`` — the
      supervisor's circuit breaker and capped exponential backoff
      (seconds) between respawn attempts; :meth:`reset_shard` re-arms an
      open circuit;
    * ``degraded`` — what a down shard does to a query: ``"fail"``
      (default) raises :class:`~repro.serve.rpc.ShardUnavailable`;
      ``"partial"`` returns top-k over the live shards and lists the
      missing ones in ``last_stats.degraded_shards``. Mutations never
      degrade: a mutation whose owner shard is down fails cleanly after
      the write-ahead journal append, so it is delayed, never lost.
    """

    def __init__(
        self,
        source,
        backend: str = "thread",
        cache: bool = True,
        cache_entries: int = DEFAULT_ENTRIES,
        degraded: str = "fail",
        request_timeout: float | None = 30.0,
        read_retries: int = 1,
        max_respawns: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        if backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process', got {backend!r}"
            )
        if degraded not in ("fail", "partial"):
            raise ValueError(
                f"degraded must be 'fail' or 'partial', got {degraded!r}"
            )
        self.degraded = degraded
        if isinstance(source, (str, Path)):
            if backend == "process":
                self.backend = ProcessBackend(
                    source,
                    request_timeout=request_timeout,
                    read_retries=read_retries,
                    max_respawns=max_respawns,
                    backoff_base=backoff_base,
                    backoff_cap=backoff_cap,
                )
            else:
                from repro.store import load_catalog

                self.backend = ThreadBackend(load_catalog(source), owned=True)
        elif isinstance(source, (LakeSession, ShardedLakeSession)):
            if backend == "process":
                raise ValueError(
                    "backend='process' serves a saved catalog: call "
                    "session.save(path) then LakeServer(path, "
                    "backend='process') — or session.serve("
                    "backend='process') to do both"
                )
            self.backend = ThreadBackend(source, owned=False)
        else:
            raise TypeError(
                f"source must be a session or a catalog path, got "
                f"{type(source).__name__}"
            )
        self.cache = ResultCache(cache_entries) if cache else None
        if self.cache is not None and backend == "process":
            # A respawned worker may reuse a reconciled generation
            # number: drop its partials rather than trust key matching
            # across the crash.
            self.backend.on_respawn = self.cache.drop_shard
        self.planner = Planner(
            self.backend.catalog,
            default_strategy=self.backend.default_strategy,
            operator_strategies=self.backend.operator_strategies,
        )
        self._lock = _RWLock()
        self._closed = False
        workers = min(self.backend.num_shards, os.cpu_count() or 1)
        self._pool = (
            ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="lake-serve"
            )
            if workers > 1
            else None
        )
        self.last_stats: ExecutionStats = ExecutionStats()

    # ------------------------------------------------------------- reads

    def discover(self, query) -> DiscoveryResultSet:
        """Run one SRQL query against a pinned generation snapshot."""
        return self.discover_batch([query])[0]

    def discover_batch(self, queries) -> list[DiscoveryResultSet]:
        """Run an SRQL workload under one snapshot, one executor, and at
        most three batched round-trips per shard."""
        self._check_open()
        with self._lock.read():
            executor = ScatterGatherExecutor(
                self.backend, self.planner, self.backend.generations(),
                cache=self.cache, pool=self._pool,
                degraded=self.degraded, unavailable=ShardUnavailable,
            )
            plans = self.planner.plan_batch(
                [DiscoveryEngine._to_ast(q) for q in queries]
            )
            results = executor.execute_batch(plans)
            self.last_stats = executor.last_stats
            return results

    # ------------------------------------------------------------ writes

    def add_table(self, table) -> None:
        self._apply("add_table", {"table": table})

    def update_table(self, table) -> None:
        self._apply("update_table", {"table": table})

    def add_document(self, document) -> None:
        self.add_documents([document])

    def add_documents(self, documents) -> None:
        documents = list(documents)
        if documents:
            self._apply("add_documents", {"documents": documents})

    def remove(self, name: str) -> None:
        self._apply("remove", {"name": name})

    def _apply(self, op: str, payload: dict) -> None:
        self._check_open()
        with self._lock.write():
            self.backend.apply(op, payload)

    def checkpoint(self) -> None:
        """Durably fold outstanding journal entries into the catalog."""
        self._check_open()
        with self._lock.write():
            self.backend.checkpoint()

    # ------------------------------------------------------------- admin

    def reset_shard(self, shard: int) -> None:
        """Re-arm an open circuit: clear the shard's consecutive-failure
        count so the next request attempts recovery again."""
        if self.backend.supervisor is not None:
            self.backend.supervisor.reset(shard)

    @property
    def generations(self) -> dict[int, int]:
        return self.backend.generations()

    @property
    def generation(self) -> int:
        return sum(self.backend.generations().values())

    @property
    def num_shards(self) -> int:
        return self.backend.num_shards

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this LakeServer is closed")

    def close(self) -> None:
        """Shut down workers/pool (idempotent). A thread backend wrapping
        a caller-owned live session leaves that session open."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.backend.close()

    def __enter__(self) -> "LakeServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        kind = type(self.backend).__name__
        return (
            f"LakeServer({self.backend.name!r}, {kind}, "
            f"shards={self.backend.num_shards}, "
            f"cache={'on' if self.cache is not None else 'off'})"
        )
