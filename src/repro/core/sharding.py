"""Sharded lake architecture: partitioned fit, per-shard catalogs, routed
mutations; reads go through the one scatter-gather executor.

Every earlier layer assumes one monolithic profile and one index catalog,
so lake size is bounded by a single fit and a single index's memory and
latency. This module partitions the lake into N independently-fitted
shards, mirroring how specialised HTAP designs isolate workloads into
replicas that are maintained independently and merged at query time
(Polynesia, arXiv:2103.00798; HW/SW-cooperation follow-up,
arXiv:2204.11275):

* :class:`ShardRouter` — deterministic hash (or explicit-assignment)
  partitioning of tables and documents to shards, rebalance-aware;
* :class:`ShardedLakeSession` — owns N inner
  :class:`~repro.core.session.LakeSession` shards, fits them concurrently
  on a thread pool through the batched fit pipeline, routes every mutation
  to the owning shard (per-shard generation counters; mutations never
  re-sketch or re-index sibling shards), and exposes the same public
  surface as a monolithic session. Mutations are validated and planned by
  :func:`~repro.core.mutation.plan_mutation` — the plan a process-backed
  :class:`~repro.serve.LakeServer` executes too — and the session runs
  the plan directly. For reads the session *is* the
  in-process transport (:class:`~repro.core.scatter.DirectTransport`) of
  :class:`~repro.core.scatter.ScatterGatherExecutor` — the executor a
  :class:`~repro.serve.LakeServer` runs over thread- or process-hosted
  shards: each planned primitive fans out across shards, the per-shard
  top-k lists (cached by generation scope) are merged into the global
  top-k, and DRS composition (``Intersect`` / ``Unite`` / ``Top`` /
  ``Then``) runs on the merged result sets.

**Exactness of the merge.** For every primitive the per-shard evaluation
is *locally complete* — a shard's top-k list is the true top-k over its own
partition, computed with the same pure pair functions (containment, the
union ensemble, PK-FK inclusion) or globally comparable scores — so a
score-based k-way merge of per-shard top-k lists equals the monolithic
top-k. Two statistics are corpus-wide rather than pair-local:

* **BM25 / LM corpus statistics** (document frequencies, corpus size,
  average length) behind every keyword score, and
* the **document pipeline's df filter** ("drop terms occurring in a large
  fraction of documents"), which shapes document bags themselves.

A sharded lake always keeps both corpus-wide: the session merges document
frequencies across shards (:class:`~repro.search.engine.CorpusStatsGroup`)
and pins every shard's document pipeline to the corpus-wide df filter, so a
sharded lake answers exactly as a monolithic fit of the same lake. The
price is that *document* churn can ripple: a document add/remove that
shifts the corpus-wide filter re-syncs the (few) drifted documents on
sibling shards, exactly as a monolithic session re-syncs its own. Table
churn never leaves the owning shard.

As everywhere else in the session stack, exact embedding parity under
mutation additionally needs a corpus-independent embedder
(``CMDLConfig.embedder``); the default blended embedder is trained
per-shard on the shard's own corpus and frozen until ``refresh()``.
``cross_modal`` with ``representation="joint"`` is rejected on sharded
sessions: per-shard joint models live in incomparable embedding spaces.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from repro.core.discovery import DiscoveryEngine, DiscoveryResultSet
from repro.core.mutation import apply_mutation, plan_mutation
from repro.core.result_cache import ResultCache
from repro.core.scatter import (
    DirectTransport,
    MergedCatalog,
    ScatterGatherExecutor,
    ShardHost,
    fan_out,
)
from repro.core.session import LakeSession
from repro.core.srql.executor import ExecutionStats
from repro.core.srql.planner import Planner
from repro.core.system import CMDL, CMDLConfig
from repro.relational.catalog import DataLake, Document
from repro.search.engine import CorpusStatsGroup
from repro.text.pipeline import DocumentPipeline
from repro.utils.hashing import stable_hash_64

#: Keyword-engine families whose corpus statistics are merged across shards
#: (the four "elastic" indexes of the paper plus the two schema-name probe
#: engines of the candidate layer).
STATS_FAMILIES = (
    "doc_content",
    "doc_metadata",
    "column_content",
    "column_metadata",
    "column_schema",
    "column_schema_ngrams",
)


class ShardRouter:
    """Deterministic table/document -> shard assignment.

    Names route by a stable 64-bit hash by default; :meth:`assign` pins a
    name to an explicit shard (the rebalance path), overriding the hash.
    The router is the single source of truth for ownership: partitioning at
    open time and mutation routing afterwards both go through
    :meth:`shard_of`, so they can never disagree.
    """

    def __init__(
        self,
        num_shards: int,
        assignments: dict[str, int] | None = None,
        seed: int = 0,
    ):
        if not isinstance(num_shards, int) or isinstance(num_shards, bool) \
                or num_shards < 1:
            raise ValueError(
                f"num_shards must be a positive integer, got {num_shards!r}"
            )
        self.num_shards = num_shards
        self.seed = seed
        self.assignments: dict[str, int] = {}
        for name, shard in (assignments or {}).items():
            self.assign(name, shard)

    def shard_of(self, name: str) -> int:
        """Owning shard for a table name or document id."""
        pinned = self.assignments.get(name)
        if pinned is not None:
            return pinned
        return int(stable_hash_64(f"shard-route-{self.seed}-{name}") % self.num_shards)

    def check_shard(self, shard: int) -> None:
        """Raise ``ValueError`` unless ``shard`` is a valid shard index."""
        if not isinstance(shard, int) or isinstance(shard, bool) \
                or not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard must be in [0, {self.num_shards}), got {shard!r}"
            )

    def assign(self, name: str, shard: int) -> None:
        """Pin ``name`` to ``shard`` explicitly (wins over the hash route)."""
        self.check_shard(shard)
        self.assignments[name] = shard

    def partition(self, lake: DataLake) -> list[DataLake]:
        """Split a lake into one sub-lake per shard (tables + documents)."""
        sublakes = [
            DataLake(name=f"{lake.name}#shard{i}") for i in range(self.num_shards)
        ]
        for table in lake.tables:
            sublakes[self.shard_of(table.name)].add_table(table)
        for document in lake.documents:
            sublakes[self.shard_of(document.doc_id)].add_document(document)
        return sublakes


def _shard_pool(num_shards: int) -> ThreadPoolExecutor | None:
    """The pool shard fits, refreshes and query scatter run on: one thread
    per shard, capped at this host's cores; none when that is one."""
    workers = min(num_shards, os.cpu_count() or 1)
    if workers <= 1:
        return None
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="lake-shard")


class ShardedLakeSession(DirectTransport):
    """N independently-fitted lake shards behind one session surface.

    Obtained from ``CMDL.open(lake, shards=N)`` / ``repro.open_lake(lake,
    shards=N)``. Fitting partitions the lake with the router and fits every
    shard through the batched pipeline, concurrently on a thread pool when
    the host has the cores for it. Mutations (``add_table`` /
    ``add_document`` / ``remove`` / ``update_table``) route to the owning
    shard and bump only that shard's generation counter; queries
    (``discover`` / ``discover_batch``) scatter each planned primitive
    across shards and merge per-shard top-k lists into the global top-k
    (see the module docs for the exactness argument and the corpus-wide
    statistics every shard shares), reusing cached per-shard partials
    whose generation scope is unchanged.
    """

    def __init__(
        self,
        lake: DataLake,
        config: CMDLConfig | None = None,
        shards: int | None = None,
        router: ShardRouter | None = None,
        gold_pairs: list[tuple[str, str, int]] | None = None,
        auto_refresh_threshold: float | None = None,
    ):
        if router is None:
            if shards is None:
                raise ValueError("pass shards=N or an explicit ShardRouter")
            router = ShardRouter(shards)
        elif shards is not None and shards != router.num_shards:
            raise ValueError(
                f"shards={shards} disagrees with the router's "
                f"{router.num_shards} shards"
            )
        if auto_refresh_threshold is not None and not (
            0.0 <= auto_refresh_threshold <= 1.0
        ):
            # Fail before any shard fits (LakeSession re-checks per shard).
            raise ValueError(
                "auto_refresh_threshold must be in [0, 1] (an OOV rate), "
                f"got {auto_refresh_threshold!r}"
            )
        self.config = config or CMDLConfig()
        self.router = router
        self.name = lake.name
        self.gold_pairs = gold_pairs
        self.auto_refresh_threshold = auto_refresh_threshold
        self._pool = _shard_pool(router.num_shards)
        #: Bound :class:`~repro.store.catalog.LakeStore` once :meth:`save`
        #: has written (or :func:`repro.open_lake` has reopened) a catalog.
        #: Set before shard fitting: a failed fit calls :meth:`close`.
        self._store = None
        #: Corpus-wide df calculator (its term memo stays warm across
        #: filter re-syncs).
        self._df_pipeline = DocumentPipeline().fit(d.text for d in lake.documents)

        sublakes = router.partition(lake)
        try:
            self.shards: list[LakeSession] = self._fit_shards(sublakes)
        except BaseException:
            self.close()  # a failed construction must not leak the pool
            raise
        self._host_shards()

    @classmethod
    def _restore(
        cls,
        *,
        config: CMDLConfig,
        router: ShardRouter,
        name: str,
        gold_pairs,
        auto_refresh_threshold: float | None,
        df_pipeline: DocumentPipeline,
        shards: list[LakeSession],
    ) -> "ShardedLakeSession":
        """Assemble a session around already-restored shards (the catalog
        reopen path) — ``__init__`` would refit every shard from scratch."""
        session = cls.__new__(cls)
        session.config = config
        session.router = router
        session.name = name
        session.gold_pairs = gold_pairs
        session.auto_refresh_threshold = auto_refresh_threshold
        session._pool = _shard_pool(router.num_shards)
        session._df_pipeline = df_pipeline
        session.shards = shards
        session._store = None
        session._host_shards()
        return session

    def _host_shards(self) -> None:
        """Wire the fitted (or restored) shards into one lake: merged
        corpus statistics, and the read path's hosts, catalog and cache."""
        self._wire_stats_groups()
        self.hosts = [ShardHost(shard) for shard in self.shards]
        self.catalog = MergedCatalog(self.hosts)
        #: Per-shard partials and the merged PK-FK link index, keyed by
        #: generation scope — the retention rule a LakeServer applies.
        self._cache = ResultCache()
        self._planner: Planner | None = None
        #: Stats of the most recent discover / discover_batch call.
        self.last_batch_stats: ExecutionStats | None = None

    # ------------------------------------------------------------ fitting

    def _fit_shards(self, sublakes: list[DataLake]) -> list[LakeSession]:
        def build(i: int) -> LakeSession:
            cmdl = CMDL(self._shard_config())
            return cmdl.open(
                sublakes[i],
                gold_pairs=self._filter_gold(sublakes[i]),
                auto_refresh_threshold=self.auto_refresh_threshold,
            )

        return fan_out(self._pool, build, range(len(sublakes)))

    def _shard_config(self) -> CMDLConfig:
        cfg = replace(self.config)
        if self.config.embedder is not None:
            # Each shard embeds on its own copy: deterministic embedders
            # produce identical vectors, and concurrent fits never contend
            # on one instance's internal caches.
            cfg.embedder = copy.deepcopy(self.config.embedder)
        cfg.document_pipeline = DocumentPipeline().pin_filter(
            self._df_pipeline.common_terms, self._df_pipeline.num_docs_fit
        )
        return cfg

    def _filter_gold(self, sublake: DataLake):
        """The gold pairs wholly inside one shard (cross-shard pairs cannot
        supervise a per-shard joint model and are dropped)."""
        if not self.gold_pairs:
            return None
        docs = {d.doc_id for d in sublake.documents}
        tables = set(sublake.table_names)
        kept = [
            (doc, col, label) for doc, col, label in self.gold_pairs
            if doc in docs and col.partition(".")[0] in tables
        ]
        return kept or None

    def _wire_stats_groups(self) -> None:
        self._stats_groups: dict[str, CorpusStatsGroup] = {
            family: CorpusStatsGroup(
                [getattr(shard.indexes, family) for shard in self.shards]
            )
            for family in STATS_FAMILIES
        }
        self._wired_indexes = [shard.indexes for shard in self.shards]

    def _ensure_stats_wiring(self) -> None:
        """Re-wire the stats groups if any shard replaced its catalog (a
        refresh — explicit or drift-triggered — builds new indexes)."""
        if self._wired_indexes != [shard.indexes for shard in self.shards]:
            self._wire_stats_groups()

    # ------------------------------------------------------------- access

    @property
    def profile(self) -> MergedCatalog:
        """Merged, read-only profile view across shards (planner surface)."""
        return self.catalog

    @property
    def generations(self) -> dict[int, int]:
        """Per-shard generation counters (each bumps on its own mutations)."""
        return {i: shard.generation for i, shard in enumerate(self.shards)}

    @property
    def generation(self) -> int:
        """Summed generation vector: monotonic, equal iff no shard mutated."""
        return sum(shard.generation for shard in self.shards)

    @property
    def mutations(self) -> int:
        return sum(shard.mutations for shard in self.shards)

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def table_names(self) -> list[str]:
        return [name for shard in self.shards for name in shard.lake.table_names]

    @property
    def document_ids(self) -> list[str]:
        return [d.doc_id for shard in self.shards for d in shard.lake.documents]

    def shard_of(self, name: str) -> int:
        """The owning shard index for a table name or document id."""
        return self.router.shard_of(name)

    def drift(self) -> float:
        """Lake-wide embedding drift: pooled OOV rate across shards."""
        oov = total = 0
        for shard in self.shards:
            shard_oov, shard_total = shard._drift_counts()
            oov += shard_oov
            total += shard_total
        return oov / total if total else 0.0

    # ------------------------------------------------------------ queries

    def discover(self, query) -> DiscoveryResultSet:
        """Run one SRQL query, scatter-gathered across all shards."""
        return self.discover_batch([query])[0]

    def discover_batch(self, queries) -> list[DiscoveryResultSet]:
        """Run an SRQL workload with batch amortisation across shards: at
        most three batched round-trips per shard per operator group."""
        if self._planner is None:
            self._planner = Planner(
                self.catalog,
                default_strategy=self.config.discovery_strategy,
                operator_strategies=self.config.operator_strategies,
            )
        executor = ScatterGatherExecutor(
            self, self._planner, self.generations,
            cache=self._cache, pool=self._pool,
        )
        plans = self._planner.plan_batch(
            [DiscoveryEngine._to_ast(q) for q in queries]
        )
        results = executor.execute_batch(plans)
        self.last_batch_stats = executor.last_stats
        return results

    # ----------------------------------------------------------- mutators

    def add_table(self, table) -> None:
        """Add one table to its owning shard (sibling shards untouched)."""
        self._mutate("add_table", {"table": table})

    def update_table(self, table) -> None:
        """Replace an existing table in place on its owning shard."""
        self._mutate("update_table", {"table": table})

    def add_document(self, document: Document) -> None:
        """Add one document to its owning shard (see :meth:`add_documents`)."""
        self.add_documents([document])

    def add_documents(self, documents: list[Document]) -> None:
        """Add several documents, each routed to its owning shard. The
        corpus-wide df filter is re-pinned first and sibling documents
        whose bag drifted under it are re-synced."""
        if documents:
            self._mutate("add_documents", {"documents": list(documents)})

    def remove(self, name: str) -> None:
        """Remove a table (by name) or document (by id) from its shard."""
        self._mutate("remove", {"name": name})

    def _mutate(self, op: str, payload: dict) -> None:
        """Plan one routed mutation (validated before it is journaled),
        then run the plan: pin the moved df filter, apply the owner
        steps, re-sync drifted siblings."""
        plan = plan_mutation(op, payload, self.router, self.hosts, self.name)
        with self._journal(op, payload):
            if plan.corpus is not None:
                self._sync_document_filter(*plan.corpus)
            for shard, step_op, step_payload in plan.steps:
                apply_mutation(self.shards[shard], step_op, step_payload)
            if plan.resync_skip is not None:
                # Only siblings whose drifted documents re-synced commit
                # (and therefore bump their generation).
                for i, shard in enumerate(self.shards):
                    if i not in plan.resync_skip and shard._resync_documents():
                        shard._commit()
            self._ensure_stats_wiring()

    def rebalance(self, assignments: dict[str, int]) -> int:
        """Move tables/documents to explicitly-assigned shards.

        Each move is a delta remove on the source shard plus a delta add on
        the target (two generation bumps, no refits); the router records
        the assignment so future routing — including :meth:`remove` and
        :meth:`update_table` — follows the entry to its new home. Returns
        the number of entries actually moved (already-home assignments are
        recorded but move nothing). The corpus is unchanged, so the
        corpus-wide df filter needs no re-sync. Every name and target is
        validated before the first move: a bad assignment changes nothing.
        """
        with self._journal("rebalance", {"assignments": dict(assignments)}):
            for name, target in assignments.items():
                lake = self.shards[self.router.shard_of(name)].lake
                if not (lake.has_table(name) or lake.has_document(name)):
                    raise KeyError(
                        f"lake {self.name!r} has no table or document {name!r}"
                    )
                self.router.check_shard(target)
            moves = 0
            for name, target in assignments.items():
                current = self.router.shard_of(name)
                self.router.assign(name, target)
                if current == target:
                    continue
                source = self.shards[current]
                destination = self.shards[target]
                if source.lake.has_table(name):
                    table = source.lake.table(name)
                    source.remove(name)
                    destination.add_table(table)
                else:
                    document = source.lake.document(name)
                    source.remove(name)
                    destination.add_document(document)
                moves += 1
            self._ensure_stats_wiring()
        return moves

    def refresh(self, gold_pairs=None) -> None:
        """Full refit of every shard (concurrent when a pool exists).

        Per-shard generation counters stay monotonic across the swap; the
        corpus-statistics groups are re-wired onto the fresh index catalogs.
        """
        with self._journal(
            "refresh",
            {"with_gold": gold_pairs is not None, "gold_pairs": gold_pairs},
        ):
            if gold_pairs is not None:
                self.gold_pairs = gold_pairs
                for shard in self.shards:
                    shard.gold_pairs = self._filter_gold(shard.lake)
            self._sync_document_filter()
            fan_out(self._pool, LakeSession.refresh, self.shards)
            self._wire_stats_groups()

    # -------------------------------------------------------- persistence

    def save(self, path: str | Path | None = None):
        """Write (or checkpoint) this session's durable catalog.

        Same contract as :meth:`LakeSession.save`: the first call needs a
        ``path`` and full-writes one file per shard plus a manifest; later
        calls checkpoint the bound catalog incrementally.
        """
        from repro.store import save_session

        return save_session(self, path)

    def _journal(self, op: str, payload: dict):
        """Write-ahead journal scope for one mutation (no-op when no
        catalog is bound)."""
        if self._store is None:
            return nullcontext()
        return self._store.journal_scope(op, payload)

    # ------------------------------------------------------------ serving

    def serve(self, backend: str = "thread", **kwargs):
        """Wrap this lake in a concurrent :class:`~repro.serve.LakeServer`.

        ``backend="thread"`` serves the live session in place (the session
        stays yours to close). ``backend="process"`` checkpoints the bound
        catalog, closes this session, and serves the catalog directory
        with one worker process per shard — the server becomes the sole
        writer, so the in-process session must not stay live alongside it;
        requires a prior :meth:`save`.
        """
        from repro.serve.server import LakeServer

        if backend == "process":
            if self._store is None:
                raise ValueError(
                    "serve(backend='process') serves the saved catalog: "
                    "call save(path) first"
                )
            path = self._store.path
            self._store.checkpoint()
            self.close()
            return LakeServer(path, backend="process", **kwargs)
        return LakeServer(self, backend=backend, **kwargs)

    def close(self) -> None:
        """Shut down the thread pool and release any bound catalog's file
        handles (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._store is not None:
            self._store.close()
            self._store = None

    def __enter__(self) -> "ShardedLakeSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---------------------------------------------------------- internals

    def _sync_document_filter(
        self, added: dict[str, str] | None = None, removed=frozenset()
    ) -> None:
        """Recompute the corpus-wide df filter — the current corpus plus
        the ``added`` texts, minus the ``removed`` ids — and pin it on
        every shard."""
        texts = [
            document.text
            for shard in self.shards
            for document in shard.lake.documents
            if document.doc_id not in removed
        ]
        texts.extend((added or {}).values())
        self._df_pipeline.fit(texts)
        for shard in self.shards:
            shard.profiler.pipeline.pin_filter(
                self._df_pipeline.common_terms, len(texts)
            )

    def __repr__(self) -> str:
        tables = sum(shard.lake.num_tables for shard in self.shards)
        docs = sum(shard.lake.num_documents for shard in self.shards)
        return (
            f"ShardedLakeSession({self.name!r}, shards={self.num_shards}, "
            f"tables={tables}, documents={docs})"
        )
