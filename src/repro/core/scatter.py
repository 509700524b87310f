"""Scatter-gather SRQL execution over lake shards: the one sharded read path.

Everything that answers a query across shards lives in this module, and
none of it knows where the shards run:

* :class:`ShardHost` + :data:`READ_OPS` — the per-shard read operations,
  the units of scatter. An in-process shard (a sharded session, the
  thread backend) calls :meth:`ShardHost.handle` directly; a worker
  process calls it at the far end of the RPC pipe
  (:mod:`repro.serve.ops` adds the worker-only state and mutation ops);
* :class:`MergedCatalog` — the planner-facing profile merged from
  per-shard views (live hosts, or a front-end's copies of its workers'
  catalogs);
* :class:`DirectTransport` — the in-process transport shared by
  :class:`~repro.core.sharding.ShardedLakeSession` and the serving
  layer's thread backend;
* :class:`ScatterGatherExecutor` — per primitive, the staged fan-out and
  the merge of per-shard partials into the global top-k.

The executor is constructed per batch from a *transport* (``num_shards``,
``router``, ``catalog``, ``union_candidate_k``, ``round_trip(shard, ops,
pinned_gen=)``, the ``total_retries`` / ``total_respawns`` counters) and
three properties of the batch:

* **pinned snapshot** — the generation vector captured by the caller
  (under the server's read lock, when there is one); every result the
  executor produces, and every cache entry it writes, is attributed to
  exactly that vector;
* **batched round-trips** — per pipeline stage, all primitive work bound
  for one shard ships as a single batch (one RPC for the process
  backend, one lock acquisition in-process): a whole operator group costs
  each shard at most three round-trips (owner fetches, broadcast probes,
  dependent follow-ups), not one per primitive;
* **the result cache** — per-shard *partials* are cached under
  ``(tag, generation scope)`` keys, so a mutation on one shard leaves
  every other shard's contributions warm
  (see :mod:`repro.core.result_cache`).

Generation scopes per partial: a keyword list depends on every shard
(corpus-wide df/N feed the scores), and so does a free-text cross-modal
probe. An owner-derived probe (cross-modal encodings, join/union
sketches) depends on the owner and the probed shard. Union phase 2 folds
evidence from all shards, so it scopes to the full vector.

PK-FK is the one operator cached *merged*: the lake-wide link graph is
built once per generation vector into a
:class:`~repro.core.pkfk.PKFKLinkIndex` stored under the cache's
``FRONT`` scope, and a ``pkfk`` read at an unchanged vector is one cache
lookup — no staging, no round-trip, no merge. Only when the index is
missing does the two-stage sweep run (``pk_entries`` gather, cached per
shard; ``pkfk_links_for`` broadcast, not cached — the index supersedes
it). Candidate-PK status is a per-column property, so every shard
contributes its local PKs; the lake-wide PK set is then broadcast and each
(PK, FK) pair is examined exactly once, by the shard owning the FK.

Under ``degraded="partial"`` nothing derived from a substitute is ever
cached: not the substitute itself, not a healthy shard's follow-up
computed from a gather the substitute was part of, and not the index.
Such a value would carry a generation scope that still matches once the
down shard recovers to its reconciled generation, and outlive the outage.
"""

from __future__ import annotations

from collections import namedtuple
from threading import Lock

from repro.core.discovery import (
    DiscoveryEngine,
    DiscoveryResultSet,
    aggregate_to_tables,
)
from repro.core.joinability import JoinDiscovery
from repro.core.pkfk import PKFKLinkIndex
from repro.core.result_cache import FRONT
from repro.core.srql.executor import OP_ORDER, ExecutionStats, Executor
from repro.utils.timing import Timer


def _merge_topk(ranked_lists, k: int) -> list[tuple[str, float]]:
    """K-way merge of per-shard ``(id, score)`` lists into the global top-k.

    Every input list is sorted by ``(-score, id)`` and locally complete
    (the true top-k of its shard), and ids are disjoint across shards, so
    sorting the concatenation and cutting at ``k`` is exactly the
    monolithic top-k under the same ordering.
    """
    merged = [item for ranked in ranked_lists for item in ranked]
    merged.sort(key=lambda kv: (-kv[1], kv[0]))
    return merged[:k]


def fan_out(pool, fn, items) -> list:
    """``fn`` over ``items``, results in order — on ``pool`` when there is
    one and more than one item to overlap."""
    if pool is not None and len(items) > 1:
        return list(pool.map(fn, items))
    return [fn(item) for item in items]


# -------------------------------------------------------------- shard side

#: Scratch entries (union pair caches) kept per shard before the oldest
#: are dropped.
_SCRATCH_LIMIT = 8


def _generation(host: "ShardHost", payload: dict) -> int:
    return host.session.generation


def _document_encoding(host: "ShardHost", payload: dict):
    return host.session.profile.documents[payload["doc_id"]].encoding


def _table_sketches(host: "ShardHost", payload: dict) -> list:
    profile = host.session.profile
    return [
        profile.columns[cid]
        for cid in profile.columns_of_table(payload["table"])
    ]


def _keyword(host: "ShardHost", payload: dict) -> list:
    result = getattr(host.session.engine, payload["op"])(
        payload["value"], mode=payload["mode"], k=payload["k"]
    )
    return result.items


def _text_query_sketch(host: "ShardHost", payload: dict):
    return host.session.engine.text_query_sketch(payload["value"])


def _text_column_parts(host: "ShardHost", payload: dict) -> tuple:
    return host.session.engine.text_column_parts(
        payload["sketch"], payload["k"]
    )


def _encoding_column_hits(host: "ShardHost", payload: dict) -> list:
    return host.session.engine.encoding_column_hits(
        payload["encoding"], payload["k"]
    )


def _joinable_columns_for(host: "ShardHost", payload: dict) -> dict:
    scorer = host.session.engine.scorer("joinable")
    k = payload.get("k", JoinDiscovery.PER_COLUMN_K)
    return {
        sketch.de_id: scorer.joinable_columns_for(sketch, k=k)
        for sketch in payload["sketches"]
    }


def _union_phase1(host: "ShardHost", payload: dict) -> tuple:
    """Candidate scoring; parks the pair cache for this query's phase 2."""
    pair_cache: dict = {}
    hits, caps = host.session.engine.scorer("unionable").candidate_hits_for(
        payload["sketches"], pair_cache=pair_cache
    )
    host._scratch_put(
        ("union", payload["table"], host.session.generation), pair_cache
    )
    return hits, caps


def _union_phase2(host: "ShardHost", payload: dict) -> list:
    pair_cache = host.scratch.pop(
        ("union", payload["table"], host.session.generation), None
    )
    if pair_cache is None:
        pair_cache = {}
    return host.session.engine.scorer("unionable").alignment_scores_for(
        payload["sketches"],
        payload["evidence"],
        payload["top_n"],
        row_caps=payload["row_caps"],
        pair_cache=pair_cache,
    )


def _pk_entries(host: "ShardHost", payload: dict) -> list:
    return host.session.engine.scorer("pkfk").candidate_pk_entries()


def _pkfk_links_for(host: "ShardHost", payload: dict) -> list:
    return host.session.engine.scorer("pkfk").links_for(payload["entries"])


#: The read half of the shard-op table: pure functions of ``(host,
#: payload)``. Physical strategy is resolved *per shard* — each shard's
#: engine resolves the configured choice against its own size, so the
#: "auto" heuristic sees the shard, not the lake.
READ_OPS = {
    "generation": _generation,
    "document_encoding": _document_encoding,
    "table_sketches": _table_sketches,
    "keyword": _keyword,
    "text_query_sketch": _text_query_sketch,
    "text_column_parts": _text_column_parts,
    "encoding_column_hits": _encoding_column_hits,
    "joinable_columns_for": _joinable_columns_for,
    "union_phase1": _union_phase1,
    "union_phase2": _union_phase2,
    "pk_entries": _pk_entries,
    "pkfk_links_for": _pkfk_links_for,
}


class ShardHost:
    """One live shard session, the serving scratch state around it, and
    the shard view (``generation`` / ``table_columns`` / ``columns`` /
    ``documents``) :class:`MergedCatalog` merges."""

    def __init__(self, session, ops: dict = READ_OPS):
        self.session = session
        self.ops = ops
        #: Transient per-query state (union pair caches shared between the
        #: two alignment phases), keyed by (tag, table, generation).
        self.scratch: dict = {}
        #: Serialises ops on this shard: engine caches are not re-entrant.
        self.lock = Lock()

    @property
    def generation(self) -> int:
        return self.session.generation

    @property
    def table_columns(self) -> dict:
        return self.session.profile.table_columns

    @property
    def columns(self) -> dict:
        return self.session.profile.columns

    @property
    def documents(self) -> dict:
        return self.session.profile.documents

    def handle(self, op: str, payload: dict):
        try:
            fn = self.ops[op]
        except KeyError:
            raise ValueError(f"unknown shard op {op!r}") from None
        return fn(self, payload)

    def _scratch_put(self, key, value) -> None:
        self.scratch[key] = value
        while len(self.scratch) > _SCRATCH_LIMIT:
            self.scratch.pop(next(iter(self.scratch)))


class MergedCatalog:
    """Read-only, planner-facing profile merged from per-shard views.

    A view is anything with ``generation``, ``table_columns``, ``columns``
    and ``documents`` (a mapping keyed by doc id): a live
    :class:`ShardHost`, or a front-end's copy of a worker's catalog. The
    merge duck-types the parts of :class:`~repro.core.profiler.Profile`
    the SRQL planner (validation, the "auto" heuristic) and the gather
    phase (column -> table resolution) read; it is built lazily and cached
    against the generation vector, so any shard mutation invalidates it.
    """

    def __init__(self, views: list):
        self.views = views
        self._key: tuple | None = None
        self._merged: tuple[dict, dict, dict] = ({}, {}, {})

    def _sync(self) -> tuple[dict, dict, dict]:
        """``(table_columns, columns, documents)`` at the views' current
        generation vector."""
        key = tuple(view.generation for view in self.views)
        if key != self._key:
            table_columns: dict[str, list[str]] = {}
            columns: dict = {}
            documents: dict = {}
            for view in self.views:
                table_columns.update(view.table_columns)
                columns.update(view.columns)
                documents.update(view.documents)
            self._merged, self._key = (table_columns, columns, documents), key
        return self._merged

    @property
    def table_columns(self) -> dict[str, list[str]]:
        return self._sync()[0]

    @property
    def columns(self) -> dict:
        return self._sync()[1]

    @property
    def documents(self) -> dict:
        return self._sync()[2]

    def columns_of_table(self, table_name: str) -> list[str]:
        return self.table_columns.get(table_name, [])

    @property
    def num_des(self) -> int:
        return len(self.documents) + len(self.columns)


class DirectTransport:
    """The in-process transport: ops run on :attr:`hosts` in the caller's
    thread, under each host's lock.

    Mixed into whatever owns the hosts (it also provides ``router``,
    ``catalog`` and ``num_shards``). In-process shards cannot fail
    independently of the caller, so the supervision counters stay zero
    and ``pinned_gen`` never mismatches (generations only move when the
    owner mutates).
    """

    total_retries = 0
    total_respawns = 0
    hosts: list[ShardHost]

    @property
    def union_candidate_k(self) -> int:
        return self.hosts[0].session.engine.scorer("unionable").candidate_k

    def round_trip(
        self, shard: int, ops: list, pinned_gen: int | None = None
    ) -> list:
        host = self.hosts[shard]
        with host.lock:
            return [host.handle(op, payload or {}) for op, payload in ops]


# ------------------------------------------------------------ gather side

#: One unit of per-shard work: ``tag``/``dep`` form the cache key (``tag``
#: of ``None`` disables caching for this request).
_Request = namedtuple("_Request", ["shard", "op", "payload", "tag", "dep"])

_JOINT_UNSUPPORTED = (
    "cross_modal(representation='joint') is not supported on sharded "
    "sessions: each shard trains its own joint model and the per-shard "
    "embedding spaces are not comparable; query with "
    "representation='solo' or use a monolithic session"
)


def _degraded_value(op: str, payload: dict):
    """The neutral contribution of an unavailable shard.

    Under ``degraded="partial"`` a shard that stays down past its retry
    budget contributes exactly what an *empty* shard would: no keyword
    hits, no sketches, no links. Merges then proceed unchanged — the
    result is the correct top-k over the shards that answered.
    """
    if op == "text_column_parts":
        return ([], [])
    if op == "joinable_columns_for":
        return {sketch.de_id: [] for sketch in payload["sketches"]}
    if op == "union_phase1":
        return ({sketch.de_id: [] for sketch in payload["sketches"]}, None)
    if op in ("document_encoding", "text_query_sketch"):
        return None
    # keyword / encoding_column_hits / table_sketches / pk_entries /
    # union_phase2 / pkfk_links_for: list-shaped partials merge as empty.
    return []


def _table_result(operation: str, query, items) -> DiscoveryResultSet:
    return DiscoveryResultSet(
        items, operation=operation, inputs={"table": query.table}
    )


def _xm_result(query, tables) -> DiscoveryResultSet:
    return DiscoveryResultSet(
        tables,
        operation="crossModal_search",
        inputs={"value": query.value, "representation": query.representation},
    )


class ScatterGatherExecutor(Executor):
    """One batch's executor: pinned generations, staged fetches, cache.

    Reuses the monolithic :class:`~repro.core.srql.executor.Executor`'s
    composition and memoisation; primitive evaluation fans out across the
    transport's shards and merges. ``cache`` of ``None`` disables partial
    caching; ``pool`` overlaps the per-shard round-trips of a stage;
    ``unavailable`` is the exception type by which the transport reports
    a shard down past its retry budget, and ``degraded`` what that does
    to the batch (``"fail"`` re-raises, ``"partial"`` substitutes an
    empty shard and lists it in ``ExecutionStats.degraded_shards``).
    """

    def __init__(
        self,
        transport,
        planner,
        generations: dict[int, int],
        cache=None,
        pool=None,
        degraded: str = "fail",
        unavailable=(),
    ):
        self.transport = transport
        self.planner = planner
        self.cache = cache
        self.pool = pool
        self.gens = dict(generations)
        self.num_shards = transport.num_shards
        self.degraded = degraded
        self.unavailable = unavailable
        self._retries0 = transport.total_retries
        self._respawns0 = transport.total_respawns
        self.last_stats: ExecutionStats = ExecutionStats()

    # ------------------------------------------------------------- public

    def execute_batch(self, plans) -> list[DiscoveryResultSet]:
        stats = ExecutionStats(
            generation=sum(self.gens.values()),
            shard_generations=dict(self.gens),
        )
        memo: dict = {}
        groups: dict[str, dict] = {op: {} for op in OP_ORDER}
        for plan in plans:
            for node in plan.nodes():
                if node.op in groups:
                    groups[node.op].setdefault(node.query, node)
        self._run_groups(groups, stats, memo)
        results = [self._eval(plan.root, memo, stats) for plan in plans]
        stats.retries = self.transport.total_retries - self._retries0
        stats.respawns = self.transport.total_respawns - self._respawns0
        self.last_stats = stats
        return results

    def _run_primitive(self, node, stats: ExecutionStats) -> DiscoveryResultSet:
        """Dynamic (``Then``-bound) queries run as a one-node group."""
        groups: dict[str, dict] = {op: {} for op in OP_ORDER}
        groups[node.op][node.query] = node
        memo: dict = {}
        self._run_groups(groups, stats, memo)
        return memo[node.query]

    # ----------------------------------------------------------- plumbing

    @property
    def catalog(self) -> MergedCatalog:
        return self.transport.catalog

    def _table_of(self, column_id: str) -> str:
        return self.catalog.columns[column_id].table_name

    @property
    def _pkfk_index_key(self) -> tuple:
        """The link graph folds every shard's keys against every shard's
        columns: it scopes to the full vector."""
        return (("pkfk_index",), self._full)

    def _cached_pkfk_index(self, stats: ExecutionStats) -> PKFKLinkIndex | None:
        """The merged link index of this batch's generation vector, if a
        previous sweep under the same vector stored one."""
        if self.cache is None:
            return None
        index = self.cache.get(FRONT, self._pkfk_index_key)
        if index is None:
            stats.cache_misses += 1
        else:
            stats.cache_hits += 1
        return index

    def _fetch(self, requests: list[_Request], stats: ExecutionStats):
        """Resolve requests through the cache; batch misses one round-trip
        per shard, pinned to the batch's generation vector. Returns
        ``(results, degraded)`` where ``degraded`` is the set of
        request indices filled with neutral substitutes because their
        shard stayed down past its retry budget (always empty under
        ``degraded="fail"`` — the transport's ``unavailable`` error is
        re-raised instead). Substitutes are never cached; a caller staging
        requests from a degraded result passes ``tag=None`` so their
        replies are not cached either."""
        results: list = [None] * len(requests)
        pending: dict[tuple, list[int]] = {}  # in-flight key -> indices
        misses: dict[int, list[int]] = {}
        cache = self.cache
        for i, request in enumerate(requests):
            key = None if request.tag is None else (request.tag, request.dep)
            if key is not None and cache is not None:
                hit = cache.get(request.shard, key)
                if hit is not None:
                    stats.cache_hits += 1
                    results[i] = hit
                    continue
                stats.cache_misses += 1
                # Identical keyed requests inside one stage (e.g. join and
                # union probing the same table's sketches) fetch once.
                shard_key = (request.shard, key)
                if shard_key in pending:
                    pending[shard_key].append(i)
                    continue
                pending[shard_key] = [i]
            misses.setdefault(request.shard, []).append(i)

        failed: dict[int, Exception] = {}

        def run(shard: int) -> None:
            indices = misses[shard]
            ops = [(requests[i].op, requests[i].payload) for i in indices]
            try:
                with Timer() as timer:
                    values = self.transport.round_trip(
                        shard, ops, pinned_gen=self.gens.get(shard)
                    )
            except self.unavailable as exc:
                failed[shard] = exc
                return
            stats.shard_seconds[shard] = (
                stats.shard_seconds.get(shard, 0.0) + timer.elapsed
            )
            stats.shard_round_trips[shard] = (
                stats.shard_round_trips.get(shard, 0) + 1
            )
            for i, value in zip(indices, values):
                results[i] = value
                request = requests[i]
                if request.tag is not None and cache is not None:
                    cache.put(request.shard, (request.tag, request.dep), value)

        fan_out(self.pool, run, list(misses))
        degraded: set[int] = set()
        if failed:
            if self.degraded != "partial":
                raise failed[min(failed)]
            for shard in failed:
                if shard not in stats.degraded_shards:
                    stats.degraded_shards.append(shard)
                for i in misses[shard]:
                    results[i] = _degraded_value(
                        requests[i].op, requests[i].payload
                    )
                    degraded.add(i)
            stats.degraded_shards.sort()
        for (_, key), indices in pending.items():
            for i in indices[1:]:
                results[i] = results[indices[0]]
                if indices[0] in degraded:
                    degraded.add(i)
        return results, degraded

    # ------------------------------------------------------------- stages

    def _run_groups(self, groups, stats: ExecutionStats, memo: dict) -> None:
        gens = self.gens
        shards = range(self.num_shards)
        self._full = tuple(gens[i] for i in shards)
        full = self._full
        router = self.transport.router
        views = self.catalog.views

        # ---- stage 0: owner/probe fetches -----------------------------
        stage0: list[_Request] = []
        xm_ctx: list[dict] = []
        for query in groups["cross_modal"]:
            owner = next(
                (i for i in shards if query.value in views[i].documents), None
            )
            ctx = {"query": query, "owner": owner}
            if owner is not None:
                if query.representation == "joint":
                    raise RuntimeError(_JOINT_UNSUPPORTED)
                ctx["enc_at"] = len(stage0)
                stage0.append(_Request(
                    owner, "document_encoding", {"doc_id": query.value},
                    ("denc", query.value), (gens[owner],),
                ))
            else:
                probe = next(
                    (
                        i for i in shards
                        if views[i].documents or views[i].columns
                    ),
                    None,
                )
                if probe is None:
                    raise ValueError(
                        "cannot build a free-text query sketch over an empty "
                        "profile (no documents and no columns to borrow "
                        "hash-family settings from)"
                    )
                # One query sketch for all shards: signatures are
                # hash-family compatible because every shard fits with
                # the same seed/hashes.
                ctx["tqs_at"] = len(stage0)
                stage0.append(_Request(
                    probe, "text_query_sketch", {"value": query.value},
                    ("tqs", query.value), (gens[probe],),
                ))
            xm_ctx.append(ctx)

        def owner_sketches(table: str) -> tuple[int, int]:
            owner = router.shard_of(table)
            at = len(stage0)
            stage0.append(_Request(
                owner, "table_sketches", {"table": table},
                ("tsk", table), (gens[owner],),
            ))
            return owner, at

        join_ctx = []
        for query in groups["joinable"]:
            owner, at = owner_sketches(query.table)
            join_ctx.append({"query": query, "owner": owner, "tsk_at": at})
        union_ctx = []
        for query in groups["unionable"]:
            owner, at = owner_sketches(query.table)
            union_ctx.append({"query": query, "owner": owner, "tsk_at": at})

        r0, d0 = self._fetch(stage0, stats)

        # ---- stage 1: broadcast probes --------------------------------
        stage1: list[_Request] = []

        def broadcast(op, payload, tag, dep_of) -> list[int]:
            at = list(range(len(stage1), len(stage1) + self.num_shards))
            for i in shards:
                stage1.append(_Request(i, op, payload, tag, dep_of(i)))
            return at

        keyword_ctx = []
        for op in ("content_search", "metadata_search"):
            for query in groups[op]:
                self._count(stats, op)
                keyword_ctx.append({
                    "query": query, "op": op,
                    "at": broadcast(
                        "keyword",
                        {"op": op, "value": query.value,
                         "mode": query.mode, "k": query.k},
                        ("kw", op, query.value, query.mode, query.k),
                        lambda i: full,
                    ),
                })

        for ctx in xm_ctx:
            query = ctx["query"]
            self._count(stats, "cross_modal")
            column_k = max(query.top_n * 5, 10)
            ctx["column_k"] = column_k
            if ctx.get("enc_at", ctx.get("tqs_at")) in d0:
                # Owner/probe fetch lost to a down shard: the query has no
                # anchor to score against, so it degrades to an empty
                # result.
                memo[query] = _xm_result(query, [])
                ctx["at"] = None
            elif ctx["owner"] is not None:
                encoding = r0[ctx["enc_at"]]
                ctx["at"] = broadcast(
                    "encoding_column_hits",
                    {"encoding": encoding, "k": column_k},
                    ("xm_enc", query.value, column_k),
                    lambda i, o=ctx["owner"]: (gens[o], gens[i]),
                )
            else:
                ctx["at"] = broadcast(
                    "text_column_parts",
                    {"sketch": r0[ctx["tqs_at"]], "k": column_k},
                    ("xm_txt", query.value, column_k),
                    lambda i: full,
                )

        for ctx in join_ctx:
            query = ctx["query"]
            self._count(stats, "joinable")
            ctx["sketches"] = [
                s for s in r0[ctx["tsk_at"]]
                if s.tags is not None and s.tags.join_discovery
            ]
            ctx["at"] = broadcast(
                "joinable_columns_for",
                {"sketches": ctx["sketches"]},
                None if ctx["tsk_at"] in d0 else ("join", query.table),
                lambda i, o=ctx["owner"]: (gens[o], gens[i]),
            )

        for ctx in union_ctx:
            query = ctx["query"]
            self._count(stats, "unionable")
            ctx["sketches"] = r0[ctx["tsk_at"]]
            if not ctx["sketches"]:
                memo[query] = _table_result("unionable", query, [])
                ctx["at"] = None
                continue
            # Phase 1 — candidate scoring: per shard, per query column,
            # the locally-complete top-k scored candidates (+ exact-mode
            # caps).
            ctx["at"] = broadcast(
                "union_phase1",
                {"sketches": ctx["sketches"], "table": query.table},
                ("uni1", query.table),
                lambda i, o=ctx["owner"]: (gens[o], gens[i]),
            )

        # One lookup answers every pkfk query of the group; the sweep is
        # staged only when the vector has no index yet.
        pkfk_queries = list(groups["pkfk"])
        index = self._cached_pkfk_index(stats) if pkfk_queries else None
        need_links = bool(pkfk_queries) and index is None
        if need_links:
            entries_at = broadcast(
                "pk_entries", {}, ("pk_entries",),
                lambda i: (gens[i],),
            )

        r1, d1 = self._fetch(stage1, stats)

        # keyword / cross-modal / joinable finish on stage-1 partials.
        for ctx in keyword_ctx:
            query = ctx["query"]
            memo[query] = DiscoveryResultSet(
                _merge_topk([r1[a] for a in ctx["at"]], query.k),
                operation=ctx["op"],
                inputs={"value": query.value, "mode": query.mode},
            )
        for ctx in xm_ctx:
            if ctx["at"] is None:
                continue
            query = ctx["query"]
            column_k = ctx["column_k"]
            if ctx["owner"] is not None:
                hits = _merge_topk([r1[a] for a in ctx["at"]], column_k)
            else:
                parts = [r1[a] for a in ctx["at"]]
                containment = _merge_topk([p[0] for p in parts], column_k)
                keyword = _merge_topk([p[1] for p in parts], column_k)
                hits = DiscoveryEngine.merge_text_column_parts(
                    dict(containment), dict(keyword), column_k
                )
            tables = aggregate_to_tables(hits, self._table_of)
            memo[query] = _xm_result(query, tables[: query.top_n])
        per_column_k = JoinDiscovery.PER_COLUMN_K
        for ctx in join_ctx:
            query = ctx["query"]
            hit_dicts = [r1[a] for a in ctx["at"]]
            best: dict[str, float] = {}
            for sketch in ctx["sketches"]:
                merged = _merge_topk(
                    [hits[sketch.de_id] for hits in hit_dicts], per_column_k
                )
                JoinDiscovery.fold_best_pairs(best, merged, self._table_of)
            ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
            memo[query] = _table_result(
                "joinable", query, ranked[: query.top_n]
            )

        # ---- stage 2: evidence-dependent follow-ups -------------------
        stage2: list[_Request] = []
        for ctx in union_ctx:
            if ctx["at"] is None:
                continue
            query = ctx["query"]
            phase1 = [r1[a] for a in ctx["at"]]
            sketches = ctx["sketches"]
            candidate_k = self.transport.union_candidate_k
            evidence: dict[str, float] = {}
            for sketch in sketches:
                merged = _merge_topk(
                    [hits[sketch.de_id] for hits, _ in phase1], candidate_k
                )
                for col_id, score in merged:
                    if score > 0:
                        table = self._table_of(col_id)
                        evidence[table] = max(evidence.get(table, 0.0), score)
            # Probe-score caps are only sound when every shard scored its
            # full local column set (exact strategy); the global cap per
            # query column is then the max of the per-shard maxima.
            cap_dicts = [caps for _, caps in phase1]
            row_caps = None
            if all(caps is not None for caps in cap_dicts):
                row_caps = {
                    sketch.de_id: max(caps[sketch.de_id] for caps in cap_dicts)
                    for sketch in sketches
                }
            # Phase 2 — alignment on the owning shards, each pruning
            # against its local top-k floor (a superset of its global
            # contribution). Shards holding no evidenced candidate
            # contribute [] by construction; skip their round-trips.
            shard_evidence: list[dict[str, float]] = [{} for _ in shards]
            for table, ev in evidence.items():
                shard_evidence[router.shard_of(table)][table] = ev
            ctx["at2"] = {}
            for i in shards:
                if not shard_evidence[i]:
                    continue
                ctx["at2"][i] = len(stage2)
                stage2.append(_Request(
                    i, "union_phase2",
                    {"sketches": sketches, "evidence": shard_evidence[i],
                     "top_n": query.top_n, "row_caps": row_caps,
                     "table": query.table},
                    ("uni2", query.table, query.top_n)
                    if d1.isdisjoint(ctx["at"]) else None,
                    full,
                ))

        if need_links:
            entry_lists = [r1[a] for a in entries_at]
            entries = sorted(
                (entry for entry_list in entry_lists for entry in entry_list),
                key=lambda entry: entry[0].de_id,
            )
            links_at = []
            for i in shards:
                links_at.append(len(stage2))
                stage2.append(_Request(
                    i, "pkfk_links_for", {"entries": entries}, None, None,
                ))

        r2, d2 = self._fetch(stage2, stats)

        for ctx in union_ctx:
            if ctx["at"] is None:
                continue
            query = ctx["query"]
            results = [
                item for a in ctx["at2"].values() for item in r2[a]
            ]
            results.sort(key=lambda kv: (-kv[1], kv[0]))
            memo[query] = _table_result(
                "unionable", query, results[: query.top_n]
            )

        if need_links:
            index = PKFKLinkIndex.merged(
                [r2[a] for a in links_at], self._table_of
            )
            stats.pkfk_sweeps += 1
            complete = d1.isdisjoint(entries_at) and d2.isdisjoint(links_at)
            if self.cache is not None and complete:
                self.cache.put(FRONT, self._pkfk_index_key, index)
        for query in pkfk_queries:
            self._count(stats, "pkfk")
            stats.pkfk_queries += 1
            ranked = index.tables_for(query.table)
            memo[query] = _table_result("pkfk", query, ranked[: query.top_n])

    @staticmethod
    def _count(stats: ExecutionStats, op: str) -> None:
        stats.executed += 1
        stats.by_op[op] += 1
