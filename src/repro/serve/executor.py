"""Generation-pinned, cache-fronted scatter execution for serving.

:class:`ServingExecutor` is the serving counterpart of
:class:`~repro.core.sharding.ShardedExecutor`: the merge logic is
replicated step for step (the parity contract is *byte-identical* top-k),
but primitive evaluation differs in three ways:

* **pinned snapshot** — the executor is constructed per batch with the
  generation vector captured under the server's read lock; every result it
  produces, and every cache entry it writes, is attributed to exactly that
  vector;
* **batched round-trips** — per pipeline stage, all primitive work bound
  for one shard ships as a single ``batch`` op (one RPC for the process
  backend, one lock acquisition for the thread backend): a whole operator
  group costs each shard at most three round-trips (owner fetches,
  broadcast probes, dependent follow-ups), not one per primitive;
* **the result cache** — per-shard *partials* are cached under
  ``(tag, generation scope)`` keys, so a mutation on one shard leaves
  every other shard's contributions warm (see :mod:`repro.serve.cache`).

Generation scopes per partial: a keyword list depends on its own shard —
plus, under ``global_stats``, on every shard (corpus-wide df/N feed the
scores). An owner-derived probe (cross-modal encodings, join/union
sketches) depends on the owner and the probed shard. Union phase 2 folds
evidence from all shards, so it scopes to the full vector.

PK-FK is the one operator cached *merged*: the lake-wide link graph is
built once per generation vector into a
:class:`~repro.core.pkfk.PKFKLinkIndex` stored under the cache's
``FRONT`` scope, and a ``pkfk`` read at an unchanged vector is one cache
lookup — no staging, no round-trip, no merge. Only when the index is
missing does the two-stage sweep run (``pk_entries`` gather, cached per
shard; ``pkfk_links_for`` broadcast, not cached — the index supersedes
it).

Under ``degraded="partial"`` nothing derived from a substitute is ever
cached: not the substitute itself, not a healthy shard's follow-up
computed from a gather the substitute was part of, and not the index.
Such a value would carry a generation scope that still matches once the
down shard recovers to its reconciled generation, and outlive the outage.
"""

from __future__ import annotations

from collections import namedtuple

from repro.core.discovery import (
    DiscoveryEngine,
    DiscoveryResultSet,
    aggregate_to_tables,
)
from repro.core.joinability import JoinDiscovery
from repro.core.pkfk import PKFKLinkIndex
from repro.core.sharding import _merge_topk
from repro.core.srql.executor import OP_ORDER, ExecutionStats, Executor
from repro.serve.cache import FRONT
from repro.serve.rpc import ShardUnavailable
from repro.utils.timing import Timer

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


class ServingExecutor(Executor):
    """One batch's executor: pinned generations, staged fetches, cache."""

    def __init__(self, server, generations: dict[int, int]):
        self.server = server
        self.backend = server.backend
        self.planner = server.planner
        self.cache = server.cache
        self.gens = dict(generations)
        self.num_shards = server.backend.num_shards
        self.global_stats = server.backend.global_stats
        self.degraded = getattr(server, "degraded", "fail")
        self._retries0 = getattr(self.backend, "total_retries", 0)
        self._respawns0 = getattr(self.backend, "total_respawns", 0)
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
        stats.retries = getattr(self.backend, "total_retries", 0) - self._retries0
        stats.respawns = (
            getattr(self.backend, "total_respawns", 0) - self._respawns0
        )
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
    def catalog(self):
        return self.backend.catalog

    def _table_of(self, column_id: str) -> str:
        return self.catalog.columns[column_id].table_name

    def _local(self, shard: int) -> tuple:
        """Generation scope of a shard-local keyword-scored partial."""
        if self.global_stats:
            return self._full
        return (self.gens[shard],)

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
        ``(results, hit_mask, degraded)`` where ``degraded`` is the set of
        request indices filled with neutral substitutes because their
        shard stayed down past its retry budget (always empty under
        ``degraded="fail"`` — the :class:`ShardUnavailable` is re-raised
        instead). Substitutes are never cached; a caller staging requests
        from a degraded result passes ``tag=None`` so their replies are
        not cached either."""
        results: list = [None] * len(requests)
        hit_mask = [False] * len(requests)
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
                    hit_mask[i] = True
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

        failed: dict[int, ShardUnavailable] = {}

        def run(shard: int) -> None:
            indices = misses[shard]
            ops = [(requests[i].op, requests[i].payload) for i in indices]
            try:
                with Timer() as timer:
                    values = self.backend.round_trip(
                        shard, ops, pinned_gen=self.gens.get(shard)
                    )
            except ShardUnavailable as exc:
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

        self.server.map_shards(run, list(misses))
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
        return results, hit_mask, degraded

    # ------------------------------------------------------------- stages

    def _run_groups(self, groups, stats: ExecutionStats, memo: dict) -> None:
        gens = self.gens
        shards = range(self.num_shards)
        self._full = tuple(gens[i] for i in shards)
        full = self._full
        router = self.backend.router

        # ---- stage 0: owner/probe fetches -----------------------------
        stage0: list[_Request] = []
        xm_ctx: list[dict] = []
        for query in groups["cross_modal"]:
            owner = next(
                (
                    i for i in shards
                    if query.value in self.backend.shard_documents(i)
                ),
                None,
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
                    (i for i in shards if self.backend.shard_num_des(i)), None
                )
                if probe is None:
                    raise ValueError(
                        "cannot build a free-text query sketch over an empty "
                        "profile (no documents and no columns to borrow "
                        "hash-family settings from)"
                    )
                ctx["probe"] = probe
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

        r0, _, d0 = self._fetch(stage0, stats)

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
                        self._local,
                    ),
                })

        def xm_degraded(ctx) -> bool:
            """Owner/probe fetch lost to a down shard: the query has no
            anchor to score against, so it degrades to an empty result."""
            at = ctx.get("enc_at", ctx.get("tqs_at"))
            if at not in d0:
                return False
            query = ctx["query"]
            memo[query] = DiscoveryResultSet(
                [],
                operation="crossModal_search",
                inputs={
                    "value": query.value,
                    "representation": query.representation,
                },
            )
            ctx["at"] = None
            return True

        for ctx in xm_ctx:
            query = ctx["query"]
            self._count(stats, "cross_modal")
            column_k = max(query.top_n * 5, 10)
            ctx["column_k"] = column_k
            if xm_degraded(ctx):
                continue
            if ctx["owner"] is not None:
                encoding = r0[ctx["enc_at"]]
                ctx["at"] = broadcast(
                    "encoding_column_hits",
                    {"encoding": encoding, "k": column_k},
                    ("xm_enc", query.value, column_k),
                    lambda i, o=ctx["owner"]: (gens[o], gens[i]),
                )
            else:
                sketch = r0[ctx["tqs_at"]]
                probe = ctx["probe"]
                ctx["at"] = broadcast(
                    "text_column_parts",
                    {"sketch": sketch, "k": column_k},
                    ("xm_txt", query.value, column_k),
                    (lambda i: full) if self.global_stats
                    else (lambda i, p=probe: (gens[p], gens[i])),
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
                memo[query] = DiscoveryResultSet(
                    [], operation="unionable", inputs={"table": query.table}
                )
                ctx["at"] = None
                continue
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

        r1, _, d1 = self._fetch(stage1, stats)

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
            memo[query] = DiscoveryResultSet(
                tables[: query.top_n],
                operation="crossModal_search",
                inputs={
                    "value": query.value,
                    "representation": query.representation,
                },
            )
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
            memo[query] = DiscoveryResultSet(
                ranked[: query.top_n],
                operation="joinable",
                inputs={"table": query.table},
            )

        # ---- stage 2: evidence-dependent follow-ups -------------------
        stage2: list[_Request] = []
        for ctx in union_ctx:
            if ctx["at"] is None:
                continue
            query = ctx["query"]
            phase1 = [r1[a] for a in ctx["at"]]
            sketches = ctx["sketches"]
            candidate_k = self.backend.union_candidate_k
            evidence: dict[str, float] = {}
            for sketch in sketches:
                merged = _merge_topk(
                    [hits[sketch.de_id] for hits, _ in phase1], candidate_k
                )
                for col_id, score in merged:
                    if score > 0:
                        table = self._table_of(col_id)
                        evidence[table] = max(evidence.get(table, 0.0), score)
            cap_dicts = [caps for _, caps in phase1]
            row_caps = None
            if all(caps is not None for caps in cap_dicts):
                row_caps = {
                    sketch.de_id: max(caps[sketch.de_id] for caps in cap_dicts)
                    for sketch in sketches
                }
            shard_evidence: list[dict[str, float]] = [{} for _ in shards]
            for table, ev in evidence.items():
                shard_evidence[router.shard_of(table)][table] = ev
            # Shards holding no evidenced candidate contribute [] by
            # construction; skip their round-trips entirely.
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

        r2, _, d2 = self._fetch(stage2, stats)

        for ctx in union_ctx:
            if ctx["at"] is None:
                continue
            query = ctx["query"]
            results = [
                item for a in ctx["at2"].values() for item in r2[a]
            ]
            results.sort(key=lambda kv: (-kv[1], kv[0]))
            memo[query] = DiscoveryResultSet(
                results[: query.top_n],
                operation="unionable",
                inputs={"table": query.table},
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
            memo[query] = DiscoveryResultSet(
                ranked[: query.top_n],
                operation="pkfk",
                inputs={"table": query.table},
            )

    @staticmethod
    def _count(stats: ExecutionStats, op: str) -> None:
        stats.executed += 1
        stats.by_op[op] += 1
