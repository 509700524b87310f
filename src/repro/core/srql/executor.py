"""Plan execution against a fitted :class:`DiscoveryEngine`.

:meth:`Executor.execute` evaluates one plan; :meth:`Executor.execute_batch`
evaluates a workload and is where the query layer earns its keep:

* **subplan reuse** — results are memoised by AST node, so structurally
  equal (sub)queries anywhere in the batch are computed once (the planner
  already collapsed them to shared plan nodes);
* **operator grouping** — unique primitives are executed family by family
  (all keyword searches, then cross-modal, then each structured operator),
  keeping each index's probe machinery and caches hot instead of
  round-robining between them;
* **PK-FK sweep amortisation** — before any ``pkfk`` queries run, the
  engine's :meth:`~repro.core.discovery.DiscoveryEngine.pkfk_links` sweep
  is warmed once per strategy and every query in the batch reads from it.

:class:`ExecutionStats` records what happened (primitive evaluations
requested vs actually executed, PK-FK sweeps run); the batch == single-query
contract is tested in ``tests/core/test_srql.py`` and
``tests/core/test_srql_parity.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.discovery import DiscoveryResultSet
from repro.core.srql.ast import Intersect, Query, Then, Top, Unite
from repro.core.srql.planner import Planner, PlanNode, QueryPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.discovery import DiscoveryEngine

#: Execution order for grouped primitives in a batch: cheap keyword probes
#: first, the structured operators (with their heavier sweeps) last.
OP_ORDER = (
    "content_search",
    "metadata_search",
    "cross_modal",
    "joinable",
    "unionable",
    "pkfk",
)


@dataclass
class ExecutionStats:
    """What one execute / execute_batch call actually did."""

    #: Primitive evaluations the query trees asked for (incl. repeats).
    requested: int = 0
    #: Primitive evaluations actually run (after memoisation).
    executed: int = 0
    #: Full PK-FK sweeps run by the engine during this call.
    pkfk_sweeps: int = 0
    #: pkfk-operator queries answered from the shared sweep.
    pkfk_queries: int = 0
    #: Executed-primitive counts by operator name.
    by_op: Counter = field(default_factory=Counter)
    #: Engine cache generation the batch executed under. Lake-session
    #: mutations bump the engine's generation, so comparing this across
    #: calls makes stale-read bugs observable: two batches with the same
    #: generation ran against the same lake state. For a sharded session
    #: this is the *sum* of the per-shard generations (monotonic, and equal
    #: iff no shard mutated), with the per-shard breakdown in
    #: :attr:`shard_generations`.
    generation: int = 0
    #: Per-shard engine generations the batch executed under (sharded
    #: sessions only; empty for a monolithic engine).
    shard_generations: dict = field(default_factory=dict)
    #: Wall-clock seconds spent inside each shard's round-trips during
    #: this batch (sharded/serving sessions only). Divided by
    #: :attr:`shard_round_trips` this is the per-round-trip latency — the
    #: straggler diagnostic that attributes a slow batch to the shard (or
    #: remote worker) that stalled it.
    shard_seconds: dict = field(default_factory=dict)
    #: Batched round-trips issued to each shard during this batch: the
    #: scatter-gather executor ships a whole operator group per trip (at
    #: most three per shard per group), and a shard whose partials all
    #: came from the result cache is not visited at all.
    shard_round_trips: dict = field(default_factory=dict)
    #: Result-cache hits/misses of this batch (sharded sessions, and
    #: serving front-ends with the cache enabled; both stay 0 elsewhere).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Shards whose partials are missing from this batch's results
    #: because the shard stayed down past its retry budget and the server
    #: runs ``degraded="partial"`` (process-backed serving only; empty
    #: means the answers are complete).
    degraded_shards: list = field(default_factory=list)
    #: Read round-trips retried after a worker failure, and workers
    #: respawned, while this batch ran (process-backed serving only;
    #: attribution is approximate when batches overlap).
    retries: int = 0
    respawns: int = 0

    @property
    def reused(self) -> int:
        """Primitive evaluations saved by subplan/memo reuse."""
        return self.requested - self.executed


class Executor:
    """Runs validated plans against one engine."""

    def __init__(self, engine: "DiscoveryEngine", planner: Planner | None = None):
        self.engine = engine
        self.planner = planner or Planner(engine.profile)
        self.last_stats: ExecutionStats = ExecutionStats()

    # ------------------------------------------------------------- public

    def execute(self, plan: QueryPlan) -> DiscoveryResultSet:
        """Evaluate one plan; ``last_stats`` describes the run."""
        return self.execute_batch([plan])[0]

    def execute_batch(self, plans: list[QueryPlan]) -> list[DiscoveryResultSet]:
        """Evaluate a workload with memoisation, operator grouping, and a
        shared PK-FK sweep. Results are positionally aligned with ``plans``."""
        stats = ExecutionStats(generation=self.engine.generation)
        memo: dict[Query, DiscoveryResultSet] = {}

        # Group the batch's unique primitive nodes by operator. Plan nodes
        # are shared across plans (the planner's dedup), and the memo key
        # is the AST node itself, so repeats collapse here already.
        groups: dict[str, dict[Query, PlanNode]] = {op: {} for op in OP_ORDER}
        for plan in plans:
            for node in plan.nodes():
                if node.op in groups:
                    groups[node.op].setdefault(node.query, node)

        # Amortise the PK-FK sweep: one discover() pass per strategy feeds
        # every pkfk query in the batch.
        pkfk_strategies = {
            node.strategy for node in groups["pkfk"].values()
        }
        before = self.engine.pkfk_sweeps
        for strategy in sorted(s for s in pkfk_strategies if s):
            self.engine.pkfk_links(strategy=strategy)
        for op in OP_ORDER:
            for query, node in groups[op].items():
                if query not in memo:
                    memo[query] = self._run_primitive(node, stats)
        results = [self._eval(plan.root, memo, stats) for plan in plans]
        stats.pkfk_sweeps = self.engine.pkfk_sweeps - before
        self.last_stats = stats
        return results

    # ---------------------------------------------------------- internals

    def _eval(
        self,
        node: PlanNode,
        memo: dict[Query, DiscoveryResultSet],
        stats: ExecutionStats,
    ) -> DiscoveryResultSet:
        # Only primitive results are memoised: they carry the execution
        # cost, and re-walking repeated composites keeps the requested /
        # reused stats honest (re-composition is cheap dict arithmetic).
        query = node.query
        if node.op in OP_ORDER:
            stats.requested += 1
            if query not in memo:
                memo[query] = self._run_primitive(node, stats)
            return memo[query]
        if node.op in ("intersect", "unite"):
            left = self._eval(node.children[0], memo, stats)
            right = self._eval(node.children[1], memo, stats)
            result = (
                left.intersect(right) if node.op == "intersect"
                else left.unite(right)
            )
        elif node.op == "top":
            source = self._eval(node.children[0], memo, stats)
            result = DiscoveryResultSet(
                source.items[: query.n],
                operation=f"top{query.n}({source.operation})",
                inputs=source.inputs,
            )
        elif node.op == "then":
            result = self._eval_then(node, memo, stats)
        else:  # pragma: no cover - planner emits only the ops above
            raise ValueError(f"unknown plan op {node.op!r}")
        return result

    def _eval_then(self, node: PlanNode, memo, stats) -> DiscoveryResultSet:
        then: Then = node.query
        source = self._eval(node.children[0], memo, stats)
        if len(source) < then.rank:
            # Nothing upstream at that rank: empty result, with provenance.
            return DiscoveryResultSet(
                [],
                operation=f"then({source.operation})",
                inputs={"rank": then.rank, "source": source.operation},
            )
        hit = source[then.rank]
        bound = then.binder(hit)
        bound = getattr(bound, "ast", bound)
        # Dynamic queries go through the planner too: same validation, same
        # strategy choice, and the shared memo dedupes repeated targets.
        subplan = self.planner.plan(bound)
        return self._eval(subplan.root, memo, stats)

    def _run_primitive(
        self, node: PlanNode, stats: ExecutionStats
    ) -> DiscoveryResultSet:
        engine = self.engine
        query = node.query
        stats.executed += 1
        stats.by_op[node.op] += 1
        if node.op == "content_search":
            return engine.content_search(query.value, mode=query.mode, k=query.k)
        if node.op == "metadata_search":
            return engine.metadata_search(query.value, mode=query.mode, k=query.k)
        if node.op == "cross_modal":
            return engine.cross_modal_search(
                query.value, top_n=query.top_n,
                representation=query.representation,
            )
        if node.op == "joinable":
            return engine.joinable(
                query.table, top_n=query.top_n, strategy=node.strategy
            )
        if node.op == "unionable":
            return engine.unionable(
                query.table, top_n=query.top_n, strategy=node.strategy
            )
        if node.op == "pkfk":
            stats.pkfk_queries += 1
            return engine.pkfk(
                query.table, top_n=query.top_n, strategy=node.strategy
            )
        raise ValueError(f"unknown primitive op {node.op!r}")  # pragma: no cover
