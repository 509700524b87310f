"""SRQL-style discovery interface (paper §5.2).

:class:`DiscoveryEngine` exposes the discovery primitives of the paper's
motivation pipeline (Figure 1 / §5.2): ``content_search`` (Q1),
``cross_modal_search`` (Q2/Q3), ``pkfk`` (Q4), ``unionable`` (Q5), plus
``joinable`` and keyword search over either modality. Results are
:class:`DiscoveryResultSet` objects carrying scores and provenance, and can
be composed (intersect / unite with normalised score sums).

The blessed entrypoints are :meth:`DiscoveryEngine.discover` and
:meth:`DiscoveryEngine.discover_batch`: they take declarative SRQL queries
(a chainable :class:`~repro.core.srql.builder.Q`, a raw AST node, or a
``SELECT ... FROM lake WHERE ...`` string) and run them through the
planner/executor of :mod:`repro.core.srql` — validation, per-operator
``indexed``/``exact`` strategy choice, and batch amortisation included.
The imperative per-operator methods remain as the thin physical layer the
executor drives (and as a stable back-compat surface).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.candidates import CandidateGenerator
from repro.core.indexes import IndexCatalog
from repro.core.joinability import JoinDiscovery
from repro.core.joint.model import JointRepresentationModel
from repro.core.pkfk import PKFKDiscovery, PKFKLink, PKFKLinkIndex
from repro.core.profiler import DESketch, DOCUMENT, Profile
from repro.core.unionability import UnionDiscovery
from repro.text.pipeline import BagOfWords
from repro.text.tokenizer import tokenize

# NOTE: repro.core.srql modules are imported lazily inside methods — the
# srql package imports this module (its executor drives the engine), so a
# module-level import here would be circular.


def check_positive(value, name: str) -> None:
    """Shared guard for ``k`` / ``top_n``-style arguments: a clear,
    consistent ``ValueError`` instead of silent empty results."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def check_search_args(mode: str, k) -> None:
    """The ``mode``/``k`` validation shared by content and metadata search."""
    if mode not in ("text", "table"):
        raise ValueError(f"mode must be 'text' or 'table', got {mode!r}")
    check_positive(k, "k")


def aggregate_to_tables(
    column_hits: list[tuple[str, float]], table_of
) -> list[tuple[str, float]]:
    """Aggregate column relatedness to the table level (max per table).

    ``table_of`` resolves a column id to its table name — the monolithic
    engine passes a profile lookup, the sharded gatherer its merged
    catalog's. Shared so the two paths can never drift apart (the sharded
    parity contract depends on identical aggregation and tie-breaks).
    """
    best: dict[str, float] = {}
    for col_id, score in column_hits:
        table = table_of(col_id)
        if score > best.get(table, float("-inf")):
            best[table] = score
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))


@dataclass
class DiscoveryResultSet:
    """A ranked discovery answer with provenance (the paper's DRS)."""

    items: list[tuple[str, float]]
    operation: str
    inputs: dict = field(default_factory=dict)

    def ids(self) -> list[str]:
        return [i for i, _ in self.items]

    def scores(self) -> dict[str, float]:
        return dict(self.items)

    def __getitem__(self, rank: int) -> str:
        """1-based positional access, matching the paper's ``r1.[1]``."""
        if not 1 <= rank <= len(self.items):
            raise IndexError(
                f"rank {rank} out of range for DRS of size {len(self.items)}"
            )
        return self.items[rank - 1][0]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    # ----------------------------------------------------------- composition

    def intersect(self, other: "DiscoveryResultSet") -> "DiscoveryResultSet":
        """Keep ids in both, scores = normalised sum (paper §5.2)."""
        mine, theirs = self.scores(), other.scores()
        common = set(mine) & set(theirs)
        combined = self._normalised_sum(mine, theirs, common)
        return DiscoveryResultSet(
            combined, operation=f"({self.operation} ∩ {other.operation})"
        )

    def unite(self, other: "DiscoveryResultSet") -> "DiscoveryResultSet":
        """Keep ids in either, scores = normalised sum."""
        mine, theirs = self.scores(), other.scores()
        keys = set(mine) | set(theirs)
        combined = self._normalised_sum(mine, theirs, keys)
        return DiscoveryResultSet(
            combined, operation=f"({self.operation} ∪ {other.operation})"
        )

    @staticmethod
    def _normalised_sum(a: dict, b: dict, keys: set) -> list[tuple[str, float]]:
        def norm(d: dict) -> dict:
            top = max(d.values(), default=0.0)
            return {k: (v / top if top > 0 else 0.0) for k, v in d.items()}

        na, nb = norm(a), norm(b)
        items = [(k, na.get(k, 0.0) + nb.get(k, 0.0)) for k in keys]
        items.sort(key=lambda kv: (-kv[1], kv[0]))
        return items


class DiscoveryEngine:
    """The queryable CMDL instance for one lake."""

    def __init__(
        self,
        profile: Profile,
        indexes: IndexCatalog,
        joint_model: JointRepresentationModel | None,
        uniqueness: dict[str, float],
        pkfk_params: dict | None = None,
        strategy: str = "indexed",
        operator_strategies: dict[str, str] | None = None,
    ):
        """``strategy`` picks the default structured-discovery path:
        ``"indexed"`` routes join/union/PK-FK candidate generation through
        the sketch indexes, ``"exact"`` brute-forces every eligible pair,
        and ``"auto"`` resolves per operator via the planner's size/density
        heuristic. ``operator_strategies`` overrides the choice for
        individual operators (``{"pkfk": "exact", ...}``)."""
        from repro.core.srql.planner import STRUCTURED_OPS, Planner

        self.profile = profile
        self.indexes = indexes
        self.joint_model = joint_model
        self.uniqueness = uniqueness
        self.pkfk_params = dict(pkfk_params or {})
        self.strategy = strategy
        self.operator_strategies = dict(operator_strategies or {})
        # The planner owns knob validation and auto-resolution; the engine
        # reads the concrete per-operator choices back from it so the two
        # can never disagree.
        self._planner = Planner(
            profile,
            default_strategy=strategy,
            operator_strategies=self.operator_strategies,
        )
        #: Concrete (indexed/exact) strategy per structured operator.
        self.operator_strategy: dict[str, str] = {
            op: self._planner.strategy_for(op) for op in STRUCTURED_OPS
        }

        #: Cache generation: bumped by :meth:`invalidate`, which lake
        #: sessions call on every mutation. Everything derived from the
        #: profile or the indexes (candidate generator, structured scorers,
        #: PK-FK sweeps) is stamped with the generation it was built under
        #: and rebuilt lazily after a bump — the protocol that keeps SRQL
        #: memoisation and the candidate-layer caches from serving stale
        #: results across mutations.
        self.generation = 0
        self.candidates: CandidateGenerator | None = (
            CandidateGenerator(profile, indexes, generation=0)
            if "indexed" in self.operator_strategy.values()
            else None
        )
        self._structured_cache: dict[tuple[str, str], object] = {}
        self._pkfk_links: dict[str, PKFKLinkIndex] = {}
        #: Diagnostic: full PK-FK sweeps run so far (the batch executor
        #: reports sweep reuse from this counter).
        self.pkfk_sweeps = 0
        self._executor = None

    # ----------------------------------------------------- physical layer

    @property
    def join_discovery(self) -> JoinDiscovery:
        """The joinable scorer under the default strategy (generation-fresh)."""
        return self._structured("joinable")

    @property
    def union_discovery(self) -> UnionDiscovery:
        """The unionable scorer under the default strategy (generation-fresh)."""
        return self._structured("unionable")

    @property
    def pkfk_discovery(self) -> PKFKDiscovery:
        """The PK-FK scorer under the default strategy (generation-fresh)."""
        return self._structured("pkfk")

    def _ensure_candidates(self) -> CandidateGenerator:
        if self.candidates is None:
            self.candidates = CandidateGenerator(
                self.profile, self.indexes, generation=self.generation
            )
        return self.candidates

    def _resolve_op_strategy(self, op: str, strategy: str | None) -> str:
        from repro.core.srql.planner import choose_strategy, validate_strategy

        if strategy is None:
            # Under "auto" the choice is re-evaluated per call/sweep against
            # the *current* profile (ROADMAP's size/density heuristic: small
            # lakes take the warm-name-cache exact sweep, large lakes the
            # indexed probes) — it can flip as a session's lake churns. The
            # thresholds live in one place: the SRQL planner.
            configured = self._planner.configured_for(op)
            if configured == "auto":
                return choose_strategy(op, self.profile)
            return self.operator_strategy[op]
        validate_strategy(strategy, knob="strategy")
        if strategy == "auto":
            return choose_strategy(op, self.profile)
        return strategy

    def scorer(self, op: str, strategy: str | None = None):
        """The structured scorer for ``op`` under ``strategy``.

        Public accessor for the per-(operator, strategy) scorer cache —
        the sharded scatter-gather executor drives shard-local scorers
        through this (``strategy=None`` resolves the engine's configured
        choice, re-evaluating ``"auto"`` against the *current* profile, so
        every shard picks exact-vs-indexed from its own local size).
        """
        return self._structured(op, strategy)

    def _structured(self, op: str, strategy: str | None = None):
        """The scorer for ``op`` under ``strategy`` (cached per pair)."""
        resolved = self._resolve_op_strategy(op, strategy)
        key = (op, resolved)
        if key not in self._structured_cache:
            candidates = (
                self._ensure_candidates() if resolved == "indexed" else None
            )
            if op == "joinable":
                module = JoinDiscovery(
                    self.profile, candidates=candidates, strategy=resolved
                )
            elif op == "unionable":
                module = UnionDiscovery(
                    self.profile, candidates=candidates, strategy=resolved
                )
            else:
                module = PKFKDiscovery(
                    self.profile, self.uniqueness, candidates=candidates,
                    strategy=resolved, **self.pkfk_params
                )
            self._structured_cache[key] = module
        return self._structured_cache[key]

    # --------------------------------------------------------- text queries

    def text_query_sketch(self, text: str) -> DESketch:
        """Ad-hoc sketch for a free-text query (public alias).

        The sharded path builds the query sketch once (signatures are
        hash-family-compatible across shards, which share the fit seed and
        hash count) and broadcasts it to every shard's index probes.
        """
        return self._text_sketch(text)

    def _text_sketch(self, text: str) -> DESketch:
        """Ad-hoc sketch for a free-text query (not a profiled DE).

        Free-text queries are served by the containment + keyword paths,
        which only need the token bag and a compatible minhash signature;
        profiled document ids additionally unlock the embedding paths.
        """
        from repro.sketch.minhash import MinHash  # local to avoid cycle

        any_sketch = next(iter(self.profile.documents.values()), None) or next(
            iter(self.profile.columns.values()), None
        )
        if any_sketch is None:
            raise ValueError(
                "cannot build a free-text query sketch over an empty profile "
                "(no documents and no columns to borrow hash-family settings from)"
            )
        dim = len(any_sketch.content_embedding)
        bow = BagOfWords(Counter(tokenize(text)))
        signature = MinHash(
            num_hashes=any_sketch.signature.num_hashes,
            seed=any_sketch.signature.seed,
        ).signature(bow.vocabulary)
        return DESketch(
            de_id="<query>",
            kind=DOCUMENT,
            content_bow=bow,
            metadata_bow=BagOfWords(),
            signature=signature,
            content_embedding=np.zeros(dim),
            metadata_embedding=np.zeros(dim),
        )

    def content_search(self, value: str, mode: str = "text",
                       k: int = 10) -> DiscoveryResultSet:
        """Keyword search over documents (``mode='text'``) or columns."""
        check_search_args(mode, k)
        terms = tokenize(value)
        engine = self.indexes.doc_content if mode == "text" else self.indexes.column_content
        hits = engine.search(terms, k=k)
        return DiscoveryResultSet(
            hits, operation="content_search", inputs={"value": value, "mode": mode}
        )

    def metadata_search(self, value: str, mode: str = "text",
                        k: int = 10) -> DiscoveryResultSet:
        """Keyword search over metadata (titles / schema names)."""
        check_search_args(mode, k)
        terms = tokenize(value)
        engine = (
            self.indexes.doc_metadata if mode == "text" else self.indexes.column_metadata
        )
        hits = engine.search(terms, k=k)
        return DiscoveryResultSet(
            hits, operation="metadata_search", inputs={"value": value, "mode": mode}
        )

    # --------------------------------------------------------- cross-modal

    def cross_modal_search(
        self,
        value: str,
        top_n: int = 3,
        representation: str = "joint",
        column_k: int | None = None,
    ) -> DiscoveryResultSet:
        """Find tables related to a document (Q2/Q3 of the paper).

        ``value`` is a profiled document id, or free text (in which case the
        containment + keyword path is used). ``representation`` selects the
        embedding space: ``"joint"`` (default; requires a trained model) or
        ``"solo"``.
        """
        if representation not in ("joint", "solo"):
            raise ValueError(f"unknown representation {representation!r}")
        check_positive(top_n, "top_n")
        if column_k is not None:
            check_positive(column_k, "column_k")
        column_k = column_k or max(top_n * 5, 10)

        if value in self.profile.documents:
            sketch = self.profile.documents[value]
            if representation == "joint":
                if not self.indexes.has_joint or self.joint_model is None:
                    raise RuntimeError(
                        "joint representation not trained; build CMDL with "
                        "use_joint=True or query with representation='solo'"
                    )
                query_vec = self.joint_model.embed(sketch.encoding[None, :])[0]
                hits = self.indexes.column_joint.query(query_vec, k=column_k)
            else:
                hits = self.encoding_column_hits(sketch.encoding, column_k)
        else:
            # Free-text query: containment + content keyword scores.
            sketch = self.text_query_sketch(value)
            containment, keyword = self.text_column_parts(sketch, column_k)
            hits = self.merge_text_column_parts(
                dict(containment), dict(keyword), column_k
            )

        tables = self._aggregate_to_tables(hits)
        return DiscoveryResultSet(
            tables[:top_n],
            operation="crossModal_search",
            inputs={"value": value, "representation": representation},
        )

    # The three pieces below are the scatter units of sharded cross-modal
    # search: each runs against local indexes only, returns raw
    # (column id, score) evidence, and defers the cross-source merge to
    # ``merge_text_column_parts`` / table aggregation — which the sharded
    # gatherer applies over per-shard parts exactly as the monolithic path
    # applies them over its own.

    def encoding_column_hits(
        self, encoding: np.ndarray, column_k: int
    ) -> list[tuple[str, float]]:
        """Top-``column_k`` columns by solo-encoding similarity (local ANN)."""
        return self.indexes.column_solo.query(encoding, k=column_k)

    def text_column_parts(
        self, sketch: DESketch, column_k: int
    ) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
        """(containment hits, keyword hits) for a free-text query sketch."""
        containment = self.indexes.column_containment.query(
            sketch.signature, k=column_k
        )
        keyword = self.indexes.column_content.search(
            sketch.content_bow.terms, k=column_k
        )
        return containment, keyword

    @staticmethod
    def merge_text_column_parts(
        containment: dict[str, float], keyword: dict[str, float], column_k: int
    ) -> list[tuple[str, float]]:
        """Combine containment + keyword evidence into ranked column hits.

        Keyword scores are normalised by the best keyword score *in the
        pool*, so the gatherer must merge per-shard keyword lists first
        (with group-merged corpus statistics the scores are comparable and
        the global best is the max of the per-shard bests).
        """
        top_kw = max(keyword.values(), default=1.0) or 1.0
        merged = {
            cid: containment.get(cid, 0.0) + keyword.get(cid, 0.0) / top_kw
            for cid in set(containment) | set(keyword)
        }
        return sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[:column_k]

    def _aggregate_to_tables(
        self, column_hits: list[tuple[str, float]]
    ) -> list[tuple[str, float]]:
        """Aggregate column relatedness to the table level (max per table)."""
        return aggregate_to_tables(
            column_hits, lambda cid: self.profile.columns[cid].table_name
        )

    # ---------------------------------------------------------- structured

    def joinable(self, table_name: str, top_n: int = 2,
                 strategy: str | None = None) -> DiscoveryResultSet:
        check_positive(top_n, "top_n")
        scorer = self._structured("joinable", strategy)
        hits = scorer.joinable_tables(table_name, k=top_n)
        return DiscoveryResultSet(
            hits, operation="joinable", inputs={"table": table_name}
        )

    def pkfk_links(self, strategy: str | None = None,
                   refresh: bool = False) -> list[PKFKLink]:
        """The lake-wide PK-FK link sweep, cached per strategy.

        This is the public accessor the executor, benchmarks, and tests
        share — nothing should poke a private cache. ``refresh=True``
        forces a re-sweep; :meth:`invalidate` drops all cached sweeps.
        """
        return self._pkfk_index(strategy, refresh).links

    def _pkfk_index(self, strategy: str | None = None,
                    refresh: bool = False) -> PKFKLinkIndex:
        """The sweep behind :meth:`pkfk_links` with its table adjacency;
        built with the sweep, dropped with it."""
        resolved = self._resolve_op_strategy("pkfk", strategy)
        if refresh or resolved not in self._pkfk_links:
            self._pkfk_links[resolved] = PKFKLinkIndex(
                self._structured("pkfk", resolved).discover(),
                lambda cid: self.profile.columns[cid].table_name,
            )
            self.pkfk_sweeps += 1
        return self._pkfk_links[resolved]

    #: Valid :meth:`invalidate` scopes, narrowest first.
    INVALIDATE_SCOPES = ("pkfk", "candidates", "all")

    def invalidate(self, scope: str = "all") -> None:
        """Drop derived state so no query can read stale results.

        ``scope`` selects how much to drop:

        * ``"pkfk"`` — cached PK-FK sweeps only (e.g. to force fresh sweeps
          for a timing run);
        * ``"candidates"`` — additionally the candidate generator and the
          structured scorers built over it (their probe caches and stacked
          signature matrices snapshot the profile);
        * ``"all"`` (default) — additionally bump :attr:`generation` and
          re-resolve ``"auto"`` operator strategies against the current
          profile size. Lake sessions call this on every mutation.
        """
        if scope not in self.INVALIDATE_SCOPES:
            raise ValueError(
                f"invalid invalidate scope {scope!r}; allowed values are "
                f"{', '.join(repr(s) for s in self.INVALIDATE_SCOPES)}"
            )
        self._pkfk_links.clear()
        if scope == "pkfk":
            return
        self.candidates = None
        self._structured_cache.clear()
        if scope == "candidates":
            return
        self.generation += 1
        self._planner.refresh()
        from repro.core.srql.planner import STRUCTURED_OPS

        self.operator_strategy = {
            op: self._planner.strategy_for(op) for op in STRUCTURED_OPS
        }

    def pkfk(self, table_name: str, top_n: int = 2,
             strategy: str | None = None) -> DiscoveryResultSet:
        """Tables PK-FK-joinable with ``table_name``."""
        check_positive(top_n, "top_n")
        ranked = self._pkfk_index(strategy).tables_for(table_name)
        return DiscoveryResultSet(
            ranked[:top_n], operation="pkfk", inputs={"table": table_name}
        )

    def unionable(self, table_name: str, top_n: int = 2,
                  strategy: str | None = None) -> DiscoveryResultSet:
        check_positive(top_n, "top_n")
        scorer = self._structured("unionable", strategy)
        hits = scorer.unionable_tables(table_name, k=top_n)
        return DiscoveryResultSet(
            hits, operation="unionable", inputs={"table": table_name}
        )

    # ------------------------------------------------------- SRQL queries

    def _query_runtime(self):
        """The (planner, lazily-built executor) pair for SRQL queries."""
        if self._executor is None:
            from repro.core.srql.executor import Executor

            self._executor = Executor(self, planner=self._planner)
        return self._planner, self._executor

    @staticmethod
    def _to_ast(query):
        from repro.core.srql.parser import parse_srql

        if isinstance(query, str):
            return parse_srql(query)
        return getattr(query, "ast", query)

    def discover(self, query) -> DiscoveryResultSet:
        """Run one declarative SRQL query.

        ``query`` may be a chainable :class:`~repro.core.srql.builder.Q`,
        a raw AST node, or an SRQL string (``SELECT * FROM lake WHERE
        joinable('drugs') TOP 2``). The query is validated and planned
        against this engine's profile, then executed; results are identical
        to the corresponding imperative method calls.
        """
        planner, executor = self._query_runtime()
        return executor.execute(planner.plan(self._to_ast(query)))

    def discover_batch(self, queries) -> list[DiscoveryResultSet]:
        """Run a workload of SRQL queries with batch amortisation.

        Shared subplans (structurally equal queries or subqueries) are
        computed once, same-operator primitives run grouped, and all
        ``pkfk`` queries share one link sweep per strategy. Results align
        positionally with ``queries``; :attr:`last_batch_stats` reports
        the reuse achieved.
        """
        planner, executor = self._query_runtime()
        plans = planner.plan_batch([self._to_ast(q) for q in queries])
        return executor.execute_batch(plans)

    @property
    def last_batch_stats(self):
        """Stats of the most recent discover / discover_batch call."""
        return self._executor.last_stats if self._executor else None
