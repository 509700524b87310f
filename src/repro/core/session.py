"""Mutable lake sessions: incremental add / remove / refresh over a fitted CMDL.

The paper presents discovery over a *living* data lake, but ``CMDL.fit`` is a
snapshot: any churn means a full refit. :class:`LakeSession` keeps a fitted
system live while the lake changes — the always-on posture HTAP systems take
toward mixing updates with analytics (Polynesia, arXiv:2103.00798) — by
maintaining delta paths through every layer:

* the **profiler** sketches only the new DEs (``profile_one`` /
  ``profile_table``; ``Profile.add_one`` / ``drop_one``);
* the **index catalog** inserts/deletes per DE — BM25 inverted indexes
  update their corpus statistics exactly (tombstoned postings, compacted
  past 25% churn), the LSH / LSH-Ensemble structures insert into the
  matching size partition and repartition lazily, the RP-forest ANN indexes
  scan fresh points exactly until a re-plant, and the interval index
  rebuilds its arrays lazily;
* the **engine** is invalidated under the generation-counter protocol
  (:meth:`DiscoveryEngine.invalidate`): the candidate generator, structured
  scorers, cached PK-FK sweeps, and ``"auto"`` strategy choices are all
  rebuilt lazily on the next query, so SRQL memoisation and the candidate
  caches can never serve stale results across mutations.

``engine.discover()`` keeps working unchanged mid-session. **Parity
contract:** value-set, name, numeric, and keyword semantics match a cold
``CMDL.fit`` on the final lake exactly (document bags are re-synced when the
corpus-wide df filter shifts). Embedding-based scores use the embedder *as
trained at fit time*: with a corpus-independent embedder (e.g.
:class:`~repro.embed.hashing_embedder.HashingEmbedder` via
``CMDLConfig.embedder``) incremental results are identical to a cold fit for
all six primitives; with the default corpus-trained blended embedder (or a
trained joint model) embeddings are frozen until :meth:`LakeSession.refresh`
retrains them.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path

from repro.core.discovery import DiscoveryEngine
from repro.core.mutation import check_mutation
from repro.core.profiler import DESketch
from repro.core.system import CMDL, CMDLConfig
from repro.relational.catalog import DataLake, Document
from repro.relational.table import Table


def open_lake(
    lake: DataLake | str | Path,
    config: CMDLConfig | None = None,
    gold_pairs: list[tuple[str, str, int]] | None = None,
    shards: int | None = None,
    router=None,
    global_stats: bool = True,
    auto_refresh_threshold: float | None = None,
):
    """Fit a CMDL system over ``lake`` and return a mutable session.

    Top-level convenience for ``CMDL(config).open(lake)``::

        from repro import open_lake, Q, Table

        session = open_lake(lake)
        session.discover(Q.joinable("drugs", top_n=2))
        session.add_table(Table.from_dict("trials", {...}))
        session.discover(Q.joinable("trials", top_n=2))   # no refit

    ``shards=N`` partitions the lake into N independently-fitted shards and
    returns a :class:`~repro.core.sharding.ShardedLakeSession` with the
    same mutation/query surface::

        session = open_lake(lake, shards=4)
        session.discover(Q.joinable("drugs", top_n=2))    # scatter-gather

    Shards share corpus-wide statistics, so a sharded session answers
    exactly as a monolithic one. ``global_stats`` is a compatibility
    check only: callers written when shard-local statistics were an option
    pass ``global_stats=True``, which is accepted and changes nothing;
    any other value raises ``ValueError``.

    Passing a path instead of a lake reopens a catalog previously written
    by ``session.save(path)`` — no refitting; every fit-time option was
    saved with the catalog, so none may be passed here::

        session = open_lake("catalog/")
    """
    if global_stats is not True:
        raise ValueError(
            "sharded lakes always keep corpus-wide statistics: "
            f"global_stats accepts only True, got {global_stats!r}"
        )
    if isinstance(lake, (str, Path)):
        options = {
            "config": config, "gold_pairs": gold_pairs, "shards": shards,
            "router": router, "auto_refresh_threshold": auto_refresh_threshold,
        }
        passed = [name for name, value in options.items() if value is not None]
        if passed:
            raise ValueError(
                "open_lake(path) reopens a saved catalog; fit-time options "
                "were persisted with it and cannot be passed here: "
                + ", ".join(passed)
            )
        from repro.store import load_catalog

        return load_catalog(lake)
    return CMDL(config).open(
        lake,
        gold_pairs=gold_pairs,
        shards=shards,
        router=router,
        auto_refresh_threshold=auto_refresh_threshold,
    )


class LakeSession:
    """A fitted CMDL system plus the mutable lake it serves.

    Obtained from :meth:`CMDL.open` / :func:`open_lake`. All mutators keep
    the profile, every index, and the engine's caches consistent; queries
    between mutations are served without any refitting.
    """

    def __init__(
        self,
        cmdl: CMDL,
        lake: DataLake,
        gold_pairs: list[tuple[str, str, int]] | None = None,
        auto_refresh_threshold: float | None = None,
    ):
        if cmdl.engine is None or cmdl.profiler is None:
            raise RuntimeError(
                "LakeSession needs a fitted CMDL; use CMDL.open(lake) or "
                "repro.open_lake(lake)"
            )
        self.cmdl = cmdl
        self.lake = lake
        #: Gold pairs the system was fitted with; :meth:`refresh` reuses
        #: them so a refreshed session equals a cold fit with the same gold.
        self.gold_pairs = gold_pairs
        #: Mutations applied since open()/refresh() (diagnostic).
        self.mutations = 0
        #: When set, every mutation checks :meth:`drift` against this bound
        #: and triggers :meth:`refresh` once exceeded — the session retrains
        #: its frozen embedder on its own schedule as churn accumulates.
        self.auto_refresh_threshold = auto_refresh_threshold
        if auto_refresh_threshold is not None and not (
            0.0 <= auto_refresh_threshold <= 1.0
        ):
            raise ValueError(
                "auto_refresh_threshold must be in [0, 1] (an OOV rate), "
                f"got {auto_refresh_threshold!r}"
            )
        self._fit_vocabulary: set[str] = self._profile_vocabulary()
        #: Post-fit DE id -> its distinct terms. Keyed per DE so removals
        #: and replacements prune their contribution: drift always reflects
        #: the DEs *currently* in the lake that the fit never saw.
        self._post_fit_terms: dict[str, frozenset[str]] = {}
        #: Bound :class:`~repro.store.catalog.LakeStore` once :meth:`save`
        #: has written (or :func:`repro.open_lake` has reopened) a catalog.
        self._store = None

    # ------------------------------------------------------------- access

    @property
    def engine(self) -> DiscoveryEngine:
        """The live engine (replaced wholesale by :meth:`refresh`)."""
        return self.cmdl.engine

    @property
    def profile(self):
        return self.cmdl.profile

    @property
    def indexes(self):
        return self.cmdl.indexes

    @property
    def profiler(self):
        return self.cmdl.profiler

    @property
    def generation(self) -> int:
        """The engine's cache generation; bumps on every mutation."""
        return self.engine.generation

    def discover(self, query):
        """Run one SRQL query against the current lake state."""
        return self.engine.discover(query)

    def discover_batch(self, queries):
        """Run an SRQL workload against the current lake state."""
        return self.engine.discover_batch(queries)

    # -------------------------------------------------------------- drift

    def drift(self) -> float:
        """Embedding drift: OOV rate of post-fit DEs vs the fit vocabulary.

        Lake sessions keep the corpus-trained embedder frozen between
        :meth:`refresh` calls, so DEs added since the fit are embedded with
        vectors that never saw their vocabulary. This metric is the
        fraction of *distinct* terms across the post-fit DEs still in the
        lake (content + metadata bags; removed or replaced DEs stop
        counting) that are out-of-vocabulary w.r.t. the fit-time
        vocabulary — 0.0 right after a fit/refresh, rising toward 1.0 as
        mutations introduce novel language. With a corpus-independent
        embedder (the parity config) drift is harmless to scores, but it
        still measures how far the lake has moved from the fitted corpus.
        """
        oov, total = self._drift_counts()
        return oov / total if total else 0.0

    def _drift_counts(self) -> tuple[int, int]:
        """(OOV terms, total terms) over live post-fit DEs — the
        aggregation unit sharded sessions sum across shards."""
        if not self._post_fit_terms:
            return 0, 0
        terms: set[str] = set().union(*self._post_fit_terms.values())
        if not terms:
            return 0, 0
        oov = len(terms - self._fit_vocabulary)
        return oov, len(terms)

    def _profile_vocabulary(self) -> set[str]:
        """Every term the fit embedded (content + metadata bags, all DEs)."""
        vocabulary: set[str] = set()
        profile = self.cmdl.profile
        for sketch in {**profile.documents, **profile.columns}.values():
            vocabulary.update(sketch.content_bow.terms)
            vocabulary.update(sketch.metadata_bow.terms)
        return vocabulary

    def _track_post_fit(self, sketch: DESketch) -> None:
        self._post_fit_terms[sketch.de_id] = frozenset(
            set(sketch.content_bow.terms) | set(sketch.metadata_bow.terms)
        )

    def _untrack_post_fit(self, de_id: str) -> None:
        self._post_fit_terms.pop(de_id, None)

    # ----------------------------------------------------------- mutators

    def add_table(self, table: Table) -> None:
        """Add one table: sketch its columns, delta-index them, invalidate."""
        with self._journal("add_table", {"table": table}):
            self.lake.add_table(table)
            self._register_table(table)
            self._commit()

    def add_document(self, document: Document) -> None:
        """Add one document (re-syncing df-filtered bags), invalidate."""
        self.add_documents([document])

    def add_documents(self, documents: list[Document]) -> None:
        """Add several documents with a single re-sync and invalidation."""
        if not documents:
            return
        with self._journal("add_documents", {"documents": list(documents)}):
            self.lake.add_documents(documents)
            self._resync_documents()
            for document in documents:
                self._track_post_fit(self.profile.documents[document.doc_id])
            self._commit()

    def remove(self, name: str) -> None:
        """Remove a table (by name) or a document (by id) from the session.

        Table and document ids share no namespace in practice (column DEs
        are ``table.column``); tables are checked first.
        """
        with self._journal("remove", {"name": name}):
            if self.lake.has_table(name):
                self._unregister_table(name)
                self.lake.remove_table(name)
            else:
                self.indexes.remove_document(name)
                self.profile.drop_one(name)
                self.lake.remove_document(name)
                self._untrack_post_fit(name)
                self._resync_documents()
            self._commit()

    def update_table(self, table: Table) -> None:
        """Replace an existing table in place (schema/type changes included).

        Equivalent to ``remove`` + ``add_table`` under one invalidation;
        raises ``KeyError`` if no table of that name exists.
        """
        with self._journal("update_table", {"table": table}):
            self._unregister_table(table.name)
            self.lake.remove_table(table.name)
            self.lake.add_table(table)
            self._register_table(table)
            self._commit()

    def refresh(self, gold_pairs=None) -> DiscoveryEngine:
        """Full refit on the current lake: cold-fit equivalence restored.

        Retrains the embedder (when corpus-trained) and the joint model,
        rebuilds every index from scratch, and replaces the engine. The
        gold pairs the session was opened with are reused unless new ones
        are passed (which become the session's gold from then on). The
        generation counter stays monotonic across the swap so stale
        :class:`~repro.core.srql.executor.ExecutionStats` remain detectable.
        """
        with self._journal(
            "refresh",
            {"with_gold": gold_pairs is not None, "gold_pairs": gold_pairs},
        ):
            if gold_pairs is not None:
                self.gold_pairs = gold_pairs
            generation = self.engine.generation
            self.cmdl.fit(self.lake, gold_pairs=self.gold_pairs)
            engine = self.cmdl.engine
            engine.generation = generation + 1
            if engine.candidates is not None:
                # Keep the stamp invariant: the freshly-built generator
                # belongs to the generation the refreshed engine carries.
                engine.candidates.generation = engine.generation
            self.mutations = 0
            self._fit_vocabulary = self._profile_vocabulary()
            self._post_fit_terms = {}
        return engine

    # -------------------------------------------------------- persistence

    def save(self, path: str | Path | None = None):
        """Write (or checkpoint) this session's durable catalog.

        The first call needs a ``path`` and full-writes the catalog; the
        session stays bound to it, journaling every subsequent mutation.
        Later calls checkpoint the bound catalog — folding the journal tail
        into the data tables incrementally — or, given a *different* path,
        close the previous catalog and rebind with a fresh full write.
        Returns the catalog path.
        """
        from repro.store import save_session

        return save_session(self, path)

    def close(self) -> None:
        """Release the bound catalog's file handles (idempotent).

        Any journal tail not yet folded by a checkpoint stays durable on
        disk — reopening the catalog replays it — so closing with a save
        pending loses nothing.
        """
        if self._store is not None:
            self._store.close()
            self._store = None

    def serve(self, backend: str = "thread", **kwargs):
        """Wrap this lake in a concurrent :class:`~repro.serve.LakeServer`.

        ``backend="thread"`` serves the live session in place (the session
        stays yours to close). ``backend="process"`` checkpoints the bound
        catalog, closes this session, and serves the catalog directory
        from a worker process — the server becomes the sole writer;
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

    def __enter__(self) -> "LakeSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _journal(self, op: str, payload: dict):
        """Validate one mutation against this session's profile, then open
        its write-ahead journal scope (a no-op when no catalog is bound)."""
        check_mutation(op, payload, self.profile, self.lake.name)
        if self._store is None:
            return nullcontext()
        return self._store.journal_scope(op, payload)

    # ---------------------------------------------------------- internals

    def _commit(self) -> None:
        self.mutations += 1
        self.engine.invalidate("all")
        if (
            self.auto_refresh_threshold is not None
            and self.drift() > self.auto_refresh_threshold
        ):
            # Churn introduced enough novel vocabulary: retrain now. The
            # refresh resets the drift trackers, so this cannot recurse.
            self.refresh()

    def _register_table(self, table: Table) -> None:
        # Cold fit registers every table, including zero-column ones.
        self.profile.table_columns.setdefault(table.name, [])
        for sketch in self.profiler.profile_table(table):
            self.profile.add_one(sketch)
            self.indexes.insert_column(sketch)
            self.engine.uniqueness[sketch.de_id] = table.column(
                sketch.column_name
            ).uniqueness
            self._joint_index_column(sketch)
            self._track_post_fit(sketch)

    def _unregister_table(self, name: str) -> None:
        for col_id in list(self.profile.columns_of_table(name)):
            self.indexes.remove_column(col_id)
            self.profile.drop_one(col_id)
            self.engine.uniqueness.pop(col_id, None)
            self._untrack_post_fit(col_id)
        self.profile.table_columns.pop(name, None)

    def _resync_documents(self) -> int:
        """Re-fit the document pipeline and re-sketch drifted documents.

        The pipeline's df filter is corpus-wide, so adding or removing a
        document can change *other* documents' bags of words; only those
        whose bag actually changed are re-sketched and re-indexed, which
        keeps the keyword/containment paths byte-identical to a cold fit on
        the current corpus. (When the pipeline's filter is *pinned* — every
        shard of a sharded lake — the fit call is a no-op and only
        documents whose bag changed under the pinned filter are touched.)
        Returns the number of documents (re-)sketched, so callers — the
        sharded session syncing sibling shards after a corpus-wide filter
        shift — can tell whether this shard actually changed.
        """
        pipeline = self.profiler.pipeline
        pipeline.fit(d.text for d in self.lake.documents)
        changed = 0
        for document in self.lake.documents:
            old = self.profile.documents.get(document.doc_id)
            bow = None
            if old is not None:
                bow = pipeline.transform(document.text)
                if bow.terms == old.content_bow.terms:
                    continue
                self.indexes.remove_document(document.doc_id)
                self.profile.drop_one(document.doc_id)
            sketch = self.profiler.profile_one(document, content=bow)
            self.profile.add_one(sketch)
            self.indexes.insert_document(sketch)
            self._joint_index_document(sketch)
            if sketch.de_id in self._post_fit_terms:
                # A post-fit document re-sketched under a shifted df filter:
                # keep its drift contribution in step with its live bag.
                self._track_post_fit(sketch)
            changed += 1
        return changed

    def _joint_index_column(self, sketch: DESketch) -> None:
        """Delta-index a new column's joint vector under the frozen model
        (text-discovery columns only, matching the fit-time population)."""
        if self.cmdl.joint_model is None or not self.indexes.has_joint:
            return
        if sketch.tags is None or not sketch.tags.text_discovery:
            return
        vector = self.cmdl.joint_model.embed(sketch.encoding[None, :])[0]
        self.indexes.insert_joint_column(sketch.de_id, vector)

    def _joint_index_document(self, sketch: DESketch) -> None:
        if self.cmdl.joint_model is None or self.indexes.doc_joint is None:
            return
        vector = self.cmdl.joint_model.embed(sketch.encoding[None, :])[0]
        self.indexes.insert_joint_document(sketch.de_id, vector)
