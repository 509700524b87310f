"""Persistent lake catalogs: save a fitted session, reopen without refit.

A saved catalog is a directory::

    catalog/
        catalog.sqlite      # manifest: kind, shard count, router, journal seq
        shard-0000.sqlite   # per-shard data (monolithic lakes have one)
        shard-0001.sqlite
        ...

Each shard file (see :class:`~repro.store.shard.ShardStore`) carries
everything a cold ``CMDL.fit`` would have produced for that shard — lake
rows, DE sketches, every index structure's ``persistent_state()``, embedder
and pipeline state, the engine's resolved strategy table, and the session's
drift trackers — so :func:`load_catalog` rebuilds a live session with *no*
refitting: byte-identical profiles, indexes restored slab-for-slab, and the
engine's fit-time strategy decisions pinned rather than re-derived against
whatever the profile has since become.

Every slab is written once. The profile's sketches are the source of truth;
an index section whose entries are exact functions of a sketch
(``IndexCatalog.SKETCH_SOURCES``: the two LSH Ensembles and the three solo
forests) stores a *reference* — the key — in place of a signature or
vector it shares with the sketch, and restore resolves it through the
already-restored profile (signatures bind to the sketch's own objects, as
in the live session; forest rows are one division by the stored norm). This
rests on one invariant of the checkpoint below: **a sketch row changes
only in a checkpoint that also rewrites every index section that references
it** — a changed column sketch brings the column index sections, a changed
document sketch the document ones, shard by shard. A reference that does
not resolve on restore raises :class:`~repro.store.shard.CatalogCorrupt`
naming the file and section; it never yields a wrong row. :func:`footprint`
reports where a catalog's bytes are.

Durability between checkpoints comes from a **write-ahead mutation
journal**: a bound session appends each mutation (add/update/remove/
rebalance/refresh) to the owning shard's journal *before* applying it, and
:meth:`LakeStore.checkpoint` folds the accumulated state back into the data
tables and clears the tail. Reopening a catalog replays any surviving tail
through the public mutators — the reopened session lands on the exact
generation the writer last reached.

Checkpoints are a diff of session state, not a replay of the journal: per
shard, the store keeps a :class:`ShardImage` — weak references to the
tables, documents, sketches and ``IndexCatalog`` the file was last written
from or restored into — and :func:`checkpoint_shard` writes exactly the
entries whose live object is not the imaged one, deletes the keys that are
gone, and rewrites every state section when the ``IndexCatalog`` itself
was replaced (a refresh). It knows no mutation op, so a new mutator needs
nothing here; the shard worker of :mod:`repro.serve` checkpoints through
the same function.
"""

from __future__ import annotations

import weakref
from contextlib import closing, contextmanager
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from repro.core.candidates import CandidateGenerator
from repro.core.discovery import DiscoveryEngine
from repro.core.indexes import IndexCatalog, UnresolvedReference
from repro.core.mutation import apply_mutation, journal_shard
from repro.core.profiler import Profile, Profiler
from repro.core.session import LakeSession
from repro.core.sharding import ShardedLakeSession, ShardRouter
from repro.core.system import CMDL
from repro.embed.blended import BlendedEmbedder
from repro.embed.hashing_embedder import HashingEmbedder
from repro.embed.ppmi import PPMIEmbedder
from repro.relational.catalog import DataLake
from repro.store.shard import CatalogCorrupt, ShardStore
from repro.text.pipeline import DocumentPipeline

#: Default mutation count between automatic checkpoints of a bound session.
DEFAULT_CHECKPOINT_EVERY = 64

#: Index structures persisted as their own state sections, split by which
#: side of the lake mutates them: document churn never touches the column
#: structures and vice versa, so a delta checkpoint rewrites only one side.
DOC_INDEX_SECTIONS = ("doc_content", "doc_metadata", "doc_solo", "doc_joint")
COL_INDEX_SECTIONS = (
    "column_content",
    "column_metadata",
    "column_schema",
    "column_schema_ngrams",
    "column_containment",
    "value_containment",
    "column_numeric",
    "column_semantic",
    "column_solo",
    "column_joint",
)
INDEX_SECTIONS = DOC_INDEX_SECTIONS + COL_INDEX_SECTIONS

_EMBEDDER_CLASSES = {
    cls.__name__: cls
    for cls in (HashingEmbedder, PPMIEmbedder, BlendedEmbedder)
}


# ------------------------------------------------------------ state helpers


def _embedder_state(embedder):
    """Class-tagged embedder state; unknown embedder types pickle whole."""
    if embedder is None:
        return None
    name = type(embedder).__name__
    if _EMBEDDER_CLASSES.get(name) is type(embedder):
        return {"class": name, "state": embedder.persistent_state()}
    return {"class": "__pickled__", "state": embedder}


def _restore_embedder(payload):
    if payload is None:
        return None
    if payload["class"] == "__pickled__":
        return payload["state"]
    return _EMBEDDER_CLASSES[payload["class"]].restore_state(payload["state"])


def _config_state(config) -> dict:
    """The config with its live embedder/pipeline objects stripped — those
    are persisted (and restored) through their own state sections."""
    return {
        "config": replace(config, embedder=None, document_pipeline=None),
        "had_embedder": config.embedder is not None,
        "had_pipeline": config.document_pipeline is not None,
    }


# ----------------------------------------------------------- shard writing


def _write_shard_small(db: ShardStore, session: LakeSession) -> None:
    """The sections rewritten on every checkpoint: cheap, always current."""
    profile = session.profile
    db.put_state(
        "profile_meta",
        {
            "doc_order": list(profile.documents),
            "col_order": list(profile.columns),
            "table_columns": {
                name: list(cols) for name, cols in profile.table_columns.items()
            },
            "structured_seconds": profile.structured_seconds,
            "unstructured_seconds": profile.unstructured_seconds,
            "fit_stats": profile.fit_stats,
        },
    )
    engine = session.engine
    db.put_state(
        "engine",
        {
            "strategy": engine.strategy,
            "operator_strategies": dict(engine.operator_strategies),
            # The *resolved* per-operator table: reopening must pin the
            # fit-time decisions, not re-run "auto" against a profile that
            # journaled mutations may have grown or shrunk.
            "operator_strategy": dict(engine.operator_strategy),
            "uniqueness": dict(engine.uniqueness),
            "pkfk_params": dict(engine.pkfk_params),
            "generation": engine.generation,
        },
    )
    db.put_state(
        "session",
        {
            "gold_pairs": session.gold_pairs,
            "mutations": session.mutations,
            "auto_refresh_threshold": session.auto_refresh_threshold,
            "fit_vocabulary": sorted(session._fit_vocabulary),
            "post_fit_terms": {
                de_id: sorted(terms)
                for de_id, terms in session._post_fit_terms.items()
            },
        },
    )
    indexes = session.indexes
    db.put_state(
        "index:meta",
        {
            "seed": indexes.seed,
            "index_breakdown": dict(indexes.index_breakdown),
            "text_columns": sorted(indexes._text_columns),
        },
    )
    # A sharded lake's pinned df filter can move while none of this
    # shard's documents do.
    db.put_state("pipeline", session.profiler.pipeline.persistent_state())
    db.put_meta("generation", str(engine.generation))
    db.put_meta("lake_name", session.lake.name)


def _shard_sessions(session) -> list[LakeSession]:
    """A catalog's shard sessions (a monolithic lake is one shard)."""
    if isinstance(session, ShardedLakeSession):
        return session.shards
    return [session]


class ShardImage(NamedTuple):
    """What one shard file holds, as the live objects it was last written
    from (or restored into): weak references keyed as the file keys its
    rows, the two lake row maps in rowid order. A checkpoint diffs the
    session against its image; it knows nothing of the mutations between.
    """

    tables: dict[str, weakref.ref]
    documents: dict[str, weakref.ref]
    doc_sketches: dict[str, weakref.ref]
    col_sketches: dict[str, weakref.ref]
    indexes: weakref.ref | None

    @classmethod
    def of(cls, session: LakeSession) -> "ShardImage":
        """The image of ``session`` as it stands."""
        return cls(*(_refs(live) for live in _live_maps(session)),
                   weakref.ref(session.indexes))


def _live_maps(session: LakeSession) -> tuple[dict, ...]:
    lake, profile = session.lake, session.profile
    return (
        {table.name: table for table in lake.tables},
        {document.doc_id: document for document in lake.documents},
        profile.documents,
        profile.columns,
    )


def _refs(live: dict) -> dict[str, weakref.ref]:
    return {key: weakref.ref(obj) for key, obj in live.items()}


def _stale(live: dict, written: dict[str, weakref.ref]) -> list[str]:
    """Keys whose live object is not the one last written, in live order."""
    return [
        key for key, obj in live.items()
        if key not in written or written[key]() is not obj
    ]


def _write_rows(db: ShardStore, table: str, live: dict, written: dict) -> None:
    stale = _stale(live, written)
    fresh = set(stale)
    kept = [key for key in written if key in live and key not in fresh]
    if kept + stale != list(live):
        # Restore adds rows in rowid order, which must be the live dict's
        # order; rewritten rows go to the end, so when a kept row moved (a
        # table removed and re-added as the same object) rewrite them all.
        db.clear(table)
        stale = list(live)
    else:
        for key in written.keys() - live.keys():
            db.delete_row(table, key)
    for key in stale:
        db.put_row(table, key, live[key])


def _write_sketches(db: ShardStore, live: dict, written: dict) -> bool:
    """Bring one side's sketch rows up to date; whether any changed."""
    stale = _stale(live, written)
    gone = written.keys() - live.keys()
    for de_id in gone:
        db.delete_sketch(de_id)
    for de_id in stale:
        db.put_sketch(de_id, live[de_id].kind, live[de_id])
    return bool(stale or gone)


def checkpoint_shard(
    db: ShardStore, session: LakeSession, image: ShardImage | None = None
) -> ShardImage:
    """Stage on ``db`` what ``session`` holds that ``image`` — what the
    file was last written from or restored into — does not, and return
    the session's new image; ``image=None`` writes everything.

    Rows and sketches are written when their live object is not the
    imaged one and deleted when their key is gone; a side's index
    sections when any of its sketches changed (the invariant schema v2
    rests on, see the module docs); every state section when the
    ``IndexCatalog`` is not the imaged one (a refresh refitted the shard);
    the small sections always. The caller clears the journal and commits:
    one body behind ``LakeStore.checkpoint``, ``save`` and the shard
    worker's ``checkpoint`` op.
    """
    if image is None:
        for table in ("lake_tables", "lake_documents", "sketches"):
            db.clear(table)
        image = ShardImage({}, {}, {}, {}, None)
    full = image.indexes is None or image.indexes() is not session.indexes
    tables, documents, doc_sketches, col_sketches = _live_maps(session)
    _write_rows(db, "lake_tables", tables, image.tables)
    _write_rows(db, "lake_documents", documents, image.documents)
    sections = ()
    if _write_sketches(db, doc_sketches, image.doc_sketches) or full:
        sections += DOC_INDEX_SECTIONS
    if _write_sketches(db, col_sketches, image.col_sketches) or full:
        sections += COL_INDEX_SECTIONS
    indexes = session.indexes
    for name in sections:
        db.put_state(f"index:{name}", indexes.section_state(name))
    if full:
        db.put_state("embedder", _embedder_state(session.profiler.embedder))
        db.put_state("config", _config_state(session.cmdl.config))
        db.put_state("joint", {"model": session.cmdl.joint_model})
    _write_shard_small(db, session)
    return ShardImage.of(session)


# ---------------------------------------------------------- shard restoring


def _restore_shard(db: ShardStore) -> LakeSession:
    """One shard file -> one live :class:`LakeSession`, no refitting."""
    pipeline = DocumentPipeline.restore_state(db.get_state("pipeline"))
    embedder = _restore_embedder(db.get_state("embedder"))
    config_payload = db.get_state("config")
    config = config_payload["config"]
    if config_payload["had_pipeline"]:
        config.document_pipeline = pipeline
    if config_payload["had_embedder"]:
        config.embedder = embedder

    lake = DataLake(name=db.get_meta("lake_name", "lake"))
    for _, table in db.iter_rows("lake_tables"):
        lake.add_table(table)
    for _, document in db.iter_rows("lake_documents"):
        lake.add_document(document)

    sketches = {de_id: sketch for de_id, _, sketch in db.iter_sketches()}
    profile_meta = db.get_state("profile_meta")
    profile = Profile(
        documents={d: sketches[d] for d in profile_meta["doc_order"]},
        columns={c: sketches[c] for c in profile_meta["col_order"]},
        table_columns={
            name: list(cols)
            for name, cols in profile_meta["table_columns"].items()
        },
        structured_seconds=profile_meta["structured_seconds"],
        unstructured_seconds=profile_meta["unstructured_seconds"],
        fit_stats=profile_meta["fit_stats"],
    )

    index_meta = db.get_state("index:meta")
    index_state = {
        "seed": index_meta["seed"],
        "index_breakdown": index_meta["index_breakdown"],
        "text_columns": index_meta["text_columns"],
    }
    for name in INDEX_SECTIONS:
        index_state[name] = db.get_state(f"index:{name}")
    try:
        indexes = IndexCatalog.restore_state(profile, index_state)
    except UnresolvedReference as exc:
        raise CatalogCorrupt(
            f"catalog file {db.path} section 'index:{exc.section}' does not "
            f"match the file's sketches: {exc}"
        ) from exc
    joint_model = db.get_state("joint")["model"]

    cmdl = CMDL(config)
    cmdl.profiler = Profiler(
        embedding_dim=config.embedding_dim,
        num_hashes=config.num_hashes,
        pooling=config.pooling,
        embedder=embedder,
        pipeline=pipeline,
        seed=config.seed,
    )
    cmdl.profile = profile
    cmdl.indexes = indexes
    cmdl.joint_model = joint_model
    cmdl.fit_stats = profile.fit_stats

    engine_state = db.get_state("engine")
    engine = DiscoveryEngine(
        profile=profile,
        indexes=indexes,
        joint_model=joint_model,
        uniqueness=engine_state["uniqueness"],
        pkfk_params=engine_state["pkfk_params"],
        strategy=engine_state["strategy"],
        operator_strategies=engine_state["operator_strategies"],
    )
    # Pin the fit-time resolution (an "auto" strategy re-resolved here would
    # see the journal-mutated profile, not the one the writer fitted).
    engine.operator_strategy = dict(engine_state["operator_strategy"])
    engine.generation = engine_state["generation"]
    if "indexed" in engine.operator_strategy.values():
        if engine.candidates is None:
            engine.candidates = CandidateGenerator(
                profile, indexes, generation=engine.generation
            )
        else:
            engine.candidates.generation = engine.generation
    else:
        engine.candidates = None
    cmdl.engine = engine

    session_state = db.get_state("session")
    session = LakeSession(
        cmdl,
        lake,
        gold_pairs=session_state["gold_pairs"],
        auto_refresh_threshold=session_state["auto_refresh_threshold"],
    )
    session.mutations = session_state["mutations"]
    # Drift trackers survive the reopen: the fit-time vocabulary, not the
    # current profile's, is the OOV baseline.
    session._fit_vocabulary = set(session_state["fit_vocabulary"])
    session._post_fit_terms = {
        de_id: frozenset(terms)
        for de_id, terms in session_state["post_fit_terms"].items()
    }
    return session


# -------------------------------------------------------------- lake store


class Manifest(NamedTuple):
    """A catalog's ``catalog.sqlite`` as :meth:`LakeStore._write_manifest`
    wrote it. ``router`` is ``ShardRouter(1)`` and ``top`` (the session's
    fit-time options and config) and ``df_pipeline`` (its corpus-wide df
    filter) are ``None`` for a monolithic lake."""

    kind: str
    name: str
    num_shards: int
    journal_seq: int
    checkpoint_every: int
    router: ShardRouter
    top: dict | None
    df_pipeline: DocumentPipeline | None


def read_manifest(db: ShardStore) -> Manifest:
    """The one parser of a catalog's manifest (catalog reopen, process
    server, worker journal replay). Refuses an unknown lake kind, and —
    with :class:`~repro.store.shard.CatalogCorrupt` — a sharded catalog
    saved with shard-local statistics: its document bags were built under
    per-shard df filters, so reading it as corpus-wide would answer
    differently from the lake that wrote it."""
    kind = db.get_meta("kind")
    if kind not in ("monolithic", "sharded"):
        raise ValueError(f"catalog at {db.path.parent} has unknown kind {kind!r}")
    router, top, df_pipeline = ShardRouter(1), None, None
    if kind == "sharded":
        state = db.get_state("router")
        router = ShardRouter(
            state["num_shards"],
            assignments=dict(state["assignments"]),
            seed=state["seed"],
        )
        top = db.get_state("top")
        # A pool size picked on one host means nothing on another: drop
        # it, so a server rewriting this manifest does not carry it on.
        top.pop("fit_workers", None)
        if top.get("global_stats", True) is not True:
            raise CatalogCorrupt(
                f"catalog file {db.path} was saved with shard-local "
                "statistics; sharded lakes always keep corpus-wide "
                "statistics — refit the lake and save it again"
            )
        df_pipeline = DocumentPipeline.restore_state(top["df_pipeline"])
    return Manifest(
        kind=kind,
        name=db.get_meta("name", "lake"),
        num_shards=int(db.get_meta("num_shards", "1")),
        journal_seq=int(db.get_meta("journal_seq", "0")),
        checkpoint_every=int(
            db.get_meta("checkpoint_every", str(DEFAULT_CHECKPOINT_EVERY))
        ),
        router=router,
        top=top,
        df_pipeline=df_pipeline,
    )


class LakeStore:
    """A saved catalog directory bound to one live session.

    Created by ``session.save(path)`` (which full-writes every shard) or by
    :func:`load_catalog` (which restores the session from disk). While
    bound, every session mutation passes through :meth:`journal_scope` —
    write-ahead journaling, nothing else — and :meth:`checkpoint` folds
    the journal tail into the data tables by diffing each shard session
    against the :class:`ShardImage` of what its file holds.
    """

    def __init__(
        self,
        path: Path,
        kind: str,
        catalog_db: ShardStore,
        shard_dbs: list[ShardStore],
        session,
        images: list[ShardImage | None],
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ):
        self.path = path
        self.kind = kind
        self.catalog_db = catalog_db
        self.shard_dbs = shard_dbs
        self.session = session
        self.checkpoint_every = checkpoint_every
        #: Journal placement (a monolithic catalog is one shard).
        self._router = session.router if kind == "sharded" else ShardRouter(1)
        self._seq = int(catalog_db.get_meta("journal_seq", "0"))
        #: Per shard, what its file holds (``None``: unknown, write all).
        self._images = images
        self._pending = 0
        self._active = False
        self._replaying = False

    # ------------------------------------------------------------- create

    @classmethod
    def create(cls, path: str | Path, session) -> "LakeStore":
        """Full-write ``session`` into a (possibly pre-existing) catalog
        directory and bind the store to the session."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        kind = (
            "sharded" if isinstance(session, ShardedLakeSession) else "monolithic"
        )
        shard_sessions = _shard_sessions(session)
        # Drop shard files (and WAL sidecars) a previous, differently-shaped
        # catalog left behind.
        keep = {f"shard-{i:04d}.sqlite" for i in range(len(shard_sessions))}
        for stale in path.glob("shard-*.sqlite*"):
            if stale.name.split(".sqlite")[0] + ".sqlite" not in keep:
                stale.unlink()
        catalog_db = ShardStore(path / "catalog.sqlite", create=True)
        shard_dbs = [
            ShardStore(path / f"shard-{i:04d}.sqlite", create=True)
            for i in range(len(shard_sessions))
        ]
        store = cls(
            path, kind, catalog_db, shard_dbs, session,
            images=[None] * len(shard_dbs),
        )
        store._seq = 0
        store.checkpoint()
        session._store = store
        return store

    # --------------------------------------------------------------- open

    @classmethod
    def open(cls, path: str | Path):
        """Reopen a saved catalog: restore the session, replay the journal
        tail, and return the bound live session."""
        path = Path(path)
        catalog_db = ShardStore(path / "catalog.sqlite")
        manifest = read_manifest(catalog_db)
        shard_dbs = [
            ShardStore(path / f"shard-{i:04d}.sqlite")
            for i in range(manifest.num_shards)
        ]
        if manifest.kind == "monolithic":
            session = _restore_shard(shard_dbs[0])
        else:
            shards = [_restore_shard(db) for db in shard_dbs]
            top = manifest.top
            config_payload = top["config"]
            config = config_payload["config"]
            # The top-level config's live objects come back from shard 0's
            # restored copies (shard fits deep-copy them anyway).
            if config_payload["had_pipeline"]:
                config.document_pipeline = shards[0].profiler.pipeline
            if config_payload["had_embedder"]:
                config.embedder = shards[0].profiler.embedder
            session = ShardedLakeSession._restore(
                config=config,
                router=manifest.router,
                name=manifest.name,
                gold_pairs=top["gold_pairs"],
                auto_refresh_threshold=top["auto_refresh_threshold"],
                df_pipeline=manifest.df_pipeline,
                shards=shards,
            )
        store = cls(
            path,
            manifest.kind,
            catalog_db,
            shard_dbs,
            session,
            # Imaged before the replay: the journal tail is not on file.
            images=[ShardImage.of(s) for s in _shard_sessions(session)],
            checkpoint_every=manifest.checkpoint_every,
        )
        session._store = store
        store._replay()
        return session

    # ----------------------------------------------------------- journal

    @contextmanager
    def journal_scope(self, op: str, payload: dict):
        """Write-ahead wrap of one session mutation.

        The record is journaled *before* the mutation runs (a crash mid-op
        replays it to completion on reopen) and dropped again if the
        mutator raises; the session validates the mutation before opening
        the scope, so a rejected one never reaches the journal. Nested
        entries — an auto-refresh firing inside a mutator — are
        deliberately not journaled: replaying the outer op re-triggers
        them deterministically.
        """
        if self._active:
            yield
            return
        self._active = True
        try:
            seq = None
            if not self._replaying:
                seq = self._next_seq()
                db = self.shard_dbs[journal_shard(op, payload, self._router)]
                db.append_journal(seq, op, payload)
                db.commit()
            try:
                yield
            except BaseException:
                if seq is not None:
                    db.delete_journal(seq)
                    db.commit()
                raise
            if not self._replaying:
                self._pending += 1
                if self.checkpoint_every and self._pending >= self.checkpoint_every:
                    self.checkpoint()
        finally:
            self._active = False

    def _next_seq(self) -> int:
        self._seq += 1
        self.catalog_db.put_meta("journal_seq", str(self._seq))
        self.catalog_db.commit()
        return self._seq

    def _replay(self) -> None:
        entries: list[tuple[int, str, object]] = []
        for db in self.shard_dbs:
            entries.extend(db.journal_entries())
        entries.sort(key=lambda entry: entry[0])
        if not entries:
            return
        self._replaying = True
        try:
            for _, op, payload in entries:
                apply_mutation(self.session, op, payload)
        finally:
            self._replaying = False
        self._pending = len(entries)

    # --------------------------------------------------------- checkpoint

    def checkpoint(self) -> None:
        """Fold the journal tail into the data tables and clear it: each
        shard file gets what its session holds that the file does not
        (:func:`checkpoint_shard`)."""
        for i, (db, shard_session) in enumerate(
            zip(self.shard_dbs, _shard_sessions(self.session))
        ):
            image = checkpoint_shard(db, shard_session, self._images[i])
            db.clear_journal()
            db.commit()
            self._images[i] = image
        self._write_manifest()
        self._pending = 0

    def _write_manifest(self) -> None:
        catalog = self.catalog_db
        catalog.put_meta("kind", self.kind)
        catalog.put_meta("num_shards", str(len(self.shard_dbs)))
        catalog.put_meta("checkpoint_every", str(self.checkpoint_every))
        catalog.put_meta("journal_seq", str(self._seq))
        session = self.session
        if self.kind == "sharded":
            catalog.put_meta("name", session.name)
            catalog.put_state(
                "router",
                {
                    "num_shards": session.router.num_shards,
                    "seed": session.router.seed,
                    "assignments": dict(session.router.assignments),
                },
            )
            catalog.put_state(
                "top",
                {
                    "gold_pairs": session.gold_pairs,
                    "auto_refresh_threshold": session.auto_refresh_threshold,
                    "config": _config_state(session.config),
                    "df_pipeline": session._df_pipeline.persistent_state(),
                },
            )
        else:
            catalog.put_meta("name", session.lake.name)
        catalog.commit()

    # -------------------------------------------------------------- admin

    def pending_journal(self) -> int:
        """Journaled mutations not yet folded into a checkpoint."""
        return self._pending

    def catalog_bytes(self) -> int:
        """Total on-disk size of the catalog directory's SQLite files."""
        return self.catalog_db.file_bytes() + sum(
            db.file_bytes() for db in self.shard_dbs
        )

    def close(self) -> None:
        """Release every SQLite handle (idempotent — double-close through
        a session's context manager plus an explicit close() is safe, and
        an unfolded journal tail stays durable for the next reopen)."""
        for db in self.shard_dbs:
            db.close()
        self.catalog_db.close()


def restore_shard_session(db: ShardStore) -> LakeSession:
    """Restore one shard file into a live monolithic session — the shard
    worker bootstrap (:mod:`repro.serve.worker`) and any tool that wants a
    single shard without paying for the whole lake."""
    return _restore_shard(db)


def replay_shard_journal(
    db: ShardStore,
    session: LakeSession,
    owns_document=None,
    sibling_entries=None,
) -> int:
    """Replay one shard's journal tail through its restored session.

    This is the single-shard recovery entry point: a respawned shard
    worker calls it at boot so the shard lands back on its exact
    pre-crash state without the front-end replaying anything. Entries
    stay in the journal (checkpointing folds them later); the return
    value is how many entries mutated this shard.

    ``owns_document`` — optional ``doc_id -> bool`` predicate. A
    journaled ``add_documents`` may batch documents routed to *several*
    shards while the record sits in one shard's journal (placement is
    the first document's owner); the predicate filters any batch down to
    the documents this shard actually owns. Table ops never need it:
    their journal placement is the owning shard.

    ``sibling_entries`` — journal entries read from the *other* shards
    of the same catalog. Only their ``add_documents`` records matter
    (the cross-shard case above, seen from the non-placement side); they
    are merged with this shard's own tail and the union replays in
    global seq order, so adds and removes of the same document land in
    their original order.

    Entries apply through :func:`~repro.core.mutation.apply_mutation`,
    the path a whole-catalog reopen replays through. Replay is tolerant of
    entries whose mutator raises (they failed the same way originally, so
    skipping reproduces the pre-crash state) but refuses lake-wide ops
    (``rebalance``/``refresh``): those cannot be applied shard-locally and
    are rejected at serve time anyway.
    """
    entries = list(db.journal_entries())
    if sibling_entries:
        entries.extend(
            (seq, op, payload)
            for seq, op, payload in sibling_entries
            if op == "add_documents"
        )
        entries.sort(key=lambda entry: entry[0])
    replayed = 0
    for _, op, payload in entries:
        if op in ("rebalance", "refresh"):
            raise ValueError(
                f"shard journal holds lake-wide op {op!r}; reopen the "
                f"catalog with repro.open_lake() to fold it before serving"
            )
        if op == "add_documents" and owns_document is not None:
            documents = [d for d in payload["documents"] if owns_document(d.doc_id)]
            if not documents:
                continue
            payload = {"documents": documents}
        try:
            apply_mutation(session, op, payload)
        except (KeyError, ValueError):
            # The mutator rejected the entry (duplicate name, unknown
            # target): it raised identically when first applied, so the
            # shard state never included it. Skip and keep replaying.
            continue
        replayed += 1
    return replayed


def load_catalog(path: str | Path):
    """Reopen a saved lake catalog as a live session — no refitting.

    Returns a :class:`~repro.core.session.LakeSession` or
    :class:`~repro.core.sharding.ShardedLakeSession` according to what was
    saved; any journal tail left by an unsaved writer is replayed so the
    session lands on the exact generation the writer last reached.
    """
    return LakeStore.open(path)


def save_session(session, path: str | Path | None = None) -> Path:
    """Write (or checkpoint) a session's durable catalog — the one body of
    ``LakeSession.save`` and ``ShardedLakeSession.save``.

    A bound session given no path (or its own) checkpoints in place. Any
    other path full-writes a fresh catalog and rebinds the session to it;
    the previous catalog's handles are closed first (the store and the
    session reference each other, so they would otherwise live until a
    GC cycle), and its unfolded journal tail stays durable there.
    """
    store = session._store
    if store is not None and (path is None or Path(path) == store.path):
        store.checkpoint()
        return store.path
    if path is None:
        raise ValueError("this session has no bound catalog; pass save(path=...)")
    if store is not None:
        store.close()
        session._store = None
    return LakeStore.create(path, session).path


def footprint(path: str | Path) -> dict[str, int]:
    """Where a saved catalog's bytes are, summed over its files.

    Keys: ``lake_tables``, ``lake_documents``, ``sketches`` and ``journal``
    (pickled payloads), ``state:<section>`` per state section (residual
    pickle plus slabs), and ``sqlite_overhead`` — the rest of the files'
    on-disk size (keys, pages, slack), so the values sum to the catalog's
    size on disk.
    """
    path = Path(path)
    with closing(ShardStore(path / "catalog.sqlite")) as db:
        num_shards = read_manifest(db).num_shards
    files = [path / "catalog.sqlite"]
    files += [path / f"shard-{i:04d}.sqlite" for i in range(num_shards)]
    sizes: dict[str, int] = {}
    file_bytes = 0
    for file in files:
        with closing(ShardStore(file)) as db:
            for component, size in db.payload_bytes().items():
                sizes[component] = sizes.get(component, 0) + size
            file_bytes += db.file_bytes()
    sizes["sqlite_overhead"] = file_bytes - sum(sizes.values())
    return sizes
