"""Profiler: sketches and statistics per discoverable element (paper §3).

For every DE (document or tabular column) the profiler builds:

* the content bag of words (documents via the NLP pipeline; columns via
  cell-value tokenisation),
* the metadata bag of words (titles / table+column names),
* a minwise-hashing signature of the content token set (containment),
* solo embeddings: 100-d mean-pooled word vectors for metadata and for
  content — concatenated they form the 200-d input encoding of the joint
  model (paper §4.2),
* numeric statistics for numeric columns,
* the column's task tags.

The cold fit is **batch-first** (:meth:`Profiler.profile`): bags for the
whole lake are assembled first, then every minhash signature is computed in
one :meth:`~repro.sketch.minhash.MinHash.signatures_batch` pass over a
shared :class:`~repro.sketch.fingerprints.FingerprintCache` (each distinct
string hashed once per fit), and the union vocabulary is embedded in a
single ``embed_words`` call with per-DE pooling done by row-indexing the
shared matrix. The per-item routines (:meth:`profile_one` and friends)
remain the delta path of lake sessions and produce byte-identical sketches
— ``profile(lake, batched=False)`` drives the whole fit through them, which
is what the parity suite compares against.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.tagging import ColumnTags, tag_column
from repro.embed.pooling import POOLERS
from repro.relational.catalog import DataLake, Document
from repro.relational.stats import NumericStats, numeric_stats
from repro.relational.table import Column
from repro.sketch.fingerprints import FingerprintCache
from repro.sketch.minhash import MinHash, MinHashSignature
from repro.text.pipeline import BagOfWords, DocumentPipeline
from repro.text.tokenizer import split_identifier, tokenize
from repro.utils.timing import Timer

#: DE kind markers used in every index key.
DOCUMENT = "document"
COLUMN = "column"

#: Bound on the per-fit cell-value -> tokens memo. Cell values repeat
#: heavily across columns and tables (ids, categories), so most fits stay
#: far below the bound; past it the memo simply stops growing.
TOKEN_MEMO_MAX = 1 << 16


_switch_lock = threading.Lock()
_switch_depth = 0
_switch_saved = 0.0


@contextmanager
def _training_switch_interval():
    """Shorten the GIL switch interval to 0.5 ms for the block.

    Fits run concurrently (a sharded session fits its shards on a thread
    pool), so the interval is process-wide state shared by overlapping
    blocks: a lock-guarded depth count lets the first block in save and
    shorten it and the last one out restore it. Saving per block would
    let a later block save an earlier one's short value and restore that
    last.
    """
    global _switch_depth, _switch_saved
    with _switch_lock:
        if _switch_depth == 0:
            _switch_saved = sys.getswitchinterval()
            sys.setswitchinterval(0.0005)
        _switch_depth += 1
    try:
        yield
    finally:
        with _switch_lock:
            _switch_depth -= 1
            if _switch_depth == 0:
                sys.setswitchinterval(_switch_saved)


def _kernel_snapshot(embedder) -> dict[str, float] | None:
    """Copy of the embedder's slab-kernel timing counters, if it has any
    (the blended embedder's live on its subword component)."""
    if embedder is None:
        return None
    kernel = getattr(getattr(embedder, "subword", embedder), "kernel_seconds", None)
    return dict(kernel) if kernel is not None else None


@dataclass
class FitStats:
    """Wall-clock breakdown of one ``CMDL.fit`` (seconds per stage).

    * ``profile_seconds`` — bag building: document pipeline, cell/value
      tokenisation, metadata bags, tags, numeric stats.
    * ``sketch_seconds`` — minhash signatures (the batched fingerprint pass).
    * ``embed_seconds`` — embedder training (when the default lake-trained
      embedder is used) plus union-vocabulary embedding and per-DE pooling.
    * ``index_seconds`` — :class:`~repro.core.indexes.IndexCatalog` build.
    * ``train_seconds`` — labeling + joint-model training (0 without joint).
    * ``total_seconds`` — the whole fit, end to end.

    The per-item oracle (``Profiler.profile(lake, batched=False)``)
    interleaves bag building, sketching, and per-DE embedding, so there
    ``embed_seconds`` carries only the embedder-training time and
    everything else is lumped into ``profile_seconds`` (``sketch_seconds``
    stays 0).

    ``index_breakdown`` splits ``index_seconds`` by structure group
    (value_containment / schema / numeric / semantic / keyword build
    seconds, from :attr:`~repro.core.indexes.IndexCatalog.index_breakdown`)
    so an index-stage regression is attributable to a structure. It is kept
    out of :meth:`as_dict`, which stays flat-scalar for report tables.

    ``embed_breakdown`` does the same for the embed stage: ``grams`` /
    ``route`` / ``draw`` / ``pool`` are the slab-kernel sub-stage seconds
    accrued by the fit's embed work, and ``train_overlap`` is the wall
    time the embed stage spent blocked on the background embedder-training
    join. Zero kernel entries for a custom embedder without the slab
    kernel.
    """

    profile_seconds: float = 0.0
    sketch_seconds: float = 0.0
    embed_seconds: float = 0.0
    index_seconds: float = 0.0
    train_seconds: float = 0.0
    total_seconds: float = 0.0
    index_breakdown: dict[str, float] = field(default_factory=dict)
    embed_breakdown: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        return {
            "profile_seconds": self.profile_seconds,
            "sketch_seconds": self.sketch_seconds,
            "embed_seconds": self.embed_seconds,
            "index_seconds": self.index_seconds,
            "train_seconds": self.train_seconds,
            "total_seconds": self.total_seconds,
        }

    def summary(self) -> str:
        """One-line ms breakdown, e.g. for benchmark output."""
        parts = [
            f"{name.removesuffix('_seconds')}={1000 * value:.0f}ms"
            for name, value in self.as_dict().items()
        ]
        return " ".join(parts)


@dataclass
class DESketch:
    """All profiler outputs for one discoverable element."""

    de_id: str
    kind: str  # DOCUMENT or COLUMN
    content_bow: BagOfWords
    metadata_bow: BagOfWords
    signature: MinHashSignature
    content_embedding: np.ndarray
    metadata_embedding: np.ndarray
    numeric: NumericStats | None = None
    tags: ColumnTags | None = None
    table_name: str = ""
    column_name: str = ""
    #: Raw distinct cell values (columns) / content vocabulary (documents).
    #: Join, PK-FK, and union containment are *value*-equality semantics
    #: (paper §3: "percentage of their overlapping values"), distinct from
    #: the tokenised bag used for text discovery.
    value_set: frozenset[str] = frozenset()
    #: Minhash over :attr:`value_set` (vs :attr:`signature`, which is over
    #: the tokenised content bag). Feeds the value-containment LSH Ensemble
    #: of the candidate-generation layer; None for hand-built sketches.
    value_signature: MinHashSignature | None = None

    @property
    def join_signature(self) -> MinHashSignature:
        """The signature matching value-equality semantics, with fallback."""
        return self.value_signature if self.value_signature is not None else self.signature

    @property
    def encoding(self) -> np.ndarray:
        """The 200-d input encoding: metadata solo ++ content solo."""
        return np.concatenate([self.metadata_embedding, self.content_embedding])

    @property
    def token_set(self) -> set[str]:
        return self.content_bow.vocabulary


@dataclass
class Profile:
    """The profiled lake: sketches per DE plus build-time accounting."""

    documents: dict[str, DESketch] = field(default_factory=dict)
    columns: dict[str, DESketch] = field(default_factory=dict)
    table_columns: dict[str, list[str]] = field(default_factory=dict)
    structured_seconds: float = 0.0
    unstructured_seconds: float = 0.0
    #: Stage breakdown of the fit that built this profile (profile/sketch/
    #: embed filled by the profiler; index/train/total by ``CMDL.fit``).
    fit_stats: FitStats = field(default_factory=FitStats)

    def sketch(self, de_id: str) -> DESketch:
        if de_id in self.documents:
            return self.documents[de_id]
        if de_id in self.columns:
            return self.columns[de_id]
        raise KeyError(f"no sketch for DE {de_id!r}")

    @property
    def num_des(self) -> int:
        return len(self.documents) + len(self.columns)

    def columns_of_table(self, table_name: str) -> list[str]:
        return self.table_columns.get(table_name, [])

    # ------------------------------------------------------------ mutation

    def add_one(self, sketch: DESketch) -> None:
        """Register one freshly-profiled DE (delta path of lake sessions)."""
        if sketch.kind == DOCUMENT:
            if sketch.de_id in self.documents:
                raise ValueError(f"duplicate document sketch {sketch.de_id!r}")
            self.documents[sketch.de_id] = sketch
        else:
            if sketch.de_id in self.columns:
                raise ValueError(f"duplicate column sketch {sketch.de_id!r}")
            self.columns[sketch.de_id] = sketch
            self.table_columns.setdefault(sketch.table_name, []).append(sketch.de_id)

    def drop_one(self, de_id: str) -> DESketch:
        """Forget one DE's sketch; returns it so callers can unindex it."""
        if de_id in self.documents:
            return self.documents.pop(de_id)
        if de_id in self.columns:
            sketch = self.columns.pop(de_id)
            ids = self.table_columns.get(sketch.table_name)
            if ids is not None:
                ids.remove(de_id)
                if not ids:
                    del self.table_columns[sketch.table_name]
            return sketch
        raise KeyError(f"no sketch for DE {de_id!r}")

    def text_discovery_columns(self) -> list[str]:
        """Columns tagged as eligible for doc-column / keyword discovery."""
        return [
            cid for cid, s in self.columns.items()
            if s.tags is not None and s.tags.text_discovery
        ]


class Profiler:
    """Builds a :class:`Profile` for a data lake."""

    def __init__(
        self,
        embedding_dim: int = 100,
        num_hashes: int = 128,
        pooling: str = "mean",
        max_doc_frequency: float = 0.5,
        embedder=None,
        pipeline: DocumentPipeline | None = None,
        seed: int = 0,
    ):
        if pooling not in POOLERS:
            raise ValueError(f"unknown pooling {pooling!r}; expected {list(POOLERS)}")
        self.embedding_dim = embedding_dim
        self.pooling = POOLERS[pooling]
        self.minhash = MinHash(num_hashes=num_hashes, seed=seed)
        # ``pipeline`` lets a caller supply a pre-configured document
        # pipeline — the sharded lake passes per-shard pipelines pinned to
        # the corpus-wide df filter.
        self.pipeline = pipeline or DocumentPipeline(max_doc_frequency=max_doc_frequency)
        self.embedder = embedder  # resolved lazily in profile() if None
        self.seed = seed
        #: Per-fit string -> fingerprint cache shared by every signature of
        #: the fit; reset by :meth:`profile`, reused by the delta path.
        self.fingerprints = FingerprintCache(seed)
        self._token_memo: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------ helpers

    def _embed_bow(self, bow: BagOfWords) -> np.ndarray:
        words = sorted(bow.vocabulary)
        matrix = self.embedder.embed_words(words)
        return self.pooling(matrix, dim_hint=self.embedding_dim)

    def _cell_tokens(self, value: str) -> tuple[str, ...]:
        """Memoised :func:`tokenize` for cell values (bounded per fit)."""
        memo = self._token_memo
        tokens = memo.get(value)
        if tokens is None:
            tokens = tuple(tokenize(value))
            if len(memo) < TOKEN_MEMO_MAX:
                memo[value] = tokens
        return tokens

    def _column_tokens(self, column: Column) -> Counter:
        """Tokenise a column's cell values into its content bag of words."""
        terms: Counter = Counter()
        for value in column.non_missing:
            tokens = self._cell_tokens(value)
            if len(tokens) == 1:
                # Single-token cells (ids, names) kept verbatim.
                terms[tokens[0]] += 1
            else:
                terms.update(tokens)
        return terms

    def _training_corpora(self, lake: DataLake) -> list[list[str]]:
        """Token corpora the default blended embedder trains on.

        Tables contribute *row-wise* token lists: a row is the unit of
        co-occurrence (key values appear next to the attributes that
        describe them), which is what lets the distributional component
        bridge document vocabulary to column vocabulary.
        """
        corpora = [tokenize(d.text) for d in lake.documents]
        for table in lake.tables:
            for row in table.rows():
                tokens: list[str] = []
                for value in row:
                    tokens.extend(self._cell_tokens(value))
                corpora.append(tokens)
        return corpora

    def _resolve_embedder(self, lake: DataLake) -> None:
        """Train the default blended embedder on the lake's own text
        (the stand-in for a pre-trained fasttext) unless one was supplied."""
        if self.embedder is not None:
            return
        from repro.embed.blended import build_lake_embedder

        self.embedder = build_lake_embedder(
            self._training_corpora(lake), dim=self.embedding_dim, seed=self.seed
        )

    # ------------------------------------------------------------ profiling

    def profile(self, lake: DataLake, batched: bool = True) -> Profile:
        """Profile every document and column of ``lake``.

        ``batched=True`` (the default) runs the vectorised batch pipeline;
        ``batched=False`` runs the per-item delta routines over the whole
        lake — same output byte for byte, kept as the parity oracle.
        """
        self.fingerprints = FingerprintCache(self.seed)
        self._token_memo = {}
        if batched:
            return self._profile_batched(lake)
        return self._profile_legacy(lake)

    def _profile_legacy(self, lake: DataLake) -> Profile:
        """The pre-batching fit: one pass of the per-item routines per DE."""
        profile = Profile()
        with Timer() as t_embedder:
            self._resolve_embedder(lake)

        with Timer() as t_docs:
            self.pipeline.fit(d.text for d in lake.documents)
            for document in lake.documents:
                profile.documents[document.doc_id] = self._profile_document(document)
        profile.unstructured_seconds = t_docs.elapsed

        with Timer() as t_cols:
            for table in lake.tables:
                ids = []
                for column in table.columns:
                    sketch = self._profile_column(column)
                    profile.columns[sketch.de_id] = sketch
                    ids.append(sketch.de_id)
                profile.table_columns[table.name] = ids
        profile.structured_seconds = t_cols.elapsed
        # Per-item profiling interleaves bags, sketches, and embeddings, so
        # the stage split degenerates to embedder-training vs everything else.
        profile.fit_stats.embed_seconds = t_embedder.elapsed
        profile.fit_stats.profile_seconds = t_docs.elapsed + t_cols.elapsed
        return profile

    def _profile_batched(self, lake: DataLake) -> Profile:
        """Batch-first fit: stage-at-a-time over the whole lake."""
        profile = Profile()
        stats = profile.fit_stats
        documents = list(lake.documents)
        tables = list(lake.tables)
        columns = [column for table in tables for column in table.columns]

        # ---- embedder training kicked off first: the PPMI component's
        # heavy lifting releases the GIL, so it overlaps the bag-building
        # and sketch stages below (and warms the cell-token memo those
        # stages then hit). Arithmetic is identical to the sequential
        # build — the thread changes scheduling, not bytes.
        with Timer() as t_corpora:
            training = None
            if self.embedder is None:
                from repro.embed.blended import LakeEmbedderTraining

                # The corpora build runs on the training thread (it is
                # training prep): the cell-token memo it warms is shared
                # with the bags stage below, and concurrent fills are
                # idempotent (tokenisation is deterministic per value).
                training = LakeEmbedderTraining(
                    lambda: self._training_corpora(lake),
                    dim=self.embedding_dim,
                    seed=self.seed,
                )
        kernel_source = training.subword if training is not None else self.embedder
        kernel_before = _kernel_snapshot(kernel_source)
        train_overlap = 0.0

        # While the training thread is live, shorten the GIL switch
        # interval: the PROPACK solver re-acquires the GIL on every sparse
        # matvec callback, and under the default 5 ms interval the
        # Python-heavy bag loops starve it — on one core the unabsorbed
        # training then bleeds into the embed stage's wall. Scheduling
        # only; bytes are unaffected.
        with _training_switch_interval() if training is not None else nullcontext():
            # ---- bags: pipeline, tokenisation, metadata, tags, numeric stats
            with Timer() as t_docs:
                doc_contents = self.pipeline.fit_transform([d.text for d in documents])
                doc_metas = []
                for document in documents:
                    meta_terms = Counter(tokenize(document.title))
                    if document.source:
                        meta_terms.update(tokenize(document.source))
                    doc_metas.append(BagOfWords(meta_terms))
            with Timer() as t_cols:
                col_tags = [tag_column(column) for column in columns]
                col_contents = [BagOfWords(self._column_tokens(c)) for c in columns]
                col_metas = []
                for column in columns:
                    meta_terms = Counter(split_identifier(column.name))
                    meta_terms.update(split_identifier(column.table_name))
                    col_metas.append(BagOfWords(meta_terms))
                col_numeric = [
                    numeric_stats(column.numeric_values)
                    if tags.numeric_profile else None
                    for column, tags in zip(columns, col_tags)
                ]
            stats.profile_seconds = t_docs.elapsed + t_cols.elapsed

            # ---- sketch: every signature of the fit in one batched pass
            with Timer() as t_sketch:
                sets: list = [bow.vocabulary for bow in doc_contents]
                sets += [bow.vocabulary for bow in col_contents]
                sets += [column.distinct_values for column in columns]
                signatures = self.minhash.signatures_batch(
                    sets, cache=self.fingerprints
                )
                n_docs, n_cols = len(documents), len(columns)
                doc_sigs = signatures[:n_docs]
                col_content_sigs = signatures[n_docs : n_docs + n_cols]
                col_value_sigs = signatures[n_docs + n_cols :]
            stats.sketch_seconds = t_sketch.elapsed

            # ---- embed: one union-vocabulary pass + per-DE pooled slices
            with Timer() as t_embed:
                union: set[str] = set()
                for bows in (doc_contents, doc_metas, col_contents, col_metas):
                    for bow in bows:
                        union.update(bow.terms)
                words = sorted(union)
                if training is not None:
                    # Warm the subword table for the whole fit vocabulary
                    # while the distributional model finishes its thread.
                    training.subword.warm_words(words)
                    join_start = time.perf_counter()
                    self.embedder = training.result()
                    train_overlap = time.perf_counter() - join_start
                matrix = self.embedder.embed_words(words)
                position = {word: i for i, word in enumerate(words)}
                position_of = position.__getitem__
                # Derived tables repeat column content, so distinct bags
                # repeat across DEs; pooling is a pure function of the
                # sorted vocabulary, so duplicates share one pooled vector.
                pooled_memo: dict[tuple[str, ...], np.ndarray] = {}

                def pooled(bow: BagOfWords) -> np.ndarray:
                    if not bow.terms:
                        return np.zeros(self.embedding_dim)
                    key = tuple(sorted(bow.terms))
                    vec = pooled_memo.get(key)
                    if vec is None:
                        rows = matrix.take(
                            np.fromiter(
                                map(position_of, key), dtype=np.intp, count=len(key)
                            ),
                            axis=0,
                        )
                        vec = self.pooling(rows, dim_hint=self.embedding_dim)
                        pooled_memo[key] = vec
                    return vec

                doc_content_emb = [pooled(bow) for bow in doc_contents]
                doc_meta_emb = [pooled(bow) for bow in doc_metas]
                col_content_emb = [pooled(bow) for bow in col_contents]
                col_meta_emb = [pooled(bow) for bow in col_metas]
        stats.embed_seconds = t_corpora.elapsed + t_embed.elapsed
        kernel_after = _kernel_snapshot(self.embedder)
        breakdown = {"grams": 0.0, "route": 0.0, "draw": 0.0, "pool": 0.0}
        if kernel_after is not None:
            before = kernel_before or {}
            for stage in breakdown:
                breakdown[stage] = kernel_after.get(stage, 0.0) - before.get(
                    stage, 0.0
                )
        breakdown["train_overlap"] = train_overlap
        stats.embed_breakdown = breakdown

        # ---- assembly
        with Timer() as t_doc_assembly:
            for i, document in enumerate(documents):
                signature = doc_sigs[i]
                profile.documents[document.doc_id] = DESketch(
                    de_id=document.doc_id,
                    kind=DOCUMENT,
                    content_bow=doc_contents[i],
                    metadata_bow=doc_metas[i],
                    signature=signature,
                    content_embedding=doc_content_emb[i],
                    metadata_embedding=doc_meta_emb[i],
                    value_set=frozenset(doc_contents[i].vocabulary),
                    # For documents the value set IS the content vocabulary.
                    value_signature=signature,
                )
        with Timer() as t_col_assembly:
            index = 0
            for table in tables:
                ids = []
                for column in table.columns:
                    sketch = DESketch(
                        de_id=column.qualified_name,
                        kind=COLUMN,
                        content_bow=col_contents[index],
                        metadata_bow=col_metas[index],
                        signature=col_content_sigs[index],
                        content_embedding=col_content_emb[index],
                        metadata_embedding=col_meta_emb[index],
                        numeric=col_numeric[index],
                        tags=col_tags[index],
                        table_name=column.table_name,
                        column_name=column.name,
                        value_set=frozenset(column.distinct_values),
                        value_signature=col_value_sigs[index],
                    )
                    profile.columns[sketch.de_id] = sketch
                    ids.append(sketch.de_id)
                    index += 1
                profile.table_columns[table.name] = ids

        # Modality accounting: batched stages span both modalities, so the
        # document share is the doc-bag stage and the per-doc assembly; the
        # column share absorbs the batched sketch/embed passes.
        profile.unstructured_seconds = t_docs.elapsed + t_doc_assembly.elapsed
        profile.structured_seconds = (
            t_cols.elapsed + t_sketch.elapsed + t_embed.elapsed + t_col_assembly.elapsed
        )
        return profile

    # ---------------------------------------------------------- delta path

    def _require_embedder(self) -> None:
        if self.embedder is None:
            raise RuntimeError(
                "profiler has no embedder yet; profile() a lake first (which "
                "trains the default blended embedder) or construct the "
                "Profiler with an explicit embedder"
            )

    def profile_one(
        self, item: "Document | Column", content: BagOfWords | None = None
    ) -> DESketch:
        """Sketch one new DE without re-profiling the lake (delta path).

        Documents are transformed with the pipeline as currently fitted and
        embedded with the embedder as currently trained — lake sessions own
        keeping both in sync (:class:`~repro.core.session.LakeSession`
        re-fits the pipeline on document churn; the embedder stays frozen
        until ``refresh()``). ``content`` short-circuits the document
        transform when the caller already computed the bag (the session's
        drift check does).
        """
        self._require_embedder()
        if isinstance(item, Document):
            return self._profile_document(item, content=content)
        if isinstance(item, Column):
            return self._profile_column(item)
        raise TypeError(
            f"profile_one takes a Document or a Column, got {type(item).__name__}"
        )

    def profile_table(self, table) -> list[DESketch]:
        """Sketch every column of one new table (delta path)."""
        return [self.profile_one(column) for column in table.columns]

    # ----------------------------------------------------------- internals

    def _profile_document(
        self, document: Document, content: BagOfWords | None = None
    ) -> DESketch:
        if content is None:
            content = self.pipeline.transform(document.text)
        meta_terms = Counter(tokenize(document.title))
        if document.source:
            meta_terms.update(tokenize(document.source))
        metadata = BagOfWords(meta_terms)
        signature = self.minhash.signature(content.vocabulary, cache=self.fingerprints)
        return DESketch(
            de_id=document.doc_id,
            kind=DOCUMENT,
            content_bow=content,
            metadata_bow=metadata,
            signature=signature,
            content_embedding=self._embed_bow_guarded(content),
            metadata_embedding=self._embed_bow_guarded(metadata),
            value_set=frozenset(content.vocabulary),
            # For documents the value set IS the content vocabulary.
            value_signature=signature,
        )

    def _profile_column(self, column: Column) -> DESketch:
        tags = tag_column(column)
        content = BagOfWords(self._column_tokens(column))
        meta_terms = Counter(split_identifier(column.name))
        meta_terms.update(split_identifier(column.table_name))
        metadata = BagOfWords(meta_terms)
        numeric = (
            numeric_stats(column.numeric_values) if tags.numeric_profile else None
        )
        return DESketch(
            de_id=column.qualified_name,
            kind=COLUMN,
            content_bow=content,
            metadata_bow=metadata,
            signature=self.minhash.signature(content.vocabulary, cache=self.fingerprints),
            content_embedding=self._embed_bow_guarded(content),
            metadata_embedding=self._embed_bow_guarded(metadata),
            numeric=numeric,
            tags=tags,
            table_name=column.table_name,
            column_name=column.name,
            value_set=frozenset(column.distinct_values),
            value_signature=self.minhash.signature(
                column.distinct_values, cache=self.fingerprints
            ),
        )

    def _embed_bow_guarded(self, bow: BagOfWords) -> np.ndarray:
        if not bow.vocabulary:
            return np.zeros(self.embedding_dim)
        return self._embed_bow(bow)
