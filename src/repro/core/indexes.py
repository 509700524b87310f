"""Indexing framework: one index per sketch type (paper §3, Figure 2).

From a :class:`~repro.core.profiler.Profile` the catalog builds:

* BM25 engines over content and metadata, separately for documents and for
  text-discovery columns (four "elastic" indexes);
* an LSH Ensemble over the column minhash signatures (containment);
* ANN (random-projection forest) indexes over the 200-d solo encodings of
  documents and columns;
* after joint-model training, ANN indexes over the 100-d joint embeddings
  (:meth:`index_joint_embeddings`).

For the structured-discovery candidate layer it additionally indexes *every*
column (not just the text-discovery subset):

* ``value_containment`` — LSH Ensemble over value-set minhash signatures
  (value-equality semantics, the measure joins and PK-FK inclusion use);
* ``column_schema`` / ``column_schema_ngrams`` — inverted indexes over
  column-name tokens and character trigrams (schema-name probes);
* ``column_numeric`` — interval index over numeric column ranges;
* ``column_semantic`` — ANN index over the content solo embeddings.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from repro.ann.intervals import IntervalIndex
from repro.ann.rpforest import RPForestIndex
from repro.core.profiler import Profile
from repro.search.engine import SearchEngine
from repro.sketch.lshensemble import LSHEnsemble
from repro.text.tokenizer import name_trigrams, split_identifier


class UnresolvedReference(ValueError):
    """A persisted index section references sketch state the profile does
    not hold (a missing DE, or a vector that is not the one indexed)."""

    def __init__(self, section: str, cause: Exception):
        self.section = section
        super().__init__(f"index section {section!r}: {cause}")


class IndexCatalog:
    """All CMDL indexes for one profiled lake."""

    def __init__(
        self,
        profile: Profile,
        num_partitions: int = 8,
        num_bands: int = 16,
        num_trees: int = 8,
        ranker: str = "bm25",
        seed: int = 0,
        bulk: bool = True,
    ):
        self.profile = profile
        self.seed = seed
        #: Build seconds per structure *group* (value_containment, schema,
        #: numeric, semantic, keyword) — see :meth:`_timed` for the
        #: grouping. Filled by both construction paths and accumulated by
        #: the delta routes, so a fit regression is attributable to a
        #: structure, not just the index stage as a whole.
        self.index_breakdown: dict[str, float] = {
            "value_containment": 0.0,
            "schema": 0.0,
            "numeric": 0.0,
            "semantic": 0.0,
            "keyword": 0.0,
        }

        self.doc_content = SearchEngine(ranker=ranker)
        self.doc_metadata = SearchEngine(ranker=ranker)
        self.column_content = SearchEngine(ranker=ranker)
        self.column_metadata = SearchEngine(ranker=ranker)
        self.column_containment = LSHEnsemble(
            num_partitions=num_partitions, num_bands=num_bands
        )

        # Candidate-layer indexes: cover ALL columns, because the exact
        # structured scorers (join containment, the union 4-measure ensemble,
        # PK-FK inclusion) are defined over value sets / names / ranges of
        # any column, not just the text-discovery subset.
        self.value_containment = LSHEnsemble(
            num_partitions=num_partitions, num_bands=num_bands
        )
        self.column_schema = SearchEngine(ranker=ranker)
        self.column_schema_ngrams = SearchEngine(ranker=ranker)
        self.column_numeric = IntervalIndex()

        self._text_columns = set(profile.text_discovery_columns())
        encoding_dim = None
        embedding_dim = None

        for sketch in profile.documents.values():
            encoding_dim = encoding_dim or len(sketch.encoding)
        for sketch in profile.columns.values():
            encoding_dim = encoding_dim or len(sketch.encoding)
            embedding_dim = embedding_dim or len(sketch.content_embedding)

        self.column_semantic = RPForestIndex(
            dim=embedding_dim or 100, num_trees=num_trees, seed=seed
        )
        dim = encoding_dim or 200
        self.doc_solo = RPForestIndex(dim=dim, num_trees=num_trees, seed=seed)
        self.column_solo = RPForestIndex(dim=dim, num_trees=num_trees, seed=seed)

        if bulk:
            self._build_bulk(profile)
        else:
            for doc_id, sketch in profile.documents.items():
                self._index_document(doc_id, sketch)
            for col_id, sketch in profile.columns.items():
                self._index_column(col_id, sketch)
            with self._timed("value_containment"):
                self.column_containment.build()
                self.value_containment.build()
            with self._timed("numeric"):
                self.column_numeric.build()
            with self._timed("semantic"):
                self.column_semantic.build()
                self.doc_solo.build()
                self.column_solo.build()

        self.doc_joint: RPForestIndex | None = None
        self.column_joint: RPForestIndex | None = None

    # ----------------------------------------------------------- indexing

    @contextmanager
    def _timed(self, group: str):
        """Accumulate elapsed build seconds into one breakdown group.

        Groups: ``keyword`` = the BM25 engines (doc/column content and
        metadata); ``value_containment`` = both LSH Ensembles (value sets
        and content signatures); ``schema`` = the column-name token and
        trigram engines; ``numeric`` = the interval index; ``semantic`` =
        every RP forest over solo encodings/embeddings.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.index_breakdown[group] += time.perf_counter() - start

    def _build_bulk(self, profile: Profile) -> None:
        """One-pass construction of every index from a full profile.

        Each structure ingests its whole entry stream at once (fused
        postings assembly, staged-then-built sketch/ANN structures) instead
        of N incremental ``add``/``insert`` calls. Entry order matches the
        per-item path, so the built state is identical to ``bulk=False``.
        """
        docs = profile.documents
        with self._timed("keyword"):
            self.doc_content.build_bulk(
                (doc_id, s.content_bow.terms) for doc_id, s in docs.items()
            )
            self.doc_metadata.build_bulk(
                (doc_id, s.metadata_bow.terms) for doc_id, s in docs.items()
            )
        with self._timed("semantic"):
            self.doc_solo.build_bulk(
                [(doc_id, s.encoding) for doc_id, s in docs.items()]
            )

        cols = profile.columns
        with self._timed("value_containment"):
            self.value_containment.build_bulk(
                [(col_id, s.join_signature) for col_id, s in cols.items()]
            )
        with self._timed("schema"):
            self.column_schema.build_bulk(
                (col_id, split_identifier(s.column_name)) for col_id, s in cols.items()
            )
            self.column_schema_ngrams.build_bulk(
                (col_id, name_trigrams(s.column_name)) for col_id, s in cols.items()
            )
        with self._timed("semantic"):
            self.column_semantic.build_bulk(
                [(col_id, s.content_embedding) for col_id, s in cols.items()]
            )
        with self._timed("numeric"):
            for col_id, sketch in cols.items():
                if sketch.numeric is not None:
                    self.column_numeric.add(col_id, sketch.numeric)
            self.column_numeric.build()

        text = [(c, s) for c, s in cols.items() if c in self._text_columns]
        with self._timed("keyword"):
            self.column_content.build_bulk((c, s.content_bow.terms) for c, s in text)
            self.column_metadata.build_bulk((c, s.metadata_bow.terms) for c, s in text)
        with self._timed("value_containment"):
            self.column_containment.build_bulk([(c, s.signature) for c, s in text])
        with self._timed("semantic"):
            self.column_solo.build_bulk([(c, s.encoding) for c, s in text])

    def _index_document(self, doc_id: str, sketch) -> None:
        """Route one document sketch into every index that covers it.

        Works both at build time (entries staged, caller builds) and as the
        delta path (the sketch structures' ``insert`` absorbs post-build
        adds; the keyword engines are incremental by construction).
        """
        with self._timed("keyword"):
            self.doc_content.add(doc_id, sketch.content_bow.terms)
            self.doc_metadata.add(doc_id, sketch.metadata_bow.terms)
        with self._timed("semantic"):
            self.doc_solo.insert(doc_id, sketch.encoding)

    def _index_column(self, col_id: str, sketch) -> None:
        """Route one column sketch into every index that covers it."""
        with self._timed("value_containment"):
            self.value_containment.insert(col_id, sketch.join_signature)
        with self._timed("schema"):
            self.column_schema.add(col_id, split_identifier(sketch.column_name))
            self.column_schema_ngrams.add(col_id, name_trigrams(sketch.column_name))
        with self._timed("semantic"):
            self.column_semantic.insert(col_id, sketch.content_embedding)
        if sketch.numeric is not None:
            with self._timed("numeric"):
                self.column_numeric.add(col_id, sketch.numeric)
        if col_id not in self._text_columns:
            return
        with self._timed("keyword"):
            self.column_content.add(col_id, sketch.content_bow.terms)
            self.column_metadata.add(col_id, sketch.metadata_bow.terms)
        with self._timed("value_containment"):
            self.column_containment.insert(col_id, sketch.signature)
        with self._timed("semantic"):
            self.column_solo.insert(col_id, sketch.encoding)

    # ------------------------------------------------------------- deltas

    def insert_document(self, sketch) -> None:
        """Index one new document sketch (delta path)."""
        self._index_document(sketch.de_id, sketch)

    def remove_document(self, doc_id: str) -> None:
        """Drop one document from every index that covers it."""
        self.doc_content.remove(doc_id)
        self.doc_metadata.remove(doc_id)
        self.doc_solo.delete(doc_id)
        if self.doc_joint is not None and doc_id in self.doc_joint:
            self.doc_joint.delete(doc_id)

    def insert_column(self, sketch) -> None:
        """Index one new column sketch (delta path); honours its tags."""
        if sketch.tags is not None and sketch.tags.text_discovery:
            self._text_columns.add(sketch.de_id)
        self._index_column(sketch.de_id, sketch)

    def remove_column(self, col_id: str) -> None:
        """Drop one column from every index that covers it."""
        self.value_containment.delete(col_id)
        self.column_schema.remove(col_id)
        self.column_schema_ngrams.remove(col_id)
        self.column_semantic.delete(col_id)
        if col_id in self.column_numeric:
            self.column_numeric.remove(col_id)
        if col_id in self._text_columns:
            self._text_columns.discard(col_id)
            self.column_content.remove(col_id)
            self.column_metadata.remove(col_id)
            self.column_containment.delete(col_id)
            self.column_solo.delete(col_id)
        if self.column_joint is not None and col_id in self.column_joint:
            self.column_joint.delete(col_id)

    # -------------------------------------------------------- persistence

    #: Every persisted structure, by section name, with its class. The
    #: joint forests are optional (None before joint training).
    SECTIONS = {
        "doc_content": SearchEngine,
        "doc_metadata": SearchEngine,
        "column_content": SearchEngine,
        "column_metadata": SearchEngine,
        "column_schema": SearchEngine,
        "column_schema_ngrams": SearchEngine,
        "column_containment": LSHEnsemble,
        "value_containment": LSHEnsemble,
        "column_numeric": IntervalIndex,
        "column_semantic": RPForestIndex,
        "doc_solo": RPForestIndex,
        "column_solo": RPForestIndex,
        "doc_joint": RPForestIndex,
        "column_joint": RPForestIndex,
    }

    #: The one source table: sections whose entries are exact functions of
    #: a profile sketch, as ``section -> (profile side, sketch attribute)``.
    #: Their persisted state references the sketch instead of copying it
    #: (see ``LSHIndex.persistent_state`` / ``RPForestIndex.persistent_state``),
    #: and restore resolves the references through the restored profile.
    SKETCH_SOURCES = {
        "value_containment": ("columns", "join_signature"),
        "column_containment": ("columns", "signature"),
        "column_semantic": ("columns", "content_embedding"),
        "column_solo": ("columns", "encoding"),
        "doc_solo": ("documents", "encoding"),
    }

    def _sketch_source(self, name: str):
        """``key -> sketch value | None`` for a sourced section, else None."""
        if name not in self.SKETCH_SOURCES:
            return None
        side, attribute = self.SKETCH_SOURCES[name]
        sketches = getattr(self.profile, side)

        def source(key: str):
            sketch = sketches.get(key)
            return None if sketch is None else getattr(sketch, attribute)

        return source

    def section_state(self, name: str):
        """Persisted state of one structure (None for an absent joint
        forest); sourced sections store references to profile sketches."""
        structure = getattr(self, name)
        if structure is None:
            return None
        source = self._sketch_source(name)
        if source is None:
            return structure.persistent_state()
        return structure.persistent_state(source)

    def persistent_state(self) -> dict:
        state: dict = {
            "seed": self.seed,
            "index_breakdown": dict(self.index_breakdown),
            "text_columns": sorted(self._text_columns),
        }
        for name in self.SECTIONS:
            state[name] = self.section_state(name)
        return state

    @classmethod
    def restore_state(cls, profile: Profile, state: dict) -> "IndexCatalog":
        """Rebuild a catalog from persisted per-structure state, bypassing
        ``__init__`` (which would refit every index from the profile).

        ``profile`` must be the profile the state was saved beside: sourced
        sections resolve their references through it, and a reference it
        cannot honour raises :class:`UnresolvedReference`.
        """
        catalog = cls.__new__(cls)
        catalog.profile = profile
        catalog.seed = state["seed"]
        catalog.index_breakdown = dict(state["index_breakdown"])
        catalog._text_columns = set(state["text_columns"])
        for name, structure_cls in cls.SECTIONS.items():
            section = state[name]
            source = catalog._sketch_source(name)
            if section is None:
                structure = None
            elif source is None:
                structure = structure_cls.restore_state(section)
            else:
                try:
                    structure = structure_cls.restore_state(section, source)
                except (KeyError, ValueError) as exc:
                    raise UnresolvedReference(name, exc) from exc
            setattr(catalog, name, structure)
        return catalog

    # ------------------------------------------------------------- joint

    def index_joint_embeddings(
        self,
        doc_vectors: dict[str, np.ndarray],
        column_vectors: dict[str, np.ndarray],
        num_trees: int = 8,
    ) -> None:
        """Index the joint-space vectors produced by the trained model."""
        dims = {len(v) for v in doc_vectors.values()} | {
            len(v) for v in column_vectors.values()
        }
        if len(dims) != 1:
            raise ValueError(f"inconsistent joint vector dims: {sorted(dims)}")
        dim = dims.pop()
        self.doc_joint = RPForestIndex(dim=dim, num_trees=num_trees, seed=self.seed)
        self.column_joint = RPForestIndex(dim=dim, num_trees=num_trees, seed=self.seed)
        for doc_id, vec in doc_vectors.items():
            self.doc_joint.add(doc_id, vec)
        for col_id, vec in column_vectors.items():
            self.column_joint.add(col_id, vec)
        self.doc_joint.build()
        self.column_joint.build()

    def insert_joint_document(self, doc_id: str, vector: np.ndarray) -> None:
        """Delta-index one joint-space document vector (no-op pre-training)."""
        if self.doc_joint is not None:
            self.doc_joint.insert(doc_id, vector)

    def insert_joint_column(self, col_id: str, vector: np.ndarray) -> None:
        """Delta-index one joint-space column vector (no-op pre-training)."""
        if self.column_joint is not None:
            self.column_joint.insert(col_id, vector)

    @property
    def has_joint(self) -> bool:
        return self.column_joint is not None
