"""Term -> postings inverted index with corpus statistics."""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np


class Posting(NamedTuple):
    """One (document, term) occurrence record.

    A NamedTuple rather than a frozen dataclass: the columnar bulk build
    constructs every posting of the corpus in one ``map`` pass, and tuple
    allocation is several times cheaper than a frozen dataclass ``__init__``
    (which pays two ``object.__setattr__`` calls per instance).
    """

    doc_key: str
    term_frequency: int


class InvertedIndex:
    """Inverted index over pre-tokenised term bags.

    Documents are added as ``(key, terms)`` where ``terms`` is any iterable
    of strings (typically the output of the text pipeline or a column's
    token bag). The index maintains the statistics both BM25 and
    LM-Dirichlet need: document frequencies, document lengths, collection
    term frequencies.

    Removal is tombstone-based: :meth:`remove` updates every corpus
    statistic exactly (so rankings match a cold-built index over the live
    documents) but leaves dead entries in the postings lists, which
    :meth:`postings` filters lazily; the lists are compacted once tombstones
    exceed :attr:`COMPACT_FRACTION` of the live document count.
    """

    #: Tombstone fraction (dead / live) that triggers postings compaction.
    COMPACT_FRACTION = 0.25

    def __init__(self) -> None:
        self._postings: dict[str, list[Posting]] = defaultdict(list)
        self._doc_lengths: dict[str, int] = {}
        self._collection_tf: Counter = Counter()
        self._doc_terms: dict[str, Counter] = {}
        self._df: Counter = Counter()
        #: Tombstoned key -> the terms its dead postings live under.
        self._deleted: dict[str, frozenset[str]] = {}

    # -------------------------------------------------------------- build

    def add(self, key: str, terms: list[str] | Counter) -> None:
        if key in self._doc_lengths:
            raise ValueError(f"duplicate index key {key!r}")
        dead_terms = self._deleted.pop(key, None)
        if dead_terms is not None:
            # Re-adding a tombstoned key: purge just its dead postings so
            # the new entry is the only one under this key.
            for term in dead_terms:
                self._purge_term(term, key)
        tf = terms if isinstance(terms, Counter) else Counter(terms)
        self._doc_lengths[key] = sum(tf.values())
        self._doc_terms[key] = tf.copy()
        for term, count in tf.items():
            self._postings[term].append(Posting(key, count))
            self._collection_tf[term] += count
            self._df[term] += 1

    def build_bulk(self, bags) -> None:
        """Add many ``(key, terms)`` documents in one columnar pass.

        State (postings content and order, corpus statistics, even dict
        insertion order) is identical to calling :meth:`add` per bag in the
        same order. Instead of the dict-bound per-(doc, term) loop, the
        build flattens every bag into one term slab with per-document
        spans, assigns term ids in first-occurrence order, takes document
        frequencies and collection frequencies from two ``np.bincount``
        passes over the id array, and slices each term's posting list out
        of one stable argsort grouping — the per-pair Python work drops to
        a single id lookup plus one tuple allocation. Used by the bulk
        index construction of :class:`~repro.core.indexes.IndexCatalog`.
        """
        if self._doc_lengths or self._deleted:
            # Non-empty or churned index: per-item add handles re-added
            # tombstoned keys correctly.
            for key, terms in bags:
                self.add(key, terms)
            return
        doc_lengths = self._doc_lengths
        doc_terms = self._doc_terms

        # ---- pass 1: normalise bags, fill per-document state, and flatten
        # every (term, count) pair into aligned slabs
        keys: list[str] = []
        term_slab: list[str] = []
        count_slab: list[int] = []
        doc_pair_counts: list[int] = []
        for key, terms in bags:
            if key in doc_lengths:
                raise ValueError(f"duplicate index key {key!r}")
            tf = terms if isinstance(terms, Counter) else Counter(terms)
            doc_lengths[key] = sum(tf.values())
            # .copy() is a C-level dict copy — same state as Counter(tf)
            # without re-counting every term through Python.
            doc_terms[key] = tf.copy()
            keys.append(key)
            doc_pair_counts.append(len(tf))
            term_slab.extend(tf.keys())
            count_slab.extend(tf.values())
        if not term_slab:
            return

        # ---- term ids in first-occurrence order (matching the insertion
        # order the per-item path would give every stats dict)
        term_id: dict[str, int] = {}
        next_id = term_id.setdefault
        ids = np.fromiter(
            (next_id(term, len(term_id)) for term in term_slab),
            dtype=np.intp,
            count=len(term_slab),
        )
        counts = np.asarray(count_slab, dtype=np.int64)
        num_terms = len(term_id)

        # ---- corpus statistics: two bincounts over the id array. The
        # weighted bincount sums exact integers in float64 (exact below
        # 2**53, far beyond any corpus this index serves).
        df_arr = np.bincount(ids, minlength=num_terms)
        ctf_arr = np.bincount(ids, weights=counts, minlength=num_terms).astype(
            np.int64
        )
        terms_in_order = list(term_id)
        self._df = Counter(dict(zip(terms_in_order, df_arr.tolist())))
        self._collection_tf = Counter(dict(zip(terms_in_order, ctf_arr.tolist())))

        # ---- postings: stable argsort groups pairs by term id while
        # keeping document order inside each group, so every term's slice
        # is its per-item posting list; one map constructs all postings.
        order = np.argsort(ids, kind="stable")
        doc_idx = np.repeat(np.arange(len(keys)), doc_pair_counts)
        ordered_keys = map(keys.__getitem__, doc_idx[order].tolist())
        all_postings = list(map(Posting, ordered_keys, counts[order].tolist()))
        group_sizes = df_arr.tolist()
        postings = self._postings
        start = 0
        for term, size in zip(terms_in_order, group_sizes):
            postings[term] = all_postings[start : start + size]
            start += size

    def remove(self, key: str) -> None:
        """Tombstone one document, keeping every corpus statistic exact."""
        if key not in self._doc_lengths:
            raise KeyError(f"no index entry for key {key!r}")
        tf = self._doc_terms.pop(key)
        del self._doc_lengths[key]
        for term, count in tf.items():
            self._collection_tf[term] -= count
            if self._collection_tf[term] <= 0:
                del self._collection_tf[term]
            self._df[term] -= 1
            if self._df[term] <= 0:
                del self._df[term]
        self._deleted[key] = frozenset(tf)
        if len(self._deleted) > self.COMPACT_FRACTION * max(self.num_docs, 1):
            self._compact()

    def _purge_term(self, term: str, key: str) -> None:
        live = [p for p in self._postings.get(term, ()) if p.doc_key != key]
        if live:
            self._postings[term] = live
        elif term in self._postings:
            del self._postings[term]

    def _compact(self) -> None:
        """Drop tombstoned entries from the postings lists."""
        dead = self._deleted
        for term in list(self._postings):
            live = [p for p in self._postings[term] if p.doc_key not in dead]
            if live:
                self._postings[term] = live
            else:
                del self._postings[term]
        self._deleted = {}

    # --------------------------------------------------------------- stats

    @property
    def num_docs(self) -> int:
        return len(self._doc_lengths)

    @property
    def collection_length(self) -> int:
        return sum(self._doc_lengths.values())

    @property
    def average_doc_length(self) -> float:
        return self.collection_length / self.num_docs if self.num_docs else 0.0

    def doc_length(self, key: str) -> int:
        return self._doc_lengths.get(key, 0)

    def document_frequency(self, term: str) -> int:
        return self._df.get(term, 0)

    def collection_frequency(self, term: str) -> int:
        return self._collection_tf.get(term, 0)

    def document_frequencies(self) -> Counter:
        """Copy of the full term -> document-frequency table.

        Snapshot accessor for cross-index statistics merging (the sharded
        lake's corpus-wide statistics); exact under tombstones, like the per-term
        accessors.
        """
        return Counter(self._df)

    def collection_frequencies(self) -> Counter:
        """Copy of the full term -> collection-frequency table."""
        return Counter(self._collection_tf)

    def postings(self, term: str) -> list[Posting]:
        entries = self._postings.get(term, [])
        if self._deleted:
            return [p for p in entries if p.doc_key not in self._deleted]
        return entries

    def __contains__(self, key: str) -> bool:
        return key in self._doc_lengths

    def keys(self) -> list[str]:
        return list(self._doc_lengths)

    # -------------------------------------------------------- persistence

    def persistent_state(self) -> dict:
        """The live documents plus tombstones; postings and every corpus
        statistic are derived and rebuilt exactly on restore."""
        return {
            "docs": [(key, dict(tf)) for key, tf in self._doc_terms.items()],
            "deleted": {key: sorted(terms) for key, terms in self._deleted.items()},
        }

    @classmethod
    def restore_state(cls, state: dict) -> "InvertedIndex":
        index = cls()
        index.build_bulk(
            (key, Counter(tf)) for key, tf in state["docs"]
        )
        # Tombstones restored after the build: the fused bulk path requires
        # an empty ``_deleted``, and the restored map only gates the lazy
        # postings filter (statistics already reflect live docs only).
        index._deleted = {
            key: frozenset(terms) for key, terms in state["deleted"].items()
        }
        return index
