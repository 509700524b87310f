"""Document -> column-style bag-of-words transformation (paper §3, Figure 2).

Each document goes through tokenisation, stop-word removal, POS filtering
(retain nouns), and lemmatisation; finally terms that occur in a large
fraction of documents are dropped as non-discriminative. The output
:class:`BagOfWords` is the unified column-style format consumed by the
profiler for both modalities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.text.lemmatizer import lemmatize
from repro.text.pos import is_probable_noun
from repro.text.stopwords import is_stopword
from repro.text.tokenizer import tokenize

#: Sentinel distinguishing "never decided" from a memoised None (filtered).
_MISSING = object()


@dataclass
class BagOfWords:
    """Column-style representation of a document (or a column's values)."""

    terms: Counter = field(default_factory=Counter)

    @property
    def vocabulary(self) -> set[str]:
        return set(self.terms)

    @property
    def total(self) -> int:
        return sum(self.terms.values())

    def top(self, n: int) -> list[str]:
        """The ``n`` most frequent terms (ties broken alphabetically)."""
        return [t for t, _ in sorted(self.terms.items(), key=lambda kv: (-kv[1], kv[0]))[:n]]

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.terms

    def __iter__(self):
        return iter(self.terms)


class DocumentPipeline:
    """NLP-based format transformation from raw text to :class:`BagOfWords`.

    Parameters
    ----------
    max_doc_frequency:
        Terms appearing in more than this fraction of documents (measured on
        the corpus passed to :meth:`fit`) are filtered out as
        non-discriminative, per paper §3.
    keep_pos_nouns:
        Apply the heuristic noun filter. Disabled for metadata strings, where
        every token is content-bearing.
    """

    #: Bound on the per-pipeline token -> lemma-decision memo.
    TERM_MEMO_MAX = 1 << 16

    def __init__(self, max_doc_frequency: float = 0.5, keep_pos_nouns: bool = True):
        if not 0.0 < max_doc_frequency <= 1.0:
            raise ValueError(f"max_doc_frequency must be in (0, 1], got {max_doc_frequency}")
        self.max_doc_frequency = max_doc_frequency
        self.keep_pos_nouns = keep_pos_nouns
        self._common_terms: set[str] = set()
        self._num_docs_fit = 0
        self._pinned = False
        #: token -> lemma (or None when filtered); the stopword/POS/lemma
        #: decision is a pure function of the token, so it is shared across
        #: documents and fits of this pipeline instance.
        self._term_memo: dict[str, str | None] = {}

    # ------------------------------------------------------------------ fit

    def pin_filter(self, common_terms: set[str], num_docs: int) -> "DocumentPipeline":
        """Pin the df filter to an externally-computed term set.

        A sharded lake computes the "occurs in a large fraction of
        documents" filter over the *whole* corpus and pins each shard's
        pipeline with the result, so shard-local :meth:`fit` /
        :meth:`fit_transform` calls keep the corpus-wide filter instead of
        re-deriving it from the shard's own documents. While pinned, fitting
        is a no-op for the filter (transforms still run normally).
        """
        self._common_terms = set(common_terms)
        self._num_docs_fit = num_docs
        self._pinned = True
        return self

    @property
    def common_terms(self) -> frozenset[str]:
        """The df-filtered ("too common") term set of the current filter."""
        return frozenset(self._common_terms)

    @property
    def num_docs_fit(self) -> int:
        """Corpus size the current filter was derived from (or pinned with)."""
        return self._num_docs_fit

    def fit(self, corpus: Iterable[str]) -> "DocumentPipeline":
        """Learn the corpus-wide document frequencies used for term filtering."""
        if self._pinned:
            return self
        doc_freq: Counter = Counter()
        n = 0
        for text in corpus:
            n += 1
            doc_freq.update(set(self._base_terms(text)))
        self._num_docs_fit = n
        # "Occurs in a large number of documents" is only meaningful with a
        # corpus of some size; on a handful of documents the filter would
        # delete the entire vocabulary.
        if n >= 5:
            cutoff = self.max_doc_frequency * n
            self._common_terms = {t for t, df in doc_freq.items() if df > cutoff}
        else:
            self._common_terms = set()
        return self

    # ------------------------------------------------------------ transform

    def transform(self, text: str) -> BagOfWords:
        """Transform one document into its bag-of-words representation."""
        terms = [t for t in self._base_terms(text) if t not in self._common_terms]
        return BagOfWords(Counter(terms))

    def fit_transform(self, corpus: list[str]) -> list[BagOfWords]:
        """Fit the df filter and transform the corpus in one pass.

        Equivalent to ``fit(corpus)`` followed by ``transform`` per document
        (same filter, same bags), but each document is tokenised/lemmatised
        once instead of twice — the batch fit path of the profiler runs on
        this.
        """
        base = [self._base_terms(text) for text in corpus]
        if not self._pinned:
            doc_freq: Counter = Counter()
            for terms in base:
                doc_freq.update(set(terms))
            self._num_docs_fit = len(base)
            if len(base) >= 5:
                cutoff = self.max_doc_frequency * len(base)
                self._common_terms = {t for t, df in doc_freq.items() if df > cutoff}
            else:
                self._common_terms = set()
        return [
            BagOfWords(Counter(t for t in terms if t not in self._common_terms))
            for terms in base
        ]

    # ----------------------------------------------------------- persistence

    def __getstate__(self) -> dict:
        # The term memo is a pure-function cache; rebuilt on demand.
        state = dict(self.__dict__)
        state["_term_memo"] = {}
        return state

    def persistent_state(self) -> dict:
        return {
            "max_doc_frequency": self.max_doc_frequency,
            "keep_pos_nouns": self.keep_pos_nouns,
            "common_terms": sorted(self._common_terms),
            "num_docs_fit": self._num_docs_fit,
            "pinned": self._pinned,
        }

    @classmethod
    def restore_state(cls, state: dict) -> "DocumentPipeline":
        pipeline = cls(
            max_doc_frequency=state["max_doc_frequency"],
            keep_pos_nouns=state["keep_pos_nouns"],
        )
        pipeline._common_terms = set(state["common_terms"])
        pipeline._num_docs_fit = state["num_docs_fit"]
        pipeline._pinned = state["pinned"]
        return pipeline

    # ------------------------------------------------------------ internals

    def _base_terms(self, text: str) -> list[str]:
        """Tokenise + stopword-filter + POS-filter + lemmatise (memoised)."""
        memo = self._term_memo
        missing = _MISSING
        out = []
        for token in tokenize(text):
            lemma = memo.get(token, missing)
            if lemma is missing:
                lemma = self._term_decision(token)
                if len(memo) < self.TERM_MEMO_MAX:
                    memo[token] = lemma
            if lemma is not None:
                out.append(lemma)
        return out

    def _term_decision(self, token: str) -> str | None:
        """The per-token filter chain; None when the token is dropped."""
        if is_stopword(token):
            return None
        if self.keep_pos_nouns and not is_probable_noun(token):
            return None
        lemma = lemmatize(token)
        if len(lemma) < 2:
            return None
        return lemma
