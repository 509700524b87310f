"""Seeded inputs for the end-to-end benchmark: the lake and the op streams.

Everything the measured program receives is built here, from two seeds:

* the **lake seed** is fixed (`LAKE_SEED`), so every run fits the same
  Pharma-1B lake scaled ~10x by projection/selection
  (`repro.lakes.synthesis.derive_unionable_tables`, 9 derived tables per
  base: 520 tables / 1420 columns / 200 documents) — the scale at which
  LSH banding activates and at which ROADMAP's two unexplained numbers
  were recorded;
* the **workload seed** (`--seed`) drives which tables and terms the
  query stream asks about (stratified draws from the uniform distribution,
  or from a zipf distribution over a fixed rank order), the order they
  come in, and the churn tables.

The operator *mix* is a fixed pattern of slots, never a random draw, so op
counts per operator repeat exactly across seeds and runs. The program
under test never sees a workload name or a seed: only lakes, queries and
tables.
"""

from __future__ import annotations

import csv
import io
import re
import zlib
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.srql import Q
from repro.lakes import PharmaLakeConfig, derive_unionable_tables, generate_pharma_lake
from repro.relational.catalog import DataLake
from repro.relational.table import Table

LAKE_SEED = 7
DERIVED_PER_BASE = 9
#: Seed of the audited sample and the lifecycle smoke set: fixed, so
#: `oracle_overlap` is a count that repeats exactly on unchanged code.
AUDIT_SEED = 20230601

#: One slot per 5 % (or 2.5 %) of a read stream, interleaved so every window
#: of that many ops carries the whole mix. Each workload has its own shares
#: of the same operators, chosen so that its median and its 95th percentile
#: fall *inside* a latency mode of that workload and not on the edge
#: between two, where 1 % in rank is 10 % or more in value (ISSUE 11's rule
#: for `serve_churn_10x`, applied to all; the modes are not in the same
#: places behind a session, a warm result cache and a cache under churn, so
#: its one mix of 10 % cross-modal / 25 % joinable / 10 % unionable could
#: not serve all four).
#:
#: On one session (`query_mono_10x`, `lifecycle_10x`): 30 % keyword, 20 %
#: cross-modal, 10 % joinable, 20 % pkfk, 15 % unionable, 5 % composed. The
#: fast operators (keyword, joinable) are 40 % of the reads, so the median
#: sits in the flat cross-modal/PK-FK mode, and the unionable mode is 17.5 %
#: wide, so the 95th percentile is well inside it.
MIX = (
    "joinable", "content_text", "pkfk", "metadata_text", "unionable",
    "cross_modal", "content_table", "pkfk", "cross_modal", "unionable",
    "metadata_table", "pkfk", "composed", "content_text", "joinable",
    "unionable", "pkfk", "cross_modal", "metadata_text", "cross_modal",
)
#: `serve_read_10x`, 40 slots: 45 % keyword, 25 % cross-modal, 17.5 %
#: joinable, 10 % pkfk, 2.5 % unionable (compositions are served on
#: `serve_churn_10x`). Behind the result cache the modes are hits (~35 % of
#: the reads), keyword misses (~40 %: the median is inside),
#: cross-modal/joinable misses, served PK-FK (never cached; its lower three
#: quarters are the tightest mode there is, 9.3-10.3 ms) and union misses
#: (20-50 ms). With unionable at 15 %, composed at 5 % and pkfk at 20 %,
#: `query_p95_ms` sat on the cliff between the last two (13 ms at rank 93 %,
#: 18 ms at 96 %). Now the union misses are ~1.3 % of the reads and PK-FK's
#: own upper quarter 2.5 %, so the 95th percentile lies in the flat body of
#: the PK-FK mode; the union misses are carried by `queries_per_s` (an
#: eighth of the wall time) and the printed p99.
MIX_SERVE_READ = (
    "cross_modal", "joinable", "content_text", "metadata_text", "pkfk",
    "cross_modal", "content_table", "metadata_table", "joinable", "cross_modal",
    "content_text", "metadata_text", "cross_modal", "joinable", "pkfk",
    "content_text", "metadata_text", "cross_modal", "joinable", "content_table",
    "metadata_table", "unionable", "cross_modal", "content_text", "metadata_text",
    "pkfk", "joinable", "cross_modal", "cross_modal", "content_text",
    "metadata_text", "joinable", "content_table", "metadata_table", "cross_modal",
    "pkfk", "content_text", "metadata_text", "joinable", "cross_modal",
)
#: `serve_churn_10x` keeps PK-FK reads out of the background mix: the first
#: one after a mutation re-sweeps the lake (~0.6 s at 10x), so they are
#: placed explicitly (see `churn_ops`). 30 % keyword, 35 % cross-modal, 10 %
#: joinable, 20 % unionable, 5 % composed: the median lies in the
#: cross-modal mode and not in the wide joinable one below it, and the
#: union/compose-miss mode (nearly every read misses under churn) is 22.5 %
#: wide, which puts the 95th percentile on that mode's plateau (its upper
#: third, 41-50 ms of 22-70) and not on the rise to it.
MIX_CHURN = (
    "joinable", "content_text", "cross_modal", "metadata_text", "unionable",
    "cross_modal", "content_table", "cross_modal", "unionable", "cross_modal",
    "metadata_table", "cross_modal", "composed", "content_text", "joinable",
    "unionable", "cross_modal", "metadata_text", "unionable", "cross_modal",
)
#: One op in CHURN_PERIOD of the churn stream is a mutation.
CHURN_PERIOD = 7
#: PK-FK reads that end a block of the churn stream.
PKFK_BURST = 3
#: `draw` numbers of a seed's streams: measured block i is draw i.
DRAW_WARMUP = 100
DRAW_PKFK = 200

#: Operator reported for each mix slot (the per-operator breakdowns).
OPERATOR = {
    "content_text": "content_search", "content_table": "content_search",
    "metadata_text": "metadata_search", "metadata_table": "metadata_search",
    "cross_modal": "cross_modal", "joinable": "joinable", "pkfk": "pkfk",
    "unionable": "unionable", "composed_and": "composed",
    "composed_then": "composed",
}


def build_lake(scale: int = 10) -> DataLake:
    """Pharma-1B, plus `scale - 1` derived tables per base table."""
    base = generate_pharma_lake(PharmaLakeConfig(seed=0)).lake
    lake = DataLake(name=f"pharma-x{scale}")
    for table in base.tables:
        lake.add_table(table)
    if scale > 1:
        derived, _ = derive_unionable_tables(
            base.tables, derived_per_base=scale - 1, seed=LAKE_SEED,
            name_prefix="scale",
        )
        for table in derived:
            lake.add_table(table)
    for document in base.documents:
        lake.add_document(document)
    return lake


def copy_lake(lake: DataLake) -> DataLake:
    """A fresh catalog over the same (immutable) tables and documents:
    sessions mutate the `DataLake` they are opened on."""
    fresh = DataLake(name=lake.name)
    for table in lake.tables:
        fresh.add_table(table)
    for document in lake.documents:
        fresh.add_document(document)
    return fresh


def user_bytes(lake: DataLake) -> int:
    """Bytes of user data: every table as CSV plus every document's text."""
    total = 0
    for table in lake.tables:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(table.column_names)
        writer.writerows(table.rows())
        total += len(buffer.getvalue().encode("utf-8"))
    for document in lake.documents:
        total += len(document.title.encode("utf-8"))
        total += len(document.text.encode("utf-8"))
    return total


_WORD = re.compile(r"[a-z]{4,}")


@dataclass(frozen=True)
class Vocabulary:
    """What a client could plausibly ask this lake about."""

    tables: tuple[str, ...]
    documents: tuple[str, ...]
    content_terms: tuple[str, ...]
    metadata_terms: tuple[str, ...]


def vocabulary(lake: DataLake) -> Vocabulary:
    content: Counter = Counter()
    metadata: Counter = Counter()
    for document in lake.documents:
        content.update(set(_WORD.findall(document.text.lower())))
        metadata.update(set(_WORD.findall(document.title.lower())))
    for table in lake.tables:
        for name in table.column_names:
            metadata.update(_WORD.findall(name.lower()))
    # Terms present in more than half the documents are df-filtered by the
    # document pipeline and would match nothing.
    ceiling = max(2, len(lake.documents) // 2)
    return Vocabulary(
        tables=tuple(lake.table_names),
        documents=tuple(d.doc_id for d in lake.documents),
        content_terms=tuple(sorted(t for t, n in content.items() if n <= ceiling)),
        metadata_terms=tuple(sorted(t for t, n in metadata.items() if n <= ceiling)),
    )


#: The pools each kind of query draws from, in the order it draws.
POOLS = {
    "content_text": ("c1", "c2"), "content_table": ("c1", "c2"),
    "metadata_text": ("m1", "m2"), "metadata_table": ("m1", "m2"),
    "cross_modal": ("doc",), "joinable": ("joinable",), "pkfk": ("pkfk",),
    "unionable": ("unionable",), "composed_and": ("composed",),
    "composed_then": ("c1",),
}


class _Picker:
    """Index draws over named pools: uniform, or zipf over a rank order.

    The draws are *stratified*: a pool a stream draws from `n` times is cut
    into `n` strata of equal probability, one index is drawn inside each,
    and the seed shuffles the order they come in. Every seed so asks a
    popular item about as often as its probability says and spreads the
    rest evenly over the pool (which items, and when, is the seed's), where
    independent draws let the number of repeats — the cache hits — and
    the share of wide, slow tables swing from seed to seed.

    The rank order of a pool is fixed with the lake (`LAKE_SEED`), like
    the lake's own content: which tables and terms are popular is a
    property of the workload. A seeded head would let a single wide hot
    table move the latency percentiles from seed to seed."""

    def __init__(self, seed: int, draw: int, zipf_s: float | None, uses: Counter):
        self.rng = np.random.default_rng([seed, draw])
        self.zipf_s = zipf_s
        self.uses = uses
        self._drawn: dict[str, Iterator[int]] = {}

    def pick(self, pool_name: str, size: int) -> int:
        drawn = self._drawn.get(pool_name)
        if drawn is None:
            n = self.uses[pool_name]
            quantiles = (np.arange(n) + self.rng.random(n)) / n
            if self.zipf_s is None:
                picks = (quantiles * size).astype(int)
            else:
                order = np.random.default_rng(
                    [LAKE_SEED, zlib.crc32(pool_name.encode())]
                ).permutation(size)
                mass = np.cumsum(np.arange(1, size + 1, dtype=float) ** -self.zipf_s)
                ranks = np.searchsorted(mass / mass[-1], quantiles, side="right")
                picks = order[np.minimum(ranks, size - 1)]
            self.rng.shuffle(picks)
            drawn = self._drawn[pool_name] = iter(picks.tolist())
        return next(drawn)


def _make_query(kind: str, vocab: Vocabulary, picker: _Picker):
    def term(pool_name: str, pool) -> str:
        return pool[picker.pick(pool_name, len(pool))]

    if kind.startswith("content"):
        value = f"{term('c1', vocab.content_terms)} {term('c2', vocab.content_terms)}"
        return Q.content_search(value, mode=kind.split("_")[1], k=10)
    if kind.startswith("metadata"):
        value = f"{term('m1', vocab.metadata_terms)} {term('m2', vocab.metadata_terms)}"
        return Q.metadata_search(value, mode=kind.split("_")[1], k=10)
    if kind == "cross_modal":
        return Q.cross_modal(
            term("doc", vocab.documents), top_n=3, representation="solo"
        )
    if kind == "composed_then":  # a two-hop pipeline
        return Q.content_search(
            term("c1", vocab.content_terms), k=5
        ).cross_modal(top_n=3, representation="solo")
    table = term(POOLS[kind][0], vocab.tables)
    if kind == "joinable":
        return Q.joinable(table, top_n=3)
    if kind == "pkfk":
        return Q.pkfk(table, top_n=3)
    if kind == "unionable":
        return Q.unionable(table, top_n=3)
    return Q.joinable(table, top_n=5) & Q.unionable(table, top_n=5)  # composed_and


def query_stream(
    vocab: Vocabulary, seed: int, count: int, zipf_s: float | None = None,
    mix: tuple[str, ...] = MIX, draw: int = 0,
) -> list[tuple[str, Q]]:
    """`count` (operator, query) pairs following `mix` slot by slot; a
    `composed` slot is an intersection and a two-hop pipeline by turns.

    Uniform draws (`zipf_s=None`) cover all tables and terms so repeats are
    rare; zipf draws concentrate on a fixed head so a result cache sees
    both repeats and a long tail. `draw` numbers independent streams of
    one seed.
    """
    kinds = [mix[i % len(mix)] for i in range(count)]
    composed = [i for i, kind in enumerate(kinds) if kind == "composed"]
    for turn, i in enumerate(composed):
        kinds[i] = "composed_then" if turn % 2 else "composed_and"
    uses = Counter(pool for kind in kinds for pool in POOLS[kind])
    picker = _Picker(seed, draw, zipf_s, uses)
    return [
        (OPERATOR[kind], _make_query(kind, vocab, picker)) for kind in kinds
    ]


def audit_queries(vocab: Vocabulary, count: int) -> list[tuple[str, Q]]:
    """The fixed audited sample (also the lifecycle smoke set)."""
    return query_stream(vocab, AUDIT_SEED, count)


# ------------------------------------------------------------------ churn


def canary_token(index: int, version: int) -> str:
    # Letters only, and none that could end in a suffix the lemmatizer
    # strips: the token must survive the text pipeline whole.
    letters = "bcdfhjkmpq"
    tag = "".join(letters[int(d)] for d in f"{index:04d}")
    return f"canary{'new' if version else 'old'}{tag}"


def churn_table(lake: DataLake, seed: int, index: int, version: int) -> Table:
    """Churn table `index`: 50 rows when added (`version` 0), 60 when
    updated (1). `ref` samples a key column of a lake table, so the table
    takes part in join/PK-FK answers, and every `note` carries the
    version's canary token."""
    rng = np.random.default_rng([seed, index])
    rows = 60 if version else 50
    base = lake.tables[int(rng.integers(len(lake.tables)))]
    keys = base.column(base.column_names[0]).non_missing or ["none"]
    token = canary_token(index, version)
    return Table.from_dict(f"churn_{index:04d}", {
        "churn_id": [f"CH{index:04d}-{row:03d}" for row in range(rows)],
        "ref": [keys[int(i)] for i in rng.integers(len(keys), size=rows)],
        "note": [f"{token} batch {row % 7}" for row in range(rows)],
        "amount": [int(v) for v in rng.integers(1, 1000, size=rows)],
    })


def canary_query(index: int, version: int) -> Q:
    return Q.content_search(canary_token(index, version), mode="table", k=10)


def canary_visible(result, index: int) -> bool:
    prefix = f"churn_{index:04d}."
    return any(item_id.startswith(prefix) for item_id, _ in result.items)


@dataclass(frozen=True)
class Op:
    """One client operation. `kind` is `read`, `canary`, or a mutator name;
    canaries carry the visibility the read must observe."""

    kind: str
    operator: str = ""
    query: Q | None = None
    table: Table | None = None
    name: str = ""
    index: int = -1
    expect_visible: bool = False


def mutation_ops(lake: DataLake, seed: int, cycles: int, first: int = 0) -> list[Op]:
    """`cycles` x (add -> update -> remove) over churn tables `first`
    onwards, each followed by its canary read: after add/update the
    table's current token must be found, after remove it must not. The
    lake ends as it began."""
    ops: list[Op] = []
    for index in range(first, first + cycles):
        added = churn_table(lake, seed, index, 0)
        updated = churn_table(lake, seed, index, 1)
        ops += [
            Op("add_table", table=added, index=index),
            Op("canary", query=canary_query(index, 0), index=index,
               expect_visible=True),
            Op("update_table", table=updated, index=index),
            Op("canary", query=canary_query(index, 1), index=index,
               expect_visible=True),
            Op("remove", name=added.name, index=index),
            Op("canary", query=canary_query(index, 1), index=index,
               expect_visible=False),
        ]
    return ops


def churn_ops(
    lake: DataLake, vocab: Vocabulary, seed: int, count: int,
    zipf_s: float, block: int,
) -> list[Op]:
    """Block `block` of the interleaved read/write stream, `count` ops
    (whole add/update/remove cycles): every 7th op is a mutation, the read
    after it is its canary, and the first `PKFK_BURST` reads after the
    block's last mutation are PK-FK queries — the first re-sweeps the
    mutated lake, the others are answered from the fresh sweep."""
    periods = count // CHURN_PERIOD
    cycle_ops = mutation_ops(lake, seed, periods // 3, first=block * (periods // 3))
    mutations = iter(op for op in cycle_ops if op.kind != "canary")
    canaries = iter(op for op in cycle_ops if op.kind == "canary")
    reads = iter(query_stream(
        vocab, seed, count - 2 * periods - PKFK_BURST, zipf_s, MIX_CHURN, draw=block
    ))
    pkfk = iter(query_stream(
        vocab, seed, PKFK_BURST, zipf_s, ("pkfk",), draw=DRAW_PKFK + block
    ))
    ops: list[Op] = []
    for i in range(count):
        slot, period = i % CHURN_PERIOD, i // CHURN_PERIOD
        if slot == 0:
            ops.append(next(mutations))
        elif slot == 1:
            ops.append(next(canaries))
        else:
            burst = period == periods - 1 and slot < 2 + PKFK_BURST
            operator, query = next(pkfk if burst else reads)
            ops.append(Op("read", operator=operator, query=query))
    return ops
