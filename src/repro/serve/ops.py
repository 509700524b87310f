"""Worker-side shard operations: state reads, corpus statistics, mutations.

:data:`OPS` is the full dispatch table a worker process serves: the read
ops every transport shares (:data:`repro.core.scatter.READ_OPS`, run on
the same :class:`~repro.core.scatter.ShardHost` an in-process shard uses)
plus the operations only a process-hosted shard needs — the planning view
the front-end keeps of it, crash reconciliation, and the steps of a
mutation plan (:func:`repro.core.mutation.plan_mutation`, computed by the
front-end): one entry per routed op, all applied through
:func:`~repro.core.mutation.apply_mutation`, plus the df-filter pin and
sibling re-sync a rippling document mutation adds around them. Every
entry is a pure function of ``(host, payload)``.

The remote-statistics ops keep a sharded lake's statistics corpus-wide
over processes: the front-end gathers each shard's keyword-index
statistics (:func:`_stats_snapshot`), then installs on every worker a real
:class:`~repro.search.engine.CorpusStatsGroup` whose members are the
shard's *live* engine plus frozen snapshot stubs of every sibling — local
mutations re-merge immediately through the group's dirty tracking, and the
front-end re-pushes sibling snapshots after each committed mutation.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

from repro.core.mutation import ROUTED_OPS, apply_mutation
from repro.core.scatter import READ_OPS, ShardHost
from repro.core.sharding import STATS_FAMILIES
from repro.search.engine import CorpusStatsGroup


class ColumnLite:
    """The planner-facing slice of a column sketch: enough for validation,
    the "auto" strategy heuristic, and column -> table resolution.

    Deliberately not a (named)tuple: the RPC codec rebuilds tuples while
    extracting array slabs, which would flatten a tuple subclass back to
    ``tuple`` in transit.
    """

    __slots__ = ("table_name", "tags")

    def __init__(self, table_name: str, tags):
        self.table_name = table_name
        self.tags = tags

    def __getstate__(self):
        return (self.table_name, self.tags)

    def __setstate__(self, state):
        self.table_name, self.tags = state

    def __repr__(self) -> str:
        return f"ColumnLite({self.table_name!r}, {self.tags!r})"


# ------------------------------------------------------------ remote stats


class _SnapshotIndex:
    """Frozen corpus statistics of one remote shard's keyword index."""

    def __init__(self, df: dict, ctf: dict, num_docs: int, collection_length: int):
        self._df = Counter(df)
        self._ctf = Counter(ctf)
        self.num_docs = num_docs
        self.collection_length = collection_length

    def document_frequencies(self) -> Counter:
        return self._df

    def collection_frequencies(self) -> Counter:
        return self._ctf


class _SnapshotEngine:
    """Duck-typed group member holding a :class:`_SnapshotIndex`."""

    def __init__(self, index: _SnapshotIndex):
        self.index = index

    def share_stats(self, group) -> None:  # stubs never score anything
        pass


def _stats_snapshot(host: ShardHost, payload: dict) -> dict:
    """Per-family (df, ctf, num_docs, collection_length) of this shard."""
    snapshot = {}
    for family in STATS_FAMILIES:
        index = getattr(host.session.indexes, family).index
        snapshot[family] = (
            dict(index.document_frequencies()),
            dict(index.collection_frequencies()),
            index.num_docs,
            index.collection_length,
        )
    return snapshot


def _install_stats(host: ShardHost, payload: dict) -> None:
    """Wire this shard's keyword engines to groups merging the (frozen)
    sibling snapshots in ``payload["remote"]`` with the live local index."""
    for family in STATS_FAMILIES:
        members = [getattr(host.session.indexes, family)]
        for df, ctf, num_docs, length in payload["remote"].get(family, []):
            members.append(
                _SnapshotEngine(_SnapshotIndex(df, ctf, num_docs, length))
            )
        CorpusStatsGroup(members)
    return None


# -------------------------------------------------------------- state reads


def _catalog_lite(host: ShardHost, payload: dict) -> dict:
    """The front-end's planning view of this shard."""
    session = host.session
    profile = session.profile
    config = session.cmdl.config
    return {
        "generation": session.generation,
        "table_columns": {
            name: list(cols) for name, cols in profile.table_columns.items()
        },
        "columns": {
            cid: ColumnLite(sketch.table_name, sketch.tags)
            for cid, sketch in profile.columns.items()
        },
        "documents": list(profile.documents),
        "discovery_strategy": config.discovery_strategy,
        "operator_strategies": dict(config.operator_strategies or {}),
        "union_candidate_k": session.engine.scorer("unionable").candidate_k,
    }


def _doc_texts(host: ShardHost, payload: dict) -> list[tuple[str, str]]:
    return [(d.doc_id, d.text) for d in host.session.lake.documents]


def _get_table(host: ShardHost, payload: dict):
    return host.session.lake.table(payload["name"])


# ------------------------------------------------------------ mutation ops


def _mutate(op: str, host: ShardHost, payload: dict) -> dict:
    """One step of a planned mutation, applied through the shard session's
    own mutator; answers with the new generation and planning view."""
    apply_mutation(host.session, op, payload)
    return {
        "generation": host.session.generation,
        "catalog": _catalog_lite(host, {}),
    }


def _bump_generation(host: ShardHost, payload: dict) -> int:
    """Advance this shard's generation to at least ``payload["to"]``.

    Crash-recovery reconciliation: sibling-resync bumps and the mutation
    a worker died under are not in the shard's own journal, so a
    respawned engine can come back *behind* the front-end's recorded
    generation. Bumping restores the invariant the result cache rests on
    — a ``(shard, generation)`` pair never names two different states —
    without touching any derived state (the state itself is already
    exact after journal replay).
    """
    engine = host.session.engine
    target = payload["to"]
    if engine.generation < target:
        engine.generation = target
        if engine.candidates is not None:
            engine.candidates.generation = target
    return engine.generation


def _pin_filter(host: ShardHost, payload: dict) -> None:
    """Pin the corpus-wide df filter the front-end just recomputed."""
    host.session.profiler.pipeline.pin_filter(
        set(payload["common_terms"]), payload["num_docs"]
    )
    return None


def _resync_documents(host: ShardHost, payload: dict) -> dict:
    """Sibling-shard half of a sharded document mutation: re-sketch
    any document whose bag drifted under the newly pinned filter."""
    changed = host.session._resync_documents()
    if changed:
        host.session._commit()
    return {"changed": changed, "generation": host.session.generation}


OPS = {
    **READ_OPS,
    "stats_snapshot": _stats_snapshot,
    "install_stats": _install_stats,
    "catalog_lite": _catalog_lite,
    "doc_texts": _doc_texts,
    "get_table": _get_table,
    **{op: partial(_mutate, op) for op in ROUTED_OPS},
    "bump_generation": _bump_generation,
    "pin_filter": _pin_filter,
    "resync_documents": _resync_documents,
}
