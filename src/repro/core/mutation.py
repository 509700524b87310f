"""One mutation path: route, validate, plan and apply every lake mutation.

A lake mutation is a journaled ``(op, payload)`` record; op names and
payload dicts are the journal format and do not change. Each op names the
session mutator that applies it, called with one payload entry
(``_ARGUMENT``). What a front-end must decide about a mutation is decided
here, once:

* :func:`apply_mutation` applies a record to a session — catalog and
  worker journal replay, the worker's mutation ops, the thread server;
* :func:`journal_shard` names the shard whose journal carries a record
  (a monolithic catalog routes with ``ShardRouter(1)``);
* :func:`check_mutation` rejects what the owning shard's view cannot
  take, before anything is journaled, shipped or applied;
* :func:`plan_mutation` validates a routed op and returns a
  :class:`MutationPlan`: plain data that
  :class:`~repro.core.sharding.ShardedLakeSession` runs directly and the
  process-backed server runs with journal append, crash resume and inline
  recovery around each step (Polynesia's split of update shipping from
  update application, arXiv:2103.00798).
"""

from __future__ import annotations

from typing import NamedTuple

#: The ops :func:`plan_mutation` covers: each one names a single owner
#: per table or document (``rebalance`` and ``refresh`` are lake-wide).
ROUTED_OPS = ("add_table", "update_table", "add_documents", "remove")

#: Op -> the payload entry its mutator takes (op name == mutator name).
_ARGUMENT = {
    "add_table": "table",
    "update_table": "table",
    "add_documents": "documents",
    "remove": "name",
    "rebalance": "assignments",
    "refresh": "gold_pairs",
}


class MutationPlan(NamedTuple):
    """What one routed mutation does, decided before any of it runs.

    ``steps`` are the ``(shard, op, payload)`` owner calls, in ascending
    shard order. A document mutation also carries ``corpus``, the delta a
    sharded lake re-pins its corpus-wide df filter with *before* the
    steps — ``(texts added by doc id, ids removed)`` — and
    ``resync_skip``: once the steps ran, every shard not in it re-syncs
    the documents the new filter drifted. Both are ``None`` for table
    mutations, which never move the filter. A monolithic lake fits its
    own filter and runs only the steps.
    """

    steps: list[tuple[int, str, dict]]
    corpus: tuple[dict[str, str], frozenset[str]] | None = None
    resync_skip: frozenset[int] | None = None


def apply_mutation(session, op: str, payload: dict) -> None:
    """Apply one journaled mutation through ``session``'s public mutator."""
    try:
        argument = _ARGUMENT[op]
    except KeyError:
        raise ValueError(f"unknown mutation op {op!r}") from None
    getattr(session, op)(payload[argument])


def journal_shard(op: str, payload: dict, router) -> int:
    """The shard whose journal carries an ``(op, payload)`` record: the
    owner of its table, document or first document; lake-wide ops sit in
    shard 0. Placement only — replay orders by the catalog-global seq."""
    if op in ("add_table", "update_table"):
        return router.shard_of(payload["table"].name)
    if op == "remove":
        return router.shard_of(payload["name"])
    if op == "add_documents":
        return router.shard_of(payload["documents"][0].doc_id)
    return 0


def check_mutation(op: str, payload: dict, view, lake: str) -> None:
    """Raise the session's error for a mutation the owner's ``view`` (a
    profile, shard host or worker catalog copy: ``table_columns`` and
    ``documents`` by name) rejects; lake-wide ops pass."""
    tables, documents = view.table_columns, view.documents
    if op in ("add_table", "update_table"):
        name = payload["table"].name
        if op == "add_table" and name in tables:
            raise ValueError(f"duplicate table name {name!r}")
        if op == "update_table" and name not in tables:
            raise KeyError(f"lake {lake!r} has no table {name!r} to update")
    elif op == "add_documents":
        seen: set[str] = set()
        for document in payload["documents"]:
            if document.doc_id in documents or document.doc_id in seen:
                raise ValueError(f"duplicate document id {document.doc_id!r}")
            seen.add(document.doc_id)
    elif op == "remove":
        name = payload["name"]
        if name not in tables and name not in documents:
            raise KeyError(f"lake {lake!r} has no table or document {name!r}")


def plan_mutation(
    op: str, payload: dict, router, views, lake: str
) -> MutationPlan:
    """Validate a routed mutation against ``views[owner]`` and plan it.
    A repeated doc id routes to one owner, so checking each owner's slice
    of a batch checks the whole batch."""
    if op == "add_documents":
        by_owner: dict[int, list] = {}
        for document in payload["documents"]:
            by_owner.setdefault(router.shard_of(document.doc_id), []).append(document)
        steps = [(i, op, {"documents": batch}) for i, batch in sorted(by_owner.items())]
    elif op in ROUTED_OPS:
        steps = [(journal_shard(op, payload, router), op, payload)]
    else:
        raise ValueError(f"unknown mutation op {op!r}")
    for shard, _, step_payload in steps:
        check_mutation(op, step_payload, views[shard], lake)
    if op == "add_documents":
        added = {d.doc_id: d.text for d in payload["documents"]}
        return MutationPlan(steps, (added, frozenset()), frozenset(by_owner))
    owner = steps[0][0]
    if op == "remove" and payload["name"] not in views[owner].table_columns:
        removed = frozenset({payload["name"]})
        return MutationPlan(steps, ({}, removed), frozenset({owner}))
    return MutationPlan(steps)
