"""Serving layer: shard workers behind a concurrent discovery front-end.

The sharded session scatter-gathers inside one process, so every query
and every mutation still share one GIL and one address space. This
package splits the two roles the way HTAP designs isolate update
propagation from analytics (Polynesia, arXiv:2103.00798) — by layering
isolation (lock, RPC, supervision, retry) *around* the one analytics path,
not by forking it: reads run
:class:`~repro.core.scatter.ScatterGatherExecutor`, the executor the
in-process session runs, and the backends here are its transports.

* :mod:`repro.serve.rpc` — length-prefixed socket framing that ships
  sketches and per-shard top-k lists with the :mod:`repro.store.codec`
  slab encoding (numpy arrays travel as raw typed segments, not pickle
  bytes);
* :mod:`repro.serve.ops` — the worker-side half of the shard-op table
  (planning views, corpus-statistics exchange, the steps of a
  :func:`~repro.core.mutation.plan_mutation` plan, crash
  reconciliation) on top of the read ops every transport shares
  (:data:`repro.core.scatter.READ_OPS`);
* :mod:`repro.serve.worker` — one process per shard, booted from the
  shard's own ``shard-NNNN.sqlite`` (reopen, never refit) and forked —
  at boot and at every respawn — from the server's one *zygote*, a
  launcher that imported the worker code once; plus the parent-side
  handles that launch, call, and reap workers and zygote;
* :mod:`repro.serve.cache` — the per-shard result cache keyed by
  ``(plan node, generation scope)`` (re-exported from
  :mod:`repro.core.result_cache`);
* :mod:`repro.serve.server` — :class:`LakeServer`: generation-pinned
  snapshot reads, a single writer path per shard, ``session.serve()``,
  and the two transports — ``ThreadBackend`` (the live session's own
  hosts) and ``ProcessBackend`` (supervised workers);
* :mod:`repro.serve.faults` — deterministic fault injection for the
  recovery tests and ``benchmarks/bench_faults.py``.

Fault tolerance (process backend): transport failures surface as the
typed :class:`RPCError` hierarchy, a :class:`WorkerSupervisor` respawns
crashed or hung workers through the catalog-reopen path (the worker
replays its own journal tail back to the exact pre-crash state; a failed
launch relaunches the zygote once, then counts as a failed respawn), reads
retry on the respawned worker pinned to their snapshot generation, and a
shard down past its budget either fails the query
(:class:`ShardUnavailable`, ``degraded="fail"``) or drops out of the
top-k with ``ExecutionStats.degraded_shards`` populated
(``degraded="partial"``).
"""

from repro.serve.cache import ResultCache
from repro.serve.rpc import (
    ConnectionClosed,
    FrameCorrupt,
    RemoteShardError,
    RPCError,
    ShardUnavailable,
    WorkerCrashed,
    WorkerTimeout,
)
from repro.serve.server import LakeServer
from repro.serve.worker import WorkerSupervisor

__all__ = [
    "ConnectionClosed",
    "FrameCorrupt",
    "LakeServer",
    "RPCError",
    "RemoteShardError",
    "ResultCache",
    "ShardUnavailable",
    "WorkerCrashed",
    "WorkerSupervisor",
    "WorkerTimeout",
]
