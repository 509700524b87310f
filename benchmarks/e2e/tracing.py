"""The traced run: spans around each layer's public calls, self times.

`--trace 1` is a separate run. It replays the workload's op stream
through the decomposed public calls (`Planner.plan` then
`Executor.execute` instead of `discover`; a served front-end is
instrumented by wrapping the public methods of its planner, cache,
backend and shard hosts on the live instances), records spans
`{id, name, start, end, parent, op_id}` in memory, writes `trace.json`
when it ends, and prints each layer's **self time** per operator — a
span's duration minus the part of it its children cover. The per-layer
metrics of BENCHMARK.json come from the microprobes in `probes.py`, run
on inputs sampled from the same seeded stream.

End-to-end metrics always come from the untraced run; the replay's own
latency is printed beside them as `trace_overhead` (informational).
"""

from __future__ import annotations

import json
import shutil
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import probes
import workloads
from lake import DRAW_WARMUP, Op, copy_lake, query_stream
from repro.core.session import open_lake
from repro.core.srql.executor import Executor
from repro.core.srql.planner import Planner
from repro.serve import LakeServer

#: The six engine methods the SRQL executor drives, by span name.
ENGINE_METHODS = {
    "content_search": "discovery.content_search",
    "metadata_search": "discovery.metadata_search",
    "cross_modal_search": "discovery.cross_modal",
    "joinable": "discovery.joinable",
    "pkfk": "discovery.pkfk",
    "unionable": "discovery.unionable",
    "pkfk_links": "pkfk.sweep",
}
MUTATORS = ("add_table", "update_table", "remove")


class Tracer:
    """In-memory span recorder for one closed-loop client.

    Each thread keeps its own stack of open spans; a span opened on a
    pool thread with nothing above it (a scattered shard round-trip)
    hangs off the client's current op root."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None
        self._op_id = -1
        self.operator_of_op: dict[int, str] = {}

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {
            "name": name, "parent": stack[-1] if stack else self._root,
            "op_id": self._op_id, "start": time.perf_counter(), "end": None,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    @contextmanager
    def op(self, operator: str):
        """The root span of one client operation."""
        self._op_id += 1
        self.operator_of_op[self._op_id] = operator
        with self.span(f"client.{operator}") as record:
            self._root = record["id"]
            try:
                yield record
            finally:
                self._root = None

    def wrap(self, obj, attr: str, name) -> None:
        """Shadow the bound method `obj.attr` on the instance with a
        span-recording wrapper. `name` is the span name, or a callable
        deriving it from the call's arguments."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)

    def add_synthetic(self, parent: dict, stages: dict[str, float]) -> None:
        """Child spans laid end to end from `parent`'s start, from a stage
        breakdown the program itself reports (`cmdl.fit_stats`)."""
        cursor = parent["start"]
        for name, seconds in stages.items():
            with self._lock:
                self.spans.append({
                    "id": len(self.spans), "name": name, "parent": parent["id"],
                    "op_id": parent["op_id"], "start": cursor,
                    "end": cursor + seconds, "synthetic": True,
                })
            cursor += seconds

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict[str, dict[str, float]]:
        """`{operator: {span name: summed self seconds}}`."""
        children: dict[int, list[dict]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            covered, cursor = 0.0, span["start"]
            for child in sorted(children[span["id"]], key=lambda c: c["start"]):
                lo = max(cursor, child["start"])
                hi = min(span["end"], child["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            operator = self.operator_of_op.get(span["op_id"], "-")
            table[operator][span["name"]] += span["end"] - span["start"] - covered
        return {op: dict(names) for op, names in table.items()}


def instrument_session(tracer: Tracer, session) -> tuple[Planner, Executor]:
    """Planner + executor built from public constructors over the live
    engine, with the engine's public methods wrapped."""
    cfg = session.cmdl.config
    planner = Planner(
        session.profile, default_strategy=cfg.discovery_strategy,
        operator_strategies=cfg.operator_strategies,
    )
    for attr, name in ENGINE_METHODS.items():
        tracer.wrap(session.engine, attr, name)
    return planner, Executor(session.engine, planner=planner)


def instrument_server(tracer: Tracer, server: LakeServer) -> None:
    backend = server.backend
    tracer.wrap(server.planner, "plan_batch", "srql.plan")
    tracer.wrap(server.cache, "get", "serve.cache_get")
    tracer.wrap(server.cache, "put", "serve.cache_put")
    tracer.wrap(backend, "round_trip", "serve.round_trip")
    tracer.wrap(backend, "apply", lambda op, payload: f"serve.apply.{op}")
    if not hasattr(backend, "hosts"):
        return  # process backend: the workers' side is out of reach from here
    for host in backend.hosts:
        tracer.wrap(host, "handle", lambda op, payload: f"ops.handle.{op}")
        for attr, name in ENGINE_METHODS.items():
            tracer.wrap(host.session.engine, attr, name)
        for mutator in MUTATORS:
            tracer.wrap(host.session, mutator, f"session.{mutator}")
    if len(backend.hosts) > 1:  # the sharded session routes to a shard
        for mutator in MUTATORS:
            tracer.wrap(backend.session, mutator, f"sharding.{mutator}")
    store = backend.session._store  # the bound LakeStore: no public accessor
    tracer.wrap(store, "checkpoint", "store.checkpoint")
    for db in store.shard_dbs:
        tracer.wrap(db, "append_journal", "store.journal_append")
        tracer.wrap(db, "commit", "store.commit")


def replay(name: str, inputs, seed: int, seconds: float, workdir: Path,
           tracer: Tracer) -> dict:
    """Replay the workload's measured section under the tracer; returns
    the replay's own latency summary."""
    spec = workloads.WORKLOADS[name]
    blocks = workloads.measured_ops(spec, inputs, seed, seconds)
    lake, vocab = inputs.lake, inputs.vocab
    latencies: list[float] = []

    def client_read(front, runtime, op: Op) -> None:
        began = time.perf_counter()
        with tracer.op(op.operator or op.kind):
            if runtime is None:
                front.discover(op.query)
            else:
                planner, executor = runtime
                with tracer.span("srql.plan"):
                    plan = planner.plan(op.query.ast)
                with tracer.span("srql.execute"):
                    executor.execute(plan)
        if op.kind == "read":
            latencies.append(1000 * (time.perf_counter() - began))

    def attach(front):
        if isinstance(front, LakeServer):
            instrument_server(tracer, front)
            return None
        return instrument_session(tracer, front)

    if spec.cycles:
        for cycle, smoke in enumerate(blocks):
            path = workdir / f"trace-cycle-{cycle}"
            fresh = copy_lake(lake)
            with tracer.op("fit") as root:
                session = open_lake(fresh, workloads.config())
            stats = session.cmdl.fit_stats
            tracer.add_synthetic(root, {
                "fit.profile": stats.profile_seconds,
                "fit.sketch": stats.sketch_seconds,
                "fit.embed": stats.embed_seconds,
                "fit.index": stats.index_seconds,
            })
            with tracer.op("save"):
                session.save(path)
            session.close()
            with tracer.op("reopen"):
                front = workloads.open_front(spec, path)
            runtime = attach(front)
            for op in smoke:
                client_read(front, runtime, op)
            front.close()
    else:
        front, _, _ = workloads.bring_up(spec, lake, workdir / "trace-front")
        try:
            for _, query in query_stream(
                vocab, seed, spec.warmup_ops, spec.zipf_s, spec.mix, DRAW_WARMUP
            ):
                front.discover(query)
            runtime = attach(front)
            for op in (op for ops in blocks for op in ops):
                if op.query is not None:
                    client_read(front, runtime, op)
                    continue
                with tracer.op(op.kind):
                    workloads.issue(front, op)
        finally:
            front.close()
    return {
        "replayed_ops": sum(len(ops) for ops in blocks),
        "query_p50_ms": statistics.median(latencies),
        "query_p95_ms": workloads.percentile(latencies, 0.95),
    }


def print_self_times(table: dict[str, dict[str, float]]) -> None:
    print("self time per operator (ms summed over the replay):")
    for operator in sorted(table):
        row = sorted(table[operator].items(), key=lambda kv: -kv[1])
        cells = "  ".join(f"{name}={1000 * s:.1f}" for name, s in row[:8])
        print(f"  {operator:16s} {cells}")


def run_traced(name: str, seed: int, seconds: float, scale: int,
               work_root: Path, probed: dict | None = None) -> dict:
    """Replay `name` under the tracer, then run the microprobes. The
    probes do not depend on the workload: a caller tracing several
    workloads in one process (`--smoke`) passes one `probed` dict and they
    run once."""
    inputs = workloads.make_inputs(scale)
    workdir = work_root / f"{name}-{seed}-trace"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer()
    try:
        summary = replay(name, inputs, seed, seconds, workdir, tracer)
        if probed is None:
            probed = {}
        if not probed:
            probed["metrics"], probed["checks"] = probes.run_probes(
                inputs, seed, workdir
            )
        metrics, checks = probed["metrics"], probed["checks"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    table = tracer.self_times()
    print_self_times(table)
    untraced = work_root / f"{name}-seed{seed}.json"
    if untraced.exists():
        with open(untraced, encoding="utf-8") as handle:
            baseline = json.load(handle)["metrics"]["query_p50_ms"]["value"]
        summary["trace_overhead"] = summary["query_p50_ms"] / baseline
    else:
        summary["trace_overhead"] = "run --trace 0 with this seed first"
    origin = min(span["start"] for span in tracer.spans)
    work_root.mkdir(exist_ok=True)
    with open(work_root / "trace.json", "w", encoding="utf-8") as handle:
        json.dump({
            "workload": name, "seed": seed, "summary": summary,
            "self_time_s": table,
            "spans": [
                {**span, "start": span["start"] - origin,
                 "end": span["end"] - origin,
                 "operator": tracer.operator_of_op.get(span["op_id"], "-")}
                for span in tracer.spans
            ],
        }, handle)
    failed = [message for ok, message in checks if not ok]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "scale": scale,
        "ops": summary["replayed_ops"], "attempted": len(checks),
        "failed": len(failed), "succeeded": len(checks) - len(failed),
        "failures": failed, "metrics": metrics,
        "info": {**summary, "spans": len(tracer.spans)},
    }
