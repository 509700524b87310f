"""Serving benchmark: concurrent discovery under churn, thread vs process.

The serving layer's contract is measured, not assumed:

* **snapshot isolation** — reader threads hammer the server while a
  mutator thread flips a canary table between two states; every read
  batch checks the canary invariant (exactly one of the two canary
  tokens matches). A torn read — a batch observing a half-applied or
  cross-generation state — breaks the invariant; the bench counts
  violations and asserts **zero**.
* **sustained QPS + tail latency** — per-query latencies over a fixed
  wall-clock window with the mutator running, reported as QPS / p50 /
  p99 for each backend x cache combination.
* **cache-hit speedup** — a quiescent repeat of the same workload with
  the cache warm (all partials reused, zero shard round-trips) vs cold.

Honesty notes for a single-core CI host: the thread backend shares one
GIL across readers, so its QPS measures lock/merge overhead rather than
parallel scoring; the process backend pays RPC framing per round-trip
and only shows its worth with real cores. Churn here is table-local
(add/update/remove of tables): document churn on a sharded lake
additionally ripples a corpus-wide df refit per mutation, which is a
different (heavier) write path measured by its own tests.

Appends to results.txt and emits BENCH_serving.json.

Run:  PYTHONPATH=src python benchmarks/bench_serving.py
      PYTHONPATH=src python benchmarks/bench_serving.py --smoke   # parity only
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.session import open_lake
from repro.core.srql import Q
from repro.core.system import CMDLConfig
from repro.embed.hashing_embedder import HashingEmbedder
from repro.eval.reporting import format_table
from repro.lakes.pharma import PharmaLakeConfig, generate_pharma_lake
from repro.relational.catalog import DataLake
from repro.relational.table import Table
from repro.serve import LakeServer

RESULTS_PATH = Path(__file__).parent / "results.txt"
JSON_PATH = Path(__file__).parent / "BENCH_serving.json"

READERS = 4
MEASURE_SECONDS = 4.0
MUTATE_EVERY = 0.015  # seconds between mutator ops

TOKEN_A = "zebragram"
TOKEN_B = "yakogram"
CANARY = "canary_flip"


def _config() -> CMDLConfig:
    # The documented serving-parity configuration: corpus-independent
    # hashing embedder, no joint model, global statistics.
    return CMDLConfig(use_joint=False, embedder=HashingEmbedder(seed=0))


def _copy_lake(lake: DataLake) -> DataLake:
    fresh = DataLake(name=lake.name)
    for table in lake.tables:
        fresh.add_table(table)
    for document in lake.documents:
        fresh.add_document(document)
    return fresh


def _canary_table(token: str) -> Table:
    return Table.from_dict(CANARY, {
        "flip_id": ["F1", "F2", "F3"],
        "note": [f"{token} state", f"{token} marker", token],
    })


def _queries(session) -> list:
    tables = sorted(
        name for name in (
            session.table_names
            if hasattr(session, "table_names") else session.lake.table_names
        )
        if not name.startswith(("churn_", CANARY))
    )[:3]
    queries = [
        Q.content_search("rate change", k=5),
        Q.metadata_search("report", k=5),
        Q.cross_modal("compound formulation trial", top_n=3,
                      representation="solo"),
    ]
    for table in tables:
        queries += [Q.joinable(table, top_n=3), Q.unionable(table, top_n=3),
                    Q.pkfk(table, top_n=3)]
    return queries


def _canary_batch() -> list:
    return [Q.content_search(TOKEN_A, mode="table", k=10),
            Q.content_search(TOKEN_B, mode="table", k=10)]


def _canary_violation(results) -> bool:
    """True when the snapshot is inconsistent: the canary table must
    match exactly one of the two tokens. Table-mode content search ranks
    column ids (``table.column``), so match on the table prefix."""
    def seen(result) -> bool:
        return any(cid.startswith(f"{CANARY}.") for cid, _ in result.items)

    return seen(results[0]) == seen(results[1])


class Mutator(threading.Thread):
    """Background churn: flip the canary, add/remove throwaway tables."""

    def __init__(self, server: LakeServer):
        super().__init__(daemon=True)
        self.server = server
        self.stop = threading.Event()
        self.ops = 0

    def run(self) -> None:
        flip, spawn = 0, 0
        while not self.stop.is_set():
            flip += 1
            token = TOKEN_A if flip % 2 == 0 else TOKEN_B
            self.server.update_table(_canary_table(token))
            self.ops += 1
            if flip % 5 == 0:
                name = f"churn_{spawn}"
                if spawn % 2 == 0:
                    self.server.add_table(Table.from_dict(name, {
                        "cid": ["C1", "C2"], "val": [spawn, spawn + 1],
                    }))
                else:
                    self.server.remove(f"churn_{spawn - 1}")
                spawn += 1
                self.ops += 1
            self.stop.wait(MUTATE_EVERY)


def _measure(server: LakeServer, queries: list, seconds: float) -> dict:
    """QPS / latency / torn reads over a fixed window under churn."""
    mutator = Mutator(server)
    latencies: list[list[float]] = [[] for _ in range(READERS)]
    torn = [0] * READERS
    done = [0] * READERS
    stop = threading.Event()

    def reader(slot: int) -> None:
        i = slot  # stagger the rotation per thread
        while not stop.is_set():
            if i % 4 == 0:
                start = time.perf_counter()
                results = server.discover_batch(_canary_batch())
                elapsed = time.perf_counter() - start
                latencies[slot].append(elapsed / 2)
                done[slot] += 2
                if _canary_violation(results):
                    torn[slot] += 1
            else:
                query = queries[i % len(queries)]
                start = time.perf_counter()
                server.discover(query)
                latencies[slot].append(time.perf_counter() - start)
                done[slot] += 1
            i += 1

    threads = [threading.Thread(target=reader, args=(s,)) for s in
               range(READERS)]
    mutator.start()
    start = time.perf_counter()
    for t in threads:
        t.start()
    time.sleep(seconds)
    stop.set()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    mutator.stop.set()
    mutator.join()

    flat = sorted(x for per in latencies for x in per)
    cache = server.cache
    return {
        "queries": sum(done),
        "qps": round(sum(done) / elapsed, 1),
        "p50_ms": round(1000 * statistics.median(flat), 2),
        "p99_ms": round(1000 * flat[int(len(flat) * 0.99)], 2),
        "torn_reads": sum(torn),
        "churn_ops": mutator.ops,
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_misses": cache.misses if cache is not None else 0,
    }


def _warm_speedup(server: LakeServer, queries: list) -> dict:
    """Quiescent cache-hit speedup: the same batch, cold then warm."""
    if server.cache is not None:
        server.cache.clear()
    start = time.perf_counter()
    server.discover_batch(queries)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    server.discover_batch(queries)
    warm = time.perf_counter() - start
    round_trips = dict(server.last_stats.shard_round_trips)
    return {
        "cold_ms": round(1000 * cold, 2),
        "warm_ms": round(1000 * warm, 2),
        "speedup": round(cold / warm, 2),
        "warm_round_trips": sum(round_trips.values()),
    }


def _sanity_canary(server: LakeServer) -> None:
    results = server.discover_batch(_canary_batch())
    assert not _canary_violation(results), (
        "canary setup broken: the flip table must match exactly one token"
    )


def _lake() -> DataLake:
    lake = generate_pharma_lake(PharmaLakeConfig(
        num_drugs=40, num_enzymes=20, num_documents=40, noise_documents=8,
        interactions_rows=60, targets_rows=40, chembl_compounds=40,
        chebi_compounds=24, union_derived_per_base=1, seed=0,
    )).lake
    lake.add_table(_canary_table(TOKEN_A))
    return lake


def main() -> None:
    lake = _lake()
    workdir = Path(tempfile.mkdtemp(prefix="bench-serving-"))
    results: dict = {"scenarios": {}}
    try:
        # ---- thread backend: one live sharded session, two cache modes
        session = open_lake(_copy_lake(lake), _config(), shards=2)
        queries = _queries(session)
        for cache in (True, False):
            label = f"thread_{'cache' if cache else 'nocache'}"
            server = LakeServer(session, cache=cache)
            _sanity_canary(server)
            if cache:
                results["cache_warm"] = _warm_speedup(server, queries)
            print(f"measuring {label} ...")
            results["scenarios"][label] = _measure(
                server, queries, MEASURE_SECONDS
            )
            server.close()
        session.close()

        # ---- process backend: saved catalog, one worker per shard
        session = open_lake(_copy_lake(lake), _config(), shards=2)
        session.save(workdir / "serving.catalog")
        session.close()
        for cache in (True, False):
            label = f"process_{'cache' if cache else 'nocache'}"
            server = LakeServer(workdir / "serving.catalog",
                                backend="process", cache=cache)
            _sanity_canary(server)
            print(f"measuring {label} ...")
            results["scenarios"][label] = _measure(
                server, queries, MEASURE_SECONDS
            )
            server.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = []
    for label, r in results["scenarios"].items():
        backend, cache = label.rsplit("_", 1)
        rows.append([
            backend, "on" if cache == "cache" else "off",
            r["qps"], r["p50_ms"], r["p99_ms"],
            r["torn_reads"], r["churn_ops"],
        ])
    report = format_table(
        ["backend", "cache", "QPS", "p50 (ms)", "p99 (ms)",
         "torn reads", "churn ops"],
        rows,
        title=f"Serving under churn ({READERS} readers, "
              f"{MEASURE_SECONDS:.0f}s windows, 2 shards)",
    )
    warm = results["cache_warm"]
    report += (
        f"\n  quiescent cache-hit speedup: {warm['speedup']:.1f}x "
        f"({warm['cold_ms']:.1f} ms cold -> {warm['warm_ms']:.1f} ms warm, "
        f"{warm['warm_round_trips']} warm round-trips)"
    )
    report += ("\n  note: single-core host figures; the thread backend is "
               "GIL-bound and the process backend pays RPC framing")
    print("\n" + report)
    with RESULTS_PATH.open("a") as fh:
        fh.write(report + "\n\n")
    with JSON_PATH.open("w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")

    torn_total = sum(r["torn_reads"] for r in results["scenarios"].values())
    assert torn_total == 0, (
        f"snapshot isolation violated: {torn_total} torn reads observed"
    )
    assert warm["warm_round_trips"] == 0, (
        "a warm repeat batch should be served entirely from the cache"
    )
    assert warm["speedup"] > 1.0, (
        f"cache-hit speedup must be measurable, got {warm['speedup']}x"
    )


def smoke() -> None:
    """Correctness-only pass for CI: thread and process parity against the
    in-process sharded session, cold and after mutations — no timing.

    Run as ``python benchmarks/bench_serving.py --smoke``.
    """
    lake = _lake()
    workdir = Path(tempfile.mkdtemp(prefix="bench-serving-smoke-"))
    try:
        reference = open_lake(_copy_lake(lake), _config(), shards=2)
        queries = _queries(reference) + _canary_batch()

        # Thread backend wraps the reference session itself.
        server = LakeServer(reference)
        expected = reference.discover_batch(queries)
        got = server.discover_batch(queries)
        assert [r.items for r in got] == [r.items for r in expected], (
            "thread-backend parity failed"
        )
        server.close()
        print(f"smoke OK (thread): {len(queries)} queries identical")

        # Process backend serves the saved catalog; the reference session
        # unbinds first (one writer per catalog).
        reference.save(workdir / "smoke.catalog")
        reference.close()
        server = LakeServer(workdir / "smoke.catalog", backend="process")
        got = server.discover_batch(queries)
        expected = reference.discover_batch(queries)
        assert [r.items for r in got] == [r.items for r in expected], (
            "process-backend parity failed (cold)"
        )

        for target in (reference, server):
            target.update_table(_canary_table(TOKEN_B))
            target.add_table(Table.from_dict("smoke_extra", {
                "id": ["S1", "S2"], "label": ["alpha", "beta"],
            }))
        got = server.discover_batch(queries)
        expected = reference.discover_batch(queries)
        assert [r.items for r in got] == [r.items for r in expected], (
            "process-backend parity failed (mutated)"
        )
        server.close()
        print(f"smoke OK (process): {len(queries)} queries identical, "
              "cold and after mutations")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        main()
