"""Serving a lake: concurrent readers, a live writer, zero torn reads.

A session interleaves mutation and discovery in one thread; a
``LakeServer`` splits the roles so many reader threads query while one
writer path mutates:

    server = session.serve()                     # thread backend
    server = session.serve(backend="process")    # one process per shard

* **snapshot reads** — a query pins the per-shard generation vector
  under a reader/writer lock and completes against exactly that
  snapshot, even while mutations queue behind it;
* **plan-level result cache** — per-shard partials are keyed by
  ``(plan node, generation scope)``, so a mutation on one shard leaves
  every other shard's cached partials warm;
* **process backend** — ``serve(backend="process")`` hands a *saved*
  catalog to one worker process per shard (booted via the cheap
  catalog-reopen path); the server becomes the catalog's sole writer
  and mutations are write-ahead journaled exactly like a session's;
* **fault tolerance** — a killed/hung worker is respawned inside the
  first read that needs it (catalog reopen + journal-tail replay back
  to the exact pre-crash generation), reads retry transparently, and a
  shard down past its retry budget either fails the query
  (``degraded="fail"``) or returns partial results with the gap
  reported in ``stats.degraded_shards`` (``degraded="partial"``).

Run:  python examples/serving_lake.py
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from pathlib import Path

from repro import CMDLConfig, Q, Table, generate_pharma_lake, open_lake


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="serving-lake-"))
    try:
        print("Generating + fitting the Pharma lake (2 shards) ...")
        lake = generate_pharma_lake().lake
        session = open_lake(lake, CMDLConfig(use_joint=False), shards=2)

        # ---- thread backend: serve the live session --------------------
        server = session.serve()
        print(f"\n{server!r}")

        queries = [
            Q.content_search("thymidylate synthase", k=3),
            Q.joinable("drugs", top_n=3),
            Q.unionable("atc_codes", top_n=3),
        ]
        counts = {"reads": 0}
        stop = threading.Event()

        def reader() -> None:
            i = 0
            while not stop.is_set():
                server.discover(queries[i % len(queries)])
                counts["reads"] += 1
                i += 1

        # Readers hammer the server while the writer churns tables: every
        # read completes against the generation snapshot it planned under.
        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for i in range(10):
            server.add_table(Table.from_dict(f"live_batch_{i}", {
                "batch_id": [f"B{i}0", f"B{i}1"],
                "status": ["open", "closed"],
            }))
            time.sleep(0.02)
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        stats = server.last_stats
        print(f"  {counts['reads']} reads concurrent with 10 mutations; "
              f"generations now {server.generations}")
        print(f"  last batch: cache_hits={stats.cache_hits} "
              f"cache_misses={stats.cache_misses} "
              f"round_trips={dict(stats.shard_round_trips)}")
        server.close()       # the session is still ours
        result = session.discover(Q.joinable("drugs", top_n=3))
        print(f"  session survives the server: joinable('drugs') -> "
              f"{[t for t, _ in result]}")

        # ---- process backend: save, then serve the catalog -------------
        print("\nHanding the catalog to per-shard worker processes ...")
        session.save(workdir / "pharma.catalog")
        server = session.serve(backend="process")   # closes the session
        print(f"  {server!r}")
        warm = server.discover_batch(queries)
        again = server.discover_batch(queries)
        assert [r.items for r in warm] == [r.items for r in again]
        print(f"  repeat batch served from cache: "
              f"hits={server.last_stats.cache_hits}, "
              f"round_trips={dict(server.last_stats.shard_round_trips)}")
        # ---- fault tolerance: kill a worker, keep serving --------------
        print("\nKilling shard 0's worker process mid-serve ...")
        victim = server.backend.workers[0]
        victim.proc.kill()
        victim.proc.wait()
        # Recovery is lazy: the next read that misses the cache and needs
        # shard 0 respawns it (catalog reopen + journal replay) and then
        # retries itself — the caller just sees a slower-than-usual query.
        # (A cached query would not even notice: partials for dead shards
        # keep serving from the result cache until a mutation bumps them.)
        result = server.discover(Q.content_search("protein kinase", k=3))
        stats = server.last_stats
        print(f"  fresh query served anyway: {result.ids()}")
        print(f"  stats: respawns={stats.respawns} retries={stats.retries} "
              f"(crashes past max_respawns trip a per-shard circuit "
              f"breaker; server.reset_shard(i) re-arms it, and "
              f"degraded='partial' trades failure for partial top-k)")

        server.add_table(Table.from_dict("served_extra", {
            "extra_id": ["X1"], "note": ["added through the server"],
        }))
        server.checkpoint()  # fold journals into the shard files
        server.close()

        # The served catalog is a normal catalog: reopen it anywhere.
        reopened = open_lake(workdir / "pharma.catalog")
        assert "served_extra" in reopened.table_names
        print("  catalog reopens in-process with the served mutations: "
              f"generation {reopened.generation}")
        reopened.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
