"""Fault benchmark: kill a shard worker under churn, measure the damage.

One process-backed server, reader threads running canary-checked batches,
a mutator thread flipping the canary and adding ledger tables — and at a
fixed point in the window, ``SIGKILL`` to a shard worker. Measured:

* **recovery latency** — wall-clock from the kill to the first query
  that *started after the kill* completing successfully (recovery is
  lazy: the respawn happens inside the first read that needs the shard);
* **QPS timeline** — completions per 0.5 s bucket across the window, so
  the dip around the kill and the recovery back to steady state are
  visible;
* **torn reads** — every canary batch checks the snapshot invariant
  (exactly one of the two flip tokens matches); asserted **zero**, kill
  or no kill;
* **lost mutations** — the mutator keeps a ledger of acknowledged
  mutations; after the run the catalog is checkpointed, closed, and
  reopened in-process, and every acknowledged table must be present:
  an acked mutation is journaled before it is applied, so a crash may
  delay it but never lose it. Asserted **zero lost**.

Appends to results.txt and emits BENCH_faults.json.

Run:  PYTHONPATH=src python benchmarks/bench_faults.py
      PYTHONPATH=src python benchmarks/bench_faults.py --smoke   # short CI run
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
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_serving import (
    TOKEN_A,
    TOKEN_B,
    _canary_batch,
    _canary_table,
    _canary_violation,
    _config,
    _copy_lake,
    _lake,
    _queries,
)

from repro.core.session import open_lake
from repro.eval.reporting import format_table
from repro.relational.table import Table
from repro.serve import LakeServer, ShardUnavailable

RESULTS_PATH = Path(__file__).parent / "results.txt"
JSON_PATH = Path(__file__).parent / "BENCH_faults.json"

READERS = 3
MUTATE_EVERY = 0.02  # seconds between mutator ops
BUCKET = 0.5  # QPS timeline resolution, seconds

#: Fast supervisor knobs: the bench measures recovery latency, not the
#: production backoff schedule.
SERVER_KNOBS = {"backoff_base": 0.01, "backoff_cap": 0.05}


class LedgerMutator(threading.Thread):
    """Canary flips + ledgered table adds; every ack is recorded.

    A mutation that raises :class:`ShardUnavailable` mid-kill is counted
    rejected, not acked — the server's contract is that a rejected
    "safe to retry" mutation applied nothing, and an acked one is
    journaled durably. The post-run audit holds it to that.
    """

    def __init__(self, server: LakeServer):
        super().__init__(daemon=True)
        self.server = server
        self.stop = threading.Event()
        self.acked_tables: list[str] = []
        self.acked_flips = 0
        self.rejected = 0

    def run(self) -> None:
        flip, spawn = 0, 0
        while not self.stop.is_set():
            token = TOKEN_A if flip % 2 == 0 else TOKEN_B
            flip += 1
            try:
                self.server.update_table(_canary_table(token))
            except ShardUnavailable:
                self.rejected += 1
            else:
                self.acked_flips += 1
            if flip % 4 == 0:
                name = f"churn_{spawn}"
                spawn += 1
                try:
                    self.server.add_table(Table.from_dict(name, {
                        "cid": [f"{name}_a", f"{name}_b"],
                        "val": [spawn, spawn + 1],
                    }))
                except ShardUnavailable:
                    self.rejected += 1
                else:
                    self.acked_tables.append(name)
            self.stop.wait(MUTATE_EVERY)


def _kill_under_churn(
    server: LakeServer, queries: list, seconds: float, kill_at: float
) -> dict:
    """Run readers + mutator for ``seconds``; kill worker 0 at ``kill_at``."""
    mutator = LedgerMutator(server)
    log_lock = threading.Lock()
    log: list[tuple[float, float, int]] = []  # (start, end, queries)
    torn = [0]
    errors = [0]
    stop = threading.Event()

    def reader(slot: int) -> None:
        i = slot
        while not stop.is_set():
            canary = i % 3 == 0
            batch = _canary_batch() if canary else [queries[i % len(queries)]]
            start = time.perf_counter()
            try:
                results = server.discover_batch(batch)
            except ShardUnavailable:
                with log_lock:
                    errors[0] += 1
                i += 1
                continue
            end = time.perf_counter()
            with log_lock:
                log.append((start, end, len(batch)))
                if canary and _canary_violation(results):
                    torn[0] += 1
            i += 1

    threads = [
        threading.Thread(target=reader, args=(s,)) for s in range(READERS)
    ]
    mutator.start()
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(kill_at)
    victim = server.backend.workers[0]
    victim.proc.kill()
    victim.proc.wait()
    kill_time = time.perf_counter()
    time.sleep(max(0.0, seconds - (kill_time - t0)))
    stop.set()
    for thread in threads:
        thread.join()
    mutator.stop.set()
    mutator.join()
    t_end = time.perf_counter()

    # Recovery latency: first query that started after the kill and
    # finished successfully (recovery runs lazily inside that query).
    post = [end for start, end, _ in log if start >= kill_time]
    recovery_ms = round(1000 * (min(post) - kill_time), 1) if post else None

    timeline: dict[int, int] = {}
    for _, end, n in log:
        timeline[int((end - t0) / BUCKET)] = (
            timeline.get(int((end - t0) / BUCKET), 0) + n
        )
    buckets = sorted(timeline)
    qps_timeline = [round(timeline[b] / BUCKET, 1) for b in buckets]
    kill_bucket = int((kill_time - t0) / BUCKET)
    before = [timeline[b] / BUCKET for b in buckets if b < kill_bucket]
    after = [timeline[b] / BUCKET for b in buckets if b > kill_bucket]

    return {
        "window_s": round(t_end - t0, 2),
        "kill_at_s": round(kill_time - t0, 2),
        "recovery_ms": recovery_ms,
        "qps_timeline": qps_timeline,
        "qps_before_kill": round(statistics.mean(before), 1) if before else None,
        "qps_kill_bucket": round(timeline.get(kill_bucket, 0) / BUCKET, 1),
        "qps_after_kill": round(statistics.mean(after), 1) if after else None,
        "queries": sum(n for _, _, n in log),
        "torn_reads": torn[0],
        "reader_errors": errors[0],
        "respawns": server.backend.total_respawns,
        "retries": server.backend.total_retries,
        "acked_tables": mutator.acked_tables,
        "acked_flips": mutator.acked_flips,
        "rejected_mutations": mutator.rejected,
    }


def _audit_ledger(catalog_path: Path, acked_tables: list[str]) -> list[str]:
    """Reopen the served catalog in-process; return acked tables it lost."""
    reopened = open_lake(catalog_path)
    try:
        return [
            name for name in acked_tables
            if name not in reopened.table_names
        ]
    finally:
        reopened.close()


def run(seconds: float, kill_at: float, write_files: bool) -> dict:
    lake = _lake()
    workdir = Path(tempfile.mkdtemp(prefix="bench-faults-"))
    try:
        session = open_lake(_copy_lake(lake), _config(), shards=2)
        queries = _queries(session)
        session.save(workdir / "faults.catalog")
        session.close()

        server = LakeServer(
            workdir / "faults.catalog", backend="process", **SERVER_KNOBS
        )
        try:
            print(f"kill-under-churn: {READERS} readers, {seconds:.1f}s "
                  f"window, worker 0 killed at {kill_at:.1f}s ...")
            result = _kill_under_churn(server, queries, seconds, kill_at)
            server.checkpoint()
        finally:
            server.close()
        lost = _audit_ledger(workdir / "faults.catalog", result["acked_tables"])
        result["acked_mutations"] = (
            len(result.pop("acked_tables")) + result["acked_flips"]
        )
        result["lost_mutations"] = len(lost)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = format_table(
        ["recovery (ms)", "QPS before", "QPS @kill", "QPS after",
         "torn reads", "acked muts", "lost muts", "respawns"],
        [[
            result["recovery_ms"], result["qps_before_kill"],
            result["qps_kill_bucket"], result["qps_after_kill"],
            result["torn_reads"], result["acked_mutations"],
            result["lost_mutations"], result["respawns"],
        ]],
        title=f"Worker kill under churn ({READERS} readers, "
              f"{result['window_s']:.1f}s window, 2 shards, process backend)",
    )
    report += (
        f"\n  QPS timeline ({BUCKET:.1f}s buckets): "
        + " ".join(str(q) for q in result["qps_timeline"])
    )
    report += (
        f"\n  mutations: {result['acked_mutations']} acked, "
        f"{result['rejected_mutations']} rejected mid-kill, "
        f"{result['lost_mutations']} lost after reopen"
    )
    print("\n" + report)
    if write_files:
        with RESULTS_PATH.open("a") as fh:
            fh.write(report + "\n\n")
        with JSON_PATH.open("w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")

    assert result["torn_reads"] == 0, (
        f"snapshot isolation violated across the kill: "
        f"{result['torn_reads']} torn reads"
    )
    assert result["reader_errors"] == 0, (
        f"{result['reader_errors']} reads failed instead of recovering"
    )
    assert result["respawns"] >= 1, "the killed worker was never respawned"
    assert result["recovery_ms"] is not None, "no query completed post-kill"
    assert not lost, f"acked mutations lost after reopen: {lost}"
    assert result["acked_mutations"] > 0, "the churn never acked a mutation"
    return result


def main() -> None:
    run(seconds=6.0, kill_at=2.5, write_files=True)


def smoke() -> None:
    """Short CI pass: same invariants (zero torn reads, zero lost
    mutations, recovery observed), minimal wall-clock."""
    result = run(seconds=2.5, kill_at=1.0, write_files=False)
    print(f"\nsmoke OK: recovered in {result['recovery_ms']} ms, "
          f"{result['torn_reads']} torn reads, "
          f"{result['lost_mutations']} lost mutations")


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        main()
