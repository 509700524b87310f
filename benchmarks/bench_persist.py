"""Persistent-catalog benchmark: reopen from disk vs cold refit.

The promise of the store subsystem is that a fitted lake session becomes
a durable artifact: ``session.save(path)`` writes one SQLite catalog per
shard, and ``open_lake(path)`` rebuilds the exact session — profiles,
signature slabs, index postings, embedder state — without re-profiling a
single table. This bench measures that trade on Pharma-1B and the ~10x
scaled lake (nine derived unionable tables per base table):

* **cold fit** — ``open_lake(lake, config)``: profile + embed + index.
* **save** — full catalog write of the fitted session.
* **reopen** — ``open_lake(path)``: decode slabs, rebuild derived caches.

The headline gate: reopening Pharma-1B must be at least 10x faster than
refitting it. A parity spot-check (joinable/pkfk/content_search over the
reopened session vs the live one) guards against a fast-but-wrong load;
the byte-level contract lives in tests/store/test_persistence.py.

Appends to results.txt and emits BENCH_persist.json.

Run:  PYTHONPATH=src python benchmarks/bench_persist.py
"""

from __future__ import annotations

import gc
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.session import open_lake
from repro.core.srql import Q
from repro.core.system import CMDLConfig
from repro.eval.benchmarks import build_benchmark
from repro.eval.reporting import format_table
from repro.lakes.pharma import PharmaLakeConfig, generate_pharma_lake
from repro.lakes.synthesis import derive_unionable_tables
from repro.relational.catalog import DataLake

RESULTS_PATH = Path(__file__).parent / "results.txt"
JSON_PATH = Path(__file__).parent / "BENCH_persist.json"

#: Hard floor asserted at the end: reopen vs cold refit on Pharma-1B.
MIN_LOAD_SPEEDUP = 10.0


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def _config() -> CMDLConfig:
    # The full default stack, joint model included: a cold refit pays
    # embedder + joint training and every index build — exactly the work
    # a reopen avoids. (The end-to-end benchmark disables the joint model;
    # here the refit cost is the point.)
    return CMDLConfig()


def _scaled_lake(base: DataLake, derived_per_base: int = 9) -> DataLake:
    derived, _ = derive_unionable_tables(
        base.tables, derived_per_base=derived_per_base, seed=7,
        name_prefix="scale",
    )
    lake = DataLake(name=f"{base.name}-x{derived_per_base + 1}")
    for table in base.tables:
        lake.add_table(table)
    for table in derived:
        lake.add_table(table)
    for document in base.documents:
        lake.add_document(document)
    return lake


def _workload(profile) -> list:
    queries = [Q.content_search("compound trial rate", k=5),
               Q.metadata_search("report", k=5),
               Q.cross_modal("compound formulation trial", top_n=3)]
    for table in sorted(profile.table_columns)[:8]:
        queries += [Q.joinable(table, top_n=3), Q.pkfk(table, top_n=3)]
    return queries


def _bench_lake(name: str, lake: DataLake, workdir: Path,
                shards: int = 0) -> dict:
    print(f"\n== {name}: {lake.num_tables} tables / {lake.num_columns} "
          f"columns / {lake.num_documents} documents"
          f"{f' / {shards} shards' if shards else ''} ==")
    catalog = workdir / f"{name.lower().replace(' ', '-')}.catalog"

    def fit():
        if shards:
            return open_lake(lake, _config(), shards=shards)
        return open_lake(lake, _config())

    # Best-of-2 cold fits (the second run reuses warmed allocator state,
    # matching the conditions the reopen samples run under).
    fit_s, live = _timed(fit)
    fit2_s, live2 = _timed(fit)
    if fit2_s < fit_s:
        fit_s, live = fit2_s, live2
    else:
        del live2
    gc.collect()

    save_s, _ = _timed(lambda: live.save(catalog))
    catalog_mb = live._store.catalog_bytes() / 1e6

    reopen_s = None
    reopened = None
    for _ in range(3):
        if reopened is not None:
            reopened.close()
            del reopened
            gc.collect()
        seconds, reopened = _timed(lambda: open_lake(catalog))
        reopen_s = seconds if reopen_s is None else min(reopen_s, seconds)

    workload = _workload(live.profile)
    mismatches = sum(
        reopened.discover(q).items != live.discover(q).items
        for q in workload
    )
    reopened.close()
    live.close()
    gc.collect()

    return {
        "lake": {"tables": lake.num_tables, "columns": lake.num_columns,
                 "documents": lake.num_documents},
        "shards": shards,
        "fit_ms": round(1000 * fit_s, 1),
        "save_ms": round(1000 * save_s, 1),
        "reopen_ms": round(1000 * reopen_s, 1),
        "catalog_mb": round(catalog_mb, 2),
        "speedup_load_vs_fit": round(fit_s / reopen_s, 2),
        "parity": f"{len(workload) - mismatches}/{len(workload)}",
        "_mismatches": mismatches,
    }


def smoke() -> None:
    """Correctness-only pass for CI: save, reopen, mutate, replay — no
    timing gates, no file writes.

    Run as ``python benchmarks/bench_persist.py --smoke``. Exercises the
    full store stack (catalog write, typed-blob decode, journal replay)
    on a small generated lake, monolithic and sharded, with the default
    corpus-trained embedder — the configuration the latency sweep uses.
    """
    from repro.relational.table import Table

    lake = generate_pharma_lake(PharmaLakeConfig(
        num_drugs=30, num_enzymes=15, num_documents=30, noise_documents=5,
        interactions_rows=40, targets_rows=30, chembl_compounds=30,
        chebi_compounds=18, union_derived_per_base=1, seed=0,
    )).lake

    workdir = Path(tempfile.mkdtemp(prefix="bench-persist-smoke-"))
    try:
        for shards in (0, 2):
            # Each session owns (and mutates) its own catalog of the lake.
            fresh = DataLake(name=lake.name)
            for table in lake.tables:
                fresh.add_table(table)
            for document in lake.documents:
                fresh.add_document(document)
            catalog = workdir / f"smoke-{shards}.catalog"
            live = (open_lake(fresh, _config(), shards=shards)
                    if shards else open_lake(fresh, _config()))
            live.save(catalog)
            live.close()  # unbind: one store owns a catalog at a time
            reopened = open_lake(catalog)
            workload = _workload(live.profile)
            mismatches = sum(
                reopened.discover(q).items != live.discover(q).items
                for q in workload
            )
            assert mismatches == 0, (
                f"shards={shards}: {mismatches}/{len(workload)} "
                "mismatches after reopen"
            )
            # Mutate the reopened session, drop it without checkpointing,
            # and verify the journal replays to the same state.
            reopened.add_table(Table.from_dict("smoke_extra", {
                "id": ["S1", "S2"], "label": ["alpha", "beta"],
            }))
            live.add_table(Table.from_dict("smoke_extra", {
                "id": ["S1", "S2"], "label": ["alpha", "beta"],
            }))
            reopened._store.close()
            reopened._store = None
            replayed = open_lake(catalog)
            query = Q.content_search("alpha label", k=5)
            assert replayed.discover(query).items == (
                live.discover(query).items
            ), f"shards={shards}: journal replay diverged"
            replayed.close()
            print(f"smoke OK (shards={shards}): {len(workload)} queries "
                  "identical after reopen, journal replay exact")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    # Warm the interpreter on a small lake so no measured phase pays
    # one-time import/allocator costs.
    warmup = generate_pharma_lake(PharmaLakeConfig(
        num_drugs=30, num_enzymes=15, num_documents=30, noise_documents=5,
        interactions_rows=40, targets_rows=30, chembl_compounds=30,
        chebi_compounds=18, union_derived_per_base=1, seed=0,
    )).lake
    workdir = Path(tempfile.mkdtemp(prefix="bench-persist-"))
    try:
        session = open_lake(warmup, _config())
        session.save(workdir / "warmup.catalog")
        session.close()
        open_lake(workdir / "warmup.catalog").close()

        pharma = build_benchmark("1B").lake
        results = {
            "pharma_1b": _bench_lake("Pharma-1B", pharma, workdir),
            "pharma_1b_4shards": _bench_lake("Pharma-1B sharded", pharma,
                                             workdir, shards=4),
            "pharma_10x": _bench_lake("Pharma-1B x10", _scaled_lake(pharma),
                                      workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = []
    for key, label in (("pharma_1b", "Pharma-1B"),
                       ("pharma_1b_4shards", "Pharma-1B / 4 shards"),
                       ("pharma_10x", "x10 scaled")):
        r = results[key]
        rows.append([
            label, r["fit_ms"], r["save_ms"], r["reopen_ms"],
            f"{r['catalog_mb']:.1f} MB",
            f"{r['speedup_load_vs_fit']:.1f}x",
        ])
    report = format_table(
        ["Lake", "cold fit (ms)", "save (ms)", "reopen (ms)",
         "catalog", "load vs refit"],
        rows,
        title="Persistent catalogs: reopen from disk vs cold refit",
    )
    for key, label in (("pharma_1b", "Pharma-1B"),
                       ("pharma_1b_4shards", "Pharma-1B / 4 shards"),
                       ("pharma_10x", "x10 scaled")):
        report += (f"\n  reopen parity vs live session ({label}): "
                   f"{results[key]['parity']} identical")
    print("\n" + report)
    with RESULTS_PATH.open("a") as fh:
        fh.write(report + "\n\n")

    mismatch_total = sum(r.pop("_mismatches") for r in results.values())
    with JSON_PATH.open("w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")

    assert mismatch_total == 0, "reopened session diverged from the live one"
    one_b = results["pharma_1b"]
    assert one_b["speedup_load_vs_fit"] >= MIN_LOAD_SPEEDUP, (
        f"reopening Pharma-1B must be >= {MIN_LOAD_SPEEDUP}x faster than a "
        f"cold refit, got {one_b['speedup_load_vs_fit']:.1f}x "
        f"({one_b['reopen_ms']:.0f} ms vs {one_b['fit_ms']:.0f} ms)"
    )


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        main()
