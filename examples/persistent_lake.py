"""Persistent catalogs: fit once, save, kill the process, reopen, query.

A fitted session is expensive (profiling, embedding, index builds) but its
state is just data — so ``session.save(path)`` writes it to a durable
on-disk catalog (one SQLite file per shard, WAL-mode), and
``repro.open_lake(path)`` rebuilds the *exact* session later without
re-profiling a single table:

    session = open_lake(lake)                   # fit once
    session.save("pharma.catalog")              # durable catalog
    ...process exits...
    session = open_lake("pharma.catalog")       # reopen: no refit

Mutations on a bound session append to a write-ahead journal *before*
they run, so even a crash (or a close without save) loses nothing — the
next open replays the journal through the same mutators and lands on the
exact generation. ``save()`` on a bound session is an incremental
checkpoint: dirty tracking rewrites only the rows and index sections the
mutations actually touched. ``repro.store.footprint(path)`` reports the
catalog's bytes per component (lake rows, sketches, each index section).

Run:  python examples/persistent_lake.py
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from repro import CMDL, CMDLConfig, Q, Table, generate_pharma_lake, open_lake
from repro.store import footprint


def timed(label: str, fn):
    start = time.perf_counter()
    out = fn()
    print(f"  {label}: {1000 * (time.perf_counter() - start):.0f} ms")
    return out


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="persistent-lake-"))
    catalog = workdir / "pharma.catalog"
    try:
        print("Generating the Pharma lake ...")
        lake = generate_pharma_lake().lake

        # ---- fit once, save, drop the session --------------------------
        print("\nFit, save, close:")
        session = timed("cold fit (profile + embed + index)",
                        lambda: open_lake(lake, CMDLConfig(use_joint=False)))
        timed("save (full catalog write)", lambda: session.save(catalog))
        print(f"  catalog: {sorted(p.name for p in catalog.iterdir())}")
        # Where the bytes are: index sections hold keys, norms and tree
        # structure only — their signatures and vectors are references to
        # the sketches stored once beside them.
        sizes = footprint(catalog)
        print(f"  footprint: {sum(sizes.values()):,} bytes; largest components:")
        for component, size in sorted(sizes.items(), key=lambda kv: -kv[1])[:8]:
            print(f"    {component:<30} {size:>10,}")
        baseline = session.discover(Q.joinable("drugs", top_n=3))
        session.close()
        del session  # nothing of the fit survives in memory

        # ---- reopen: no refit ------------------------------------------
        print("\nReopen from disk:")
        session = timed("open_lake(catalog)", lambda: open_lake(catalog))
        reopened = session.discover(Q.joinable("drugs", top_n=3))
        assert reopened.items == baseline.items
        print(f"  joinable('drugs') identical to the saved session: "
              f"{[item for item, _ in reopened]}")

        # ---- mutate, crash, replay -------------------------------------
        print("\nMutate, then close WITHOUT saving (simulated crash):")
        session.add_table(Table.from_dict("trial_sites", {
            "site_id": ["S1", "S2", "S3"],
            "city": ["london", "berlin", "madrid"],
        }))
        print(f"  journaled ops pending: {session._store.pending_journal()}")
        session._store.close()  # no checkpoint — the journal has the op
        session._store = None

        session = timed("reopen (replays the journal)",
                        lambda: open_lake(catalog))
        assert "trial_sites" in session.lake.table_names
        print(f"  'trial_sites' survived: generation {session.generation}, "
              f"{session._store.pending_journal()} ops pending")

        # ---- incremental checkpoint ------------------------------------
        print("\nCheckpoint (dirty-tracked delta write):")
        timed("save (only touched rows/sections)", lambda: session.save())
        print(f"  journal drained: {session._store.pending_journal()} pending")
        session.close()

        # CMDL.load is the same reopen, classmethod-style; sharded
        # sessions (open_lake(lake, shards=N)) save and reopen through the
        # identical surface — one shard-NNNN.sqlite file per shard.
        session = CMDL.load(catalog)
        assert "trial_sites" in session.lake.table_names
        session.close()
        print("\nCMDL.load(catalog) works too — same catalog, same state.")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
