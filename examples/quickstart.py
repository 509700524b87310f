"""Quickstart: the Figure-1 discovery pipeline on the Pharma lake, in SRQL.

Builds the synthetic Pharma data lake (DrugBank/ChEMBL/ChEBI tables +
PubMed-style abstracts), fits the full CMDL stack (profiling, indexing,
weak-supervised labeling, joint representation training), and walks the
five-question discovery chain from the paper's motivation example — each
question a declarative ``Q`` query handed to ``engine.discover``:

    Q1  keyword search for documents about an enzyme;
    Q2  cross-modal search: tables related to a returned document;
    Q3  cross-modal search from another document;
    Q4  PK-FK joinable tables for a discovered table;
    Q5  unionable tables for a joinable table.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import CMDL, CMDLConfig, Q, generate_pharma_lake


def show(title: str, drs) -> None:
    print(f"\n{title}  [{drs.operation}]")
    for rank, (item, score) in enumerate(drs, start=1):
        print(f"  {rank}. {item}  (score {score:.3f})")


def main() -> None:
    print("Generating the Pharma lake ...")
    generated = generate_pharma_lake()
    lake = generated.lake
    print(f"  {lake!r}")

    print("\nFitting CMDL (profile -> index -> weak labels -> joint model) ...")
    cmdl = CMDL(CMDLConfig(sample_fraction=0.3, max_epochs=80))
    engine = cmdl.fit(lake)
    report = cmdl.labeling_report
    training = cmdl.training_result
    print(f"  labeled pairs: {report.candidate_pairs} "
          f"({report.positive_pairs} with positive votes)")
    print(f"  joint model: {training.epochs} epochs, "
          f"{training.seconds:.1f}s, error {training.error_percent:.1f}%")
    # Every fit records a wall-clock breakdown of its batched stages
    # (bag building / sketching / embedding / index build / training),
    # plus a per-structure split of the index stage and a per-kernel
    # split of the embed stage, so a slow fit is attributable to one
    # structure or kernel sub-stage.
    print(f"  fit stages: {cmdl.fit_stats.summary()}")
    breakdown = cmdl.fit_stats.index_breakdown
    print("  index stage by structure: "
          + " ".join(f"{k}={v * 1000:.0f}ms"
                     for k, v in sorted(breakdown.items(), key=lambda kv: -kv[1])))
    embed = cmdl.fit_stats.embed_breakdown
    print("  embed stage by kernel: "
          + " ".join(f"{k}={v * 1000:.0f}ms" for k, v in embed.items()))

    # Each discovery step is a declarative query; engine.discover plans it
    # (validation + indexed/exact strategy choice) and executes it.
    r1 = engine.discover(Q.content_search("thymidylate synthase", k=3))
    show("Q1: documents about 'thymidylate synthase'", r1)

    r2 = engine.discover(Q.cross_modal(r1[1], top_n=3))
    show(f"Q2: tables related to document {r1[1]}", r2)

    r3 = engine.discover(Q.cross_modal(r1[min(2, len(r1))], top_n=3))
    show(f"Q3: tables related to document {r1[min(2, len(r1))]}", r3)

    r4 = engine.discover(Q.pkfk(r3[1], top_n=2))
    show(f"Q4: tables PK-FK-joinable with '{r3[1]}'", r4)

    union_source = r4[1] if len(r4) else r3[1]
    r5 = engine.discover(Q.unionable(union_source, top_n=2))
    show(f"Q5: tables unionable with '{union_source}'", r5)

    # The whole Q1 -> Q2 -> Q4 chain is also ONE pipelined query: each hop
    # feeds the previous stage's top hit into the next operator. The same
    # query in the paper's string syntax parses to an identical AST.
    chain = (Q.content_search("thymidylate synthase", k=3)
               .cross_modal(top_n=3)
               .pkfk(top_n=2))
    show("Q1->Q2->Q4 as one pipelined SRQL query", engine.discover(chain))
    print("\nThe same query as an SRQL string:")
    print("  SELECT * FROM lake WHERE content_search('thymidylate synthase',"
          " k=3)\n      THEN crossModal_search(top_n=3) THEN pkfk(top_n=2)")

    # Migration note — the pre-SRQL imperative calls still work and return
    # identical results; discover() is the blessed entrypoint:
    #   engine.content_search("thymidylate synthase", mode="text", k=3)
    #   engine.cross_modal_search(doc_id, top_n=3)
    #   engine.pkfk(table, top_n=2); engine.unionable(table, top_n=2)

    # Living lakes — when tables/documents churn, don't refit: open a
    # mutable session instead (see examples/incremental_lake.py):
    #   session = repro.open_lake(lake)
    #   session.add_table(new_table); session.discover(...)  # no refit

    # Big lakes — partition into independently-fitted shards behind the
    # same surface (see examples/sharded_lake.py): mutations route to the
    # owning shard, queries scatter-gather into one global top-k, and
    # shared corpus statistics keep every score byte-equal to one big fit:
    #   session = repro.open_lake(lake, shards=4)
    #   session.discover(Q.joinable("drugs", top_n=2))

    # Durable lakes — fit once, save, reopen later without refitting
    # (see examples/persistent_lake.py): save() writes one SQLite catalog
    # per shard; open_lake(path) rebuilds the exact session, and mutations
    # journal to disk so even an unsaved close replays on reopen:
    #   session = repro.open_lake(lake)
    #   session.save("pharma.catalog")
    #   ... later, another process ...
    #   session = repro.open_lake("pharma.catalog")   # no refit

    # Served lakes — concurrent readers + a live writer behind one server
    # (see examples/serving_lake.py): queries pin a generation snapshot
    # (zero torn reads), per-shard partials cache until a mutation bumps
    # the owning shard, and backend="process" runs one worker process per
    # shard over a saved catalog:
    #   server = session.serve()                    # thread backend
    #   server = session.serve(backend="process")   # after session.save()
    #   server.discover(Q.joinable("drugs", top_n=2)); server.close()
    # The process backend is fault tolerant: a crashed or hung worker is
    # respawned inside the next read that needs it (catalog reopen +
    # journal replay, back to the exact pre-crash state), with timeouts,
    # retries, and backoff knobs on the constructor; degraded="partial"
    # returns partial top-k (stats.degraded_shards says what's missing)
    # instead of raising ShardUnavailable when a shard stays down.

    gt = generated.ground_truth("doc_to_table")
    relevant = gt.relevant(r1[1])
    if relevant:
        # The lake also contains projection-derived tables (dbsyn_*); a hit
        # on a derivative of a true table counts for its base.
        def canonical(table: str) -> str:
            if table.startswith("dbsyn_"):
                return table.removeprefix("dbsyn_").rsplit("_", 1)[0]
            return table

        hits = {canonical(t) for t in r2.ids()} & relevant
        print(f"\nGround truth check for Q2: {len(hits)}/{len(r2)} returned "
              f"tables are true links ({sorted(hits)})")


if __name__ == "__main__":
    main()
