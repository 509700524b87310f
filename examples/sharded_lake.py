"""Sharded lake sessions: partitioned fit, routed mutations, scatter-gather.

One monolithic fit bounds the lake a single process can serve: profiling,
index memory, and query latency all grow with the whole lake.
``repro.open_lake(lake, shards=N)`` partitions the lake into N shards that
are fitted independently (concurrently, on multi-core hosts) and served
behind the same session surface:

    session = open_lake(lake, shards=4)         # N partitioned fits
    session.discover(Q.joinable("drugs"))       # scatter-gather merge, cached
    session.add_table(table)                    # routed to ONE shard
    session.rebalance({"drugs": 2})             # move entries between shards
    session.shards[0].refresh()                 # each shard on its own clock

Shards share corpus-wide BM25/df statistics, which makes keyword scores —
and therefore every top-k — byte-equal to a monolithic fit (the price:
document churn that shifts the corpus-wide df filter re-syncs drifted
sibling documents).

Run:  python examples/sharded_lake.py
"""

from __future__ import annotations

import time

from repro import CMDLConfig, Q, Table, generate_pharma_lake, open_lake


def show(title: str, drs) -> None:
    print(f"\n{title}")
    for rank, (item, score) in enumerate(drs, start=1):
        print(f"  {rank}. {item}  (score {score:.3f})")


def main() -> None:
    print("Generating the Pharma lake ...")
    lake = generate_pharma_lake().lake
    print(f"  {lake!r}")

    print("\nOpening a 4-shard session (global corpus statistics) ...")
    start = time.perf_counter()
    session = open_lake(lake, CMDLConfig(use_joint=False), shards=4)
    print(f"  fitted {session.num_shards} shards in "
          f"{time.perf_counter() - start:.1f}s")
    for i, shard in enumerate(session.shards):
        print(f"  shard {i}: {shard.lake.num_tables} tables, "
              f"{shard.lake.num_documents} documents")

    # 1. Queries scatter across shards and merge into one global top-k.
    show("Tables joinable with 'drugs' (scatter-gather)",
         session.discover(Q.joinable("drugs", top_n=3)))
    show("Keyword search (BM25 over merged corpus statistics)",
         session.discover(Q.content_search("enzyme inhibitor", k=3)))

    stats = session.last_batch_stats
    print(f"\n  per-shard generations: {stats.shard_generations}")
    print("  per-shard seconds:",
          {i: f"{s * 1000:.1f}ms" for i, s in stats.shard_seconds.items()})

    # The session runs the executor a LakeServer runs, result cache
    # included: at an unchanged generation vector a repeated query is
    # answered from cached per-shard partials, without visiting a shard.
    for attempt in ("first", "repeated"):
        session.discover(Q.unionable("drugs", top_n=3))
        stats = session.last_batch_stats
        print(f"  {attempt} unionable('drugs'): "
              f"cache_hits={stats.cache_hits} "
              f"cache_misses={stats.cache_misses} "
              f"shard_round_trips={stats.shard_round_trips}")

    # 2. A mutation routes to exactly one shard; siblings never re-index.
    trials = Table.from_dict("clinical_trials", {
        "trial_id": [f"CT{i:04d}" for i in range(30)],
        "drug_name": [lake.table("drugs").column("name").values[i % 15]
                      for i in range(30)],
    })
    owner = session.shard_of("clinical_trials")
    before = session.generations
    session.add_table(trials)
    print(f"\nAdded 'clinical_trials' -> shard {owner} "
          f"(generations {before} -> {session.generations})")
    show("Joinable with 'clinical_trials' (sees the new table)",
         session.discover(Q.joinable("clinical_trials", top_n=3)))

    # 3. Rebalance: pin the hot table onto a different shard.
    target = (owner + 1) % session.num_shards
    moved = session.rebalance({"clinical_trials": target})
    print(f"\nRebalanced {moved} entry -> shard {target}; "
          f"results are unchanged:")
    show("Joinable with 'clinical_trials' (after rebalance)",
         session.discover(Q.joinable("clinical_trials", top_n=3)))

    # 4. Embedding drift is tracked lake-wide; each shard refreshes itself
    #    once its own drift crosses the (optional) auto-refresh threshold.
    print(f"\nEmbedding drift after churn: {session.drift():.3f} "
          "(OOV rate of post-fit DEs vs the fit vocabulary)")
    session.close()


if __name__ == "__main__":
    main()
