"""Per-layer microprobes: every `per_layer` metric of BENCHMARK.json.

Each probe times calls into one layer's **public** functions from here —
no edits under `src/` — on the benchmark lake and on inputs sampled from
the run's seeded stream. Names are `layer.metric`; layers are this
repo's modules. README.md says which end-to-end metric on which workload
each one should move.

Timings are medians over the probe's samples (a cold build is timed
once); counts repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from lake import churn_table, copy_lake, mutation_ops, query_stream
from repro.ann.exact import ExactIndex
from repro.ann.rpforest import RPForestIndex
from repro.core.candidates import CandidateGenerator
from repro.core.indexes import IndexCatalog
from repro.core.profiler import Profiler
from repro.core.session import open_lake
from repro.core.srql import parse_srql, to_srql
from repro.core.srql.executor import Executor
from repro.core.srql.planner import Planner
from repro.embed.hashing_embedder import HashingEmbedder
from repro.search.inverted_index import InvertedIndex
from repro.serve import LakeServer
from repro.serve.cache import ResultCache
from repro.serve.rpc import decode_message, encode_message, frame_bytes
from repro.sketch.lshensemble import LSHEnsemble
from repro.sketch.minhash import MinHash
from repro.store import ShardStore, codec
from workloads import CACHE_ENTRIES, ZIPF_S, config, issue

OPERATORS = (
    "content_search", "metadata_search", "cross_modal", "joinable", "pkfk",
    "unionable",
)
#: Shard ops whose in-process cost is the worker's share of a cache miss.
HANDLE_OPS = (
    "keyword", "joinable_columns_for", "union_phase1", "union_phase2",
    "pk_entries", "pkfk_links_for",
)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def median_ms(fn, inputs) -> float:
    """Median milliseconds of `fn(*item)` over `inputs`."""
    return 1000 * statistics.median(timed(fn, *item)[0] for item in inputs)


def by_operator(stream, per_operator: int) -> dict[str, list]:
    """The first `per_operator` distinct primitive queries of each operator."""
    out: dict[str, list] = {op: [] for op in OPERATORS}
    for operator, query in stream:
        bucket = out.get(operator)
        if bucket is not None and len(bucket) < per_operator and query not in bucket:
            bucket.append(query)
    return out


# ---------------------------------------------------------------- fit side


def fit_probes(m: dict, lake, session) -> None:
    cfg = config()
    profiler = Profiler(
        embedding_dim=cfg.embedding_dim, num_hashes=cfg.num_hashes,
        pooling=cfg.pooling, embedder=cfg.embedder,
        pipeline=cfg.document_pipeline, seed=cfg.seed,
    )
    m["profiler.profile_s"], profile = timed(profiler.profile, copy_lake(lake))
    m["profiler.des"] = profile.num_des

    value_sets = [sketch.value_set for sketch in profile.columns.values()]
    m["sketch.signatures_s"], _ = timed(
        MinHash(num_hashes=cfg.num_hashes, seed=cfg.seed).signatures_batch,
        value_sets,
    )
    m["sketch.sets"] = len(value_sets)
    entries = [(cid, s.join_signature) for cid, s in profile.columns.items()]
    m["sketch.lshensemble_build_s"], _ = timed(
        LSHEnsemble(num_partitions=8, num_bands=16).build_bulk, entries
    )

    words = sorted(set().union(*(
        s.content_bow.vocabulary
        for group in (profile.documents, profile.columns)
        for s in group.values()
    )))
    m["embed.embed_words_s"], _ = timed(HashingEmbedder(seed=0).embed_words, words)
    m["embed.vocab_words"] = len(words)

    m["indexes.build_s"], catalog = timed(
        IndexCatalog, profile, ranker=cfg.ranker, seed=cfg.seed, bulk=True
    )
    for group, seconds in catalog.index_breakdown.items():
        m[f"indexes.{group}_s"] = seconds

    bags = [(cid, s.content_bow.terms) for cid, s in profile.columns.items()]
    m["search.build_bulk_s"], _ = timed(InvertedIndex().build_bulk, bags)
    m["search.postings"] = sum(len(terms) for _, terms in bags)
    vectors = [(cid, s.content_embedding) for cid, s in profile.columns.items()]
    m["ann.rpforest_build_s"], _ = timed(
        RPForestIndex(dim=len(vectors[0][1]), num_trees=8, seed=cfg.seed).build_bulk,
        vectors,
    )

    stats = session.cmdl.fit_stats  # the cold fit that built `session`
    m["fit.stage_profile_s"] = stats.profile_seconds
    m["fit.stage_sketch_s"] = stats.sketch_seconds
    m["fit.stage_embed_s"] = stats.embed_seconds
    m["fit.stage_index_s"] = stats.index_seconds


# ------------------------------------------------------------------- store


def store_probes(m: dict, checks: list, lake, seed: int, workdir: Path) -> None:
    session = open_lake(copy_lake(lake), config())
    dumps_s = loads_s = 0.0
    total_bytes = 0
    for state in session.indexes.persistent_state().values():
        arrays: list = []
        start = time.perf_counter()
        blob = codec.dumps(codec.split_arrays(state, arrays))
        slabs = [codec.encode_array(array) for array in arrays]
        dumps_s += time.perf_counter() - start
        total_bytes += len(blob) + sum(len(data) for _, _, data in slabs)
        start = time.perf_counter()
        codec.join_arrays(
            codec.loads(blob), [codec.decode_array(*slab) for slab in slabs]
        )
        loads_s += time.perf_counter() - start
    m["store.codec_dumps_s"] = dumps_s
    m["store.codec_loads_s"] = loads_s
    m["store.codec_bytes"] = total_bytes

    path = workdir / "probe-mono"
    session.save(path)
    store = session._store  # the bound LakeStore: no public accessor yet
    m["store.catalog_bytes"] = before = store.catalog_bytes()

    scratch = ShardStore(workdir / "probe-scratch.sqlite", create=True)
    payload = {"table": churn_table(lake, seed, 9000, 0)}

    def append(seq: int) -> None:
        scratch.append_journal(seq, "add_table", payload)
        scratch.commit()

    m["store.journal_append_ms"] = median_ms(append, [(i,) for i in range(1, 51)])
    scratch.close()

    # 63 journaled mutations: one short of the auto-checkpoint, so the
    # explicit checkpoint below folds a full journal tail.
    mutations = [op for op in mutation_ops(lake, seed, 32) if op.query is None]
    apply_mutations(session, mutations[:63])
    checks.append((store.pending_journal() == 63, "63 journal entries pending"))
    m["store.checkpoint_s"], _ = timed(store.checkpoint)
    m["store.checkpoint_bytes"] = store.catalog_bytes() - before
    session.close()

    clean_s, session = timed(open_lake, path)
    apply_mutations(session, mutations[63:95])
    generation = session.generation
    session.close()  # 32 ops stay in the journal
    replay_s, session = timed(open_lake, path)
    checks.append((session.generation == generation, "journal replay restores generation"))
    session.close()
    m["store.journal_replay_s"] = replay_s - clean_s


def apply_mutations(front, mutations) -> None:
    for op in mutations:
        issue(front, op)


# -------------------------------------------------------------- query core


def query_probes(m: dict, session, stream, zipf_stream) -> None:
    engine, profile, indexes = session.engine, session.profile, session.indexes
    cfg = session.cmdl.config
    sample = stream[:200]

    texts = [to_srql(query) for _, query in sample]
    m["srql.parse_ms"] = median_ms(parse_srql, [(text,) for text in texts])
    planner = Planner(
        profile, default_strategy=cfg.discovery_strategy,
        operator_strategies=cfg.operator_strategies,
    )
    executor = Executor(engine, planner=planner)
    asts = [query.ast for _, query in sample]
    m["srql.plan_ms"] = median_ms(planner.plan, [(ast,) for ast in asts])
    plans = [planner.plan(ast) for ast in asts]
    m["srql.execute_ms"] = median_ms(executor.execute, [(plan,) for plan in plans])
    engine.discover_batch([query for _, query in zipf_stream[:100]])
    stats = engine.last_batch_stats
    m["srql.batch_dedup_ratio"] = stats.executed / stats.requested

    calls = {
        "content_search": lambda q: engine.content_search(q.value, mode=q.mode, k=q.k),
        "metadata_search": lambda q: engine.metadata_search(q.value, mode=q.mode, k=q.k),
        "cross_modal": lambda q: engine.cross_modal_search(
            q.value, top_n=q.top_n, representation=q.representation),
        "joinable": lambda q: engine.joinable(q.table, top_n=q.top_n),
        "pkfk": lambda q: engine.pkfk(q.table, top_n=q.top_n),
        "unionable": lambda q: engine.unionable(q.table, top_n=q.top_n),
    }
    for operator, queries in by_operator(stream, 20).items():
        m[f"discovery.{operator}_ms"] = median_ms(
            calls[operator], [(query.ast,) for query in queries]
        )

    tables = [q.ast.table for op, q in stream if op == "joinable"][:40]
    columns = [profile.columns_of_table(table)[0] for table in tables]
    generator = CandidateGenerator(profile, indexes)
    sizes = []
    m["candidates.join_probe_ms"] = median_ms(
        lambda c: sizes.append(len(generator.join_candidates(c, k=10))),
        [(c,) for c in columns],
    )
    m["candidates.join_set_size"] = statistics.fmean(sizes)
    m["candidates.join_pruning_ratio"] = statistics.fmean(sizes) / len(profile.columns)
    sizes = []
    m["candidates.union_probe_ms"] = median_ms(
        lambda c: sizes.append(len(generator.union_candidates(c, k=10))),
        [(c,) for c in columns],
    )
    m["candidates.union_pruning_ratio"] = statistics.fmean(sizes) / len(profile.columns)
    m["candidates.pkfk_batch_ms"] = 1000 * timed(
        generator.pkfk_candidates_batch, columns, k=10
    )[0]

    for strategy in ("indexed", "exact"):
        scorer = engine.scorer("joinable", strategy)
        m[f"joinability.{strategy}_ms"] = median_ms(
            lambda c: scorer.joinable_columns(c, k=10), [(c,) for c in columns]
        )

    union = engine.scorer("unionable")
    hits_s, align_s = [], []
    for table in tables[:12]:
        sketches = [profile.columns[c] for c in profile.columns_of_table(table)]
        pair_cache: dict = {}
        seconds, (hits, caps) = timed(
            union.candidate_hits_for, sketches, pair_cache=pair_cache
        )
        hits_s.append(seconds)
        evidence: dict[str, float] = {}
        for scored in hits.values():
            for column, score in scored:
                if score > 0:
                    other = profile.columns[column].table_name
                    evidence[other] = max(evidence.get(other, 0.0), score)
        align_s.append(timed(
            union.alignment_scores_for, sketches, evidence, 3,
            row_caps=caps, pair_cache=pair_cache,
        )[0])
    m["unionability.candidate_hits_ms"] = 1000 * statistics.median(hits_s)
    m["unionability.alignment_ms"] = 1000 * statistics.median(align_s)

    sweeps = []
    for _ in range(3):
        engine.invalidate("pkfk")
        seconds, links = timed(engine.pkfk_links)
        sweeps.append(seconds)
    m["pkfk.sweep_ms"] = 1000 * statistics.median(sweeps)
    m["pkfk.links"] = len(links)

    terms = [q.ast.value.split() for op, q in sample if op == "content_search"]
    m["search.search_ms"] = median_ms(
        lambda t: indexes.doc_content.search(t, k=10), [(t,) for t in terms]
    )

    forest = indexes.column_semantic
    exact = ExactIndex(forest.dim)
    for column, sketch in profile.columns.items():
        exact.add(column, sketch.content_embedding)
    exact.build()
    vectors = [profile.columns[c].content_embedding for c in columns]
    found = []
    m["ann.rpforest_query_ms"] = median_ms(
        lambda v: found.append(forest.query(v, k=10)), [(v,) for v in vectors]
    )
    m["ann.rpforest_recall"] = statistics.fmean(
        len({k for k, _ in got} & {k for k, _ in exact.query(v, k=10)}) / 10
        for got, v in zip(found, vectors)
    )

    signatures = [profile.columns[c].join_signature for c in columns]
    sizes = []
    m["sketch.lshensemble_query_ms"] = median_ms(
        lambda s: sizes.append(len(indexes.value_containment.candidate_keys(s))),
        [(s,) for s in signatures],
    )
    m["sketch.lshensemble_candidates"] = statistics.fmean(sizes)


# --------------------------------------------------------- sharding + serve


def serve_probes(m: dict, checks: list, lake, mono, stream, zipf_stream,
                 seed: int, workdir: Path) -> None:
    sharded = open_lake(copy_lake(lake), config(), shards=2, global_stats=True)
    sample = [query for _, query in stream[:200]]
    for query in sample:  # lazy structures and the first sweeps, untimed
        sharded.discover(query)
        mono.discover(query)
    sharded_s = [timed(sharded.discover, query)[0] for query in sample]
    mono_s = [timed(mono.discover, query)[0] for query in sample]
    m["sharding.discover_ms"] = 1000 * statistics.median(sharded_s)
    m["sharding.overhead_ratio"] = sum(sharded_s) / sum(mono_s)
    path = workdir / "probe-sharded"
    sharded.save(path)
    sharded.close()

    m["store.reopen_shards2_s"], reopened = timed(open_lake, path)
    reopened.close()

    # ---- process backend: what a `serve_read_10x` miss and hit cost
    m["worker.boot_s"], server = timed(
        LakeServer, path, backend="process", cache=True, cache_entries=CACHE_ENTRIES
    )
    try:
        for operator, queries in by_operator(stream, 12).items():
            miss = [timed(server.discover, query)[0] for query in queries]
            hit = [timed(server.discover, query)[0] for query in queries]
            m[f"serve.miss_ms.{operator}"] = 1000 * statistics.median(miss)
            m[f"serve.hit_ms.{operator}"] = 1000 * statistics.median(hit)

        server.cache.clear()
        cache, puts = server.cache, [0]
        hits0, misses0, inner_put = cache.hits, cache.misses, cache.put

        def counting_put(shard, key, value):
            puts[0] += 1
            inner_put(shard, key, value)

        cache.put = counting_put
        trips, straggler = [], []
        for _, query in zipf_stream:
            server.discover(query)
            stats = server.last_stats
            trips.append(sum(stats.shard_round_trips.values()))
            if len(stats.shard_seconds) > 1:
                seconds = stats.shard_seconds.values()
                straggler.append(max(seconds) / sum(seconds))
        del cache.put
        lookups = cache.hits - hits0 + cache.misses - misses0
        m["serve.cache_hit_rate"] = (cache.hits - hits0) / lookups
        # Single client: every put follows a miss, so it adds a new entry.
        m["serve.cache_evictions"] = puts[0] - len(cache)
        m["serve.round_trips_per_query"] = statistics.fmean(trips)
        m["serve.straggler_share"] = statistics.fmean(straggler)
        m["rpc.round_trip_us"] = 1000 * median_ms(
            lambda: server.backend.round_trip(0, [("generation", {})]),
            [()] * 200,
        )
    finally:
        server.close()

    scratch_cache = ResultCache(CACHE_ENTRIES)
    keys = [(("keyword", f"term-{i}", "text", 10), (1, 1)) for i in range(2000)]
    m["serve.cache_put_us"] = 1000 * median_ms(
        lambda k: scratch_cache.put(0, k, [("x", 1.0)]), [(k,) for k in keys]
    )
    m["serve.cache_get_us"] = 1000 * median_ms(
        lambda k: scratch_cache.get(0, k), [(k,) for k in keys]
    )

    # ---- thread backend: the worker's share of a miss, in-process, and
    # what a mutation does to the next PK-FK read (`serve_churn_10x`)
    server = LakeServer(path, backend="thread", cache=True, cache_entries=CACHE_ENTRIES)
    try:
        handled: dict[str, list] = {op: [] for op in HANDLE_OPS}
        for host in server.backend.hosts:
            inner = host.handle

            def recording(op, payload, inner=inner):
                seconds, result = timed(inner, op, payload)
                if op in handled:
                    handled[op].append((seconds, payload, result))
                return result

            host.handle = recording
        for queries in by_operator(stream, 12).values():
            for query in queries:
                server.discover(query)
        for host in server.backend.hosts:
            del host.handle
        encode_us, decode_us, frame_sizes = [], [], []
        for op in HANDLE_OPS:
            calls = handled[op]
            checks.append((bool(calls), f"shard op {op} observed"))
            m[f"ops.handle_ms.{op}"] = 1000 * statistics.median(
                seconds for seconds, _, _ in calls
            )
            for _, payload, result in calls[:8]:
                for message in (("batch", {"ops": [(op, payload)]}), [result]):
                    seconds, parts = timed(encode_message, message)
                    encode_us.append(1e6 * seconds)
                    decode_us.append(1e6 * timed(decode_message, parts)[0])
                    frame_sizes.append(len(frame_bytes(message)))
        m["rpc.encode_us"] = statistics.fmean(encode_us)
        m["rpc.decode_us"] = statistics.fmean(decode_us)
        m["rpc.frame_bytes"] = statistics.fmean(frame_sizes)

        pkfk = by_operator(stream, 4)["pkfk"]
        server.discover(pkfk[0])
        after = []
        for i, query in enumerate(pkfk[1:4]):
            server.add_table(churn_table(lake, seed, 9100 + i, 0))
            after.append(timed(server.discover, query)[0])
        m["serve.post_mutation_pkfk_ms"] = 1000 * statistics.median(after)
    finally:
        server.close()


# -------------------------------------------------------------- delta path


def delta_probes(m: dict, lake, seed: int, workdir: Path) -> None:
    mutations = [op for op in mutation_ops(lake, seed, 20) if op.query is None]

    def per_kind(front) -> dict[str, float]:
        samples: dict[str, list[float]] = {}
        for op in mutations:
            seconds, _ = timed(apply_mutations, front, [op])
            samples.setdefault(op.kind, []).append(1000 * seconds)
        return {kind: statistics.median(ms) for kind, ms in samples.items()}

    session = open_lake(copy_lake(lake), config())  # unbound: no journal
    unbound = per_kind(session)
    m["session.add_table_ms"] = unbound["add_table"]
    m["session.update_table_ms"] = unbound["update_table"]
    m["session.remove_ms"] = unbound["remove"]
    path = workdir / "probe-delta"
    session.save(path)
    session.close()
    server = LakeServer(path, backend="thread", cache=True)
    try:
        served = per_kind(server)
    finally:
        server.close()
    m["server.mutation_overhead_ms"] = served["add_table"] - unbound["add_table"]


def run_probes(inputs, seed: int, workdir: Path) -> tuple[dict, list]:
    """Every per-layer metric, plus the probes' own sanity checks."""
    m: dict[str, float] = {}
    checks: list[tuple[bool, str]] = []
    lake, vocab = inputs.lake, inputs.vocab
    stream = query_stream(vocab, seed, 1200)
    zipf_stream = query_stream(vocab, seed, 800, ZIPF_S)
    mono = open_lake(copy_lake(lake), config())
    fit_probes(m, lake, mono)
    store_probes(m, checks, lake, seed, workdir)
    query_probes(m, mono, stream, zipf_stream)
    serve_probes(m, checks, lake, mono, stream, zipf_stream, seed, workdir)
    delta_probes(m, lake, seed, workdir)
    return m, checks

