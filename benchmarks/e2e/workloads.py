"""The four workloads: one user path, four traffic mixes.

Every workload walks the same path a user of the system walks — cold fit,
save, reopen (or boot a server on the saved catalog), queries, table
churn — and reports the same end-to-end metrics; what differs is which
front-end answers and where the measured seconds are spent:

* ``lifecycle_10x``  — measured section is more fit/save/reopen cycles,
  each queried cold: the fit kernels, sketches, index builds and the
  store do ~all the work.
* ``query_mono_10x`` — one reopened monolithic `LakeSession`, uniform
  queries: plan → candidates → scorers, no scatter, RPC or cache.
* ``serve_read_10x`` — `LakeServer` over a 2-shard catalog, process
  backend, zipf queries at a mid cache-hit rate: every serve layer.
* ``serve_churn_10x`` — `LakeServer`, thread backend, every 7th op a
  journaled mutation: invalidation, delta path, journal, checkpoint.

One closed-loop client issues a fixed, seeded op list, so counts repeat
exactly. The measured section runs as `BLOCKS` equal blocks of ops spread
over the run, and every timing that repeats — a block, a fit, a save, a
reopen — is reported from its fastest repetition: the same work on the same
input seconds apart differs only by what else the host was doing (it slows
down by up to 2x for tens of seconds at a time), and the minimum is the
estimate least disturbed by that.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from lake import (
    CHURN_PERIOD,
    DRAW_WARMUP,
    MIX,
    MIX_CHURN,
    MIX_SERVE_READ,
    Op,
    audit_queries,
    build_lake,
    canary_visible,
    churn_ops,
    copy_lake,
    mutation_ops,
    query_stream,
    user_bytes,
    vocabulary,
)
from repro.core.discovery import DiscoveryResultSet
from repro.core.session import open_lake
from repro.core.system import CMDLConfig
from repro.embed.hashing_embedder import HashingEmbedder
from repro.serve import LakeServer

#: Blocks of the measured section. Between two blocks the run brings up
#: one more front-end beside the measured one (on `lifecycle_10x` every
#: block is a cycle that brings up its own), so the blocks and the timed
#: fit → save → reopen repetitions — the samples behind `fit_s`, `save_s`,
#: `reopen_s` (their fastest) and `setup_s` (their median) — alternate
#: through the run. The very first bring-up of a process may set a minimum
#: but stays out of `setup_s`: it pays one-off costs (lazy imports,
#: thread-pool start: +40 % on the sharded fit) that no later sample
#: repeats, so it serves as the warm-up and as the live session the parity
#: reference is taken from.
BLOCKS = 3
#: Size of the fixed audited sample (oracle overlap, parity, durability).
AUDIT_QUERIES = 40
#: add → update → remove cycles of the mutation section: 150 mutations,
#: so the auto-checkpoint (every 64 journaled ops) fires twice inside.
#: `serve_churn_10x` interleaves its own 90 instead.
MUTATION_CYCLES = 50
ZIPF_S = 1.1
#: Result-cache capacity of the served workloads. The 4096-entry default
#: needs ~4000 queries before it evicts; a quarter of it puts the measured
#: section under real LRU pressure within the run's time budget.
CACHE_ENTRIES = 1024
#: An op slower than this counts as failed.
OP_TIMEOUT_S = 30.0
#: `oracle_overlap` below this counts as a failed check (seed commit:
#: 0.86-0.9 on a pristine front-end; 0.82-0.9, by seed, on a monolithic
#: session once 150 mutations have re-planted its approximate indexes).
OVERLAP_FLOOR = 0.7


@dataclass(frozen=True)
class Spec:
    """What distinguishes a workload. `ops_per_second` sizes the measured
    section so it lasts about `--seconds` on the seed commit (for
    `lifecycle_10x`: the queries its cycles ask, not the cycles)."""

    front: str  # "session" | "process" | "thread"
    shards: int | None
    ops_per_second: float
    warmup_ops: int
    mix: tuple[str, ...] = MIX
    zipf_s: float | None = None
    cycles: bool = False
    churn: bool = False


WORKLOADS = {
    "lifecycle_10x": Spec("session", None, 84.0, 0, cycles=True),
    "query_mono_10x": Spec("session", None, 300.0, 200),
    "serve_read_10x": Spec(
        "process", 2, 360.0, 400, mix=MIX_SERVE_READ, zipf_s=ZIPF_S
    ),
    "serve_churn_10x": Spec(
        "thread", 2, 101.0, 250, mix=MIX_CHURN, zipf_s=ZIPF_S, churn=True
    ),
}


def config(strategy: str = "auto") -> CMDLConfig:
    """The documented parity configuration: no joint model, the
    corpus-independent hashing embedder."""
    return CMDLConfig(
        use_joint=False, embedder=HashingEmbedder(seed=0),
        discovery_strategy=strategy,
    )


# ---------------------------------------------------------------- recording


@dataclass
class Block:
    """One `run_ops` call: its wall time and its reads' latencies (canary
    reads are checked, not sampled)."""

    wall_s: float = 0.0
    query_ms: list[float] = field(default_factory=list)


@dataclass
class Recorder:
    """Samples and the succeeded/failed tally of one run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    blocks: list[Block] = field(default_factory=list)
    query_ms: dict[str, list[float]] = field(default_factory=dict)
    mutation_ms: dict[str, list[float]] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)
        return ok

    def all_query_ms(self) -> list[float]:
        return [ms for block in self.blocks for ms in block.query_ms]

    def all_mutation_ms(self) -> list[float]:
        return [ms for samples in self.mutation_ms.values() for ms in samples]


def well_formed(result) -> bool:
    return isinstance(result, DiscoveryResultSet) and all(
        isinstance(item_id, str) and isinstance(score, (int, float))
        and math.isfinite(score)
        for item_id, score in result.items
    )


def issue(front, op: Op):
    """Send one op to a front-end; returns what the front-end returned."""
    if op.query is not None:
        return front.discover(op.query)
    if op.kind == "remove":
        return front.remove(op.name)
    return getattr(front, op.kind)(op.table)


def run_ops(front, ops: list[Op], rec: Recorder) -> float:
    """Issue `ops` one after another (closed loop, one client) as one
    block; returns its wall seconds."""
    block = Block()
    rec.blocks.append(block)
    start = time.perf_counter()
    for op in ops:
        began = time.perf_counter()
        try:
            result = issue(front, op)
        except Exception:
            rec.check(False, f"{op.kind} raised: {traceback.format_exc(limit=3)}")
            continue
        elapsed = time.perf_counter() - began
        ok = elapsed <= OP_TIMEOUT_S
        if op.query is None:
            rec.mutation_ms.setdefault(op.kind, []).append(1000 * elapsed)
        elif not well_formed(result):
            ok = False
        elif op.kind == "canary":
            ok = ok and canary_visible(result, op.index) == op.expect_visible
        else:
            block.query_ms.append(1000 * elapsed)
            rec.query_ms.setdefault(op.operator, []).append(1000 * elapsed)
        rec.check(ok, f"{op.kind} {op.operator or op.index}: bad result or timeout")
    block.wall_s = time.perf_counter() - start
    return block.wall_s


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------- front-ends


def open_front(spec: Spec, path: Path):
    """A queryable handle on a saved catalog, as the workload serves it."""
    if spec.front == "session":
        return open_lake(path)
    return LakeServer(
        path, backend=spec.front, cache=True, cache_entries=CACHE_ENTRIES
    )


def generations(front) -> dict[int, int]:
    if isinstance(front, LakeServer):
        return dict(front.generations)
    return {0: front.generation}


def answers(front, queries) -> list[list[tuple[str, float]]]:
    return [list(front.discover(query).items) for _, query in queries]


def bring_up(spec: Spec, lake, path: Path, reference_queries=None):
    """Cold fit → save → close → reopen as the workload's front-end.

    Returns the front-end, the three timings plus the catalog size, and —
    when asked — the live session's answers before it was saved (the
    parity reference; computed outside every timed interval).

    Whatever is alive when a bring-up starts is the benchmark's — the lake,
    the oracle, on all but the first the front-end being measured — and is
    frozen out of the garbage collector for the duration: a fit or a reopen
    allocates enough to trigger full collections, and each one would walk
    that heap (measured: reopen 0.40 s beside a live session, 0.28 s with
    it frozen or in a fresh process; 2-shard fit 0.83 s against 0.75 s)."""
    fresh = copy_lake(lake)
    fit_kwargs = (
        {"shards": spec.shards, "global_stats": True} if spec.shards else {}
    )
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    session = open_lake(fresh, config(), **fit_kwargs)
    t1 = time.perf_counter()
    reference = (
        None if reference_queries is None else answers(session, reference_queries)
    )
    t2 = time.perf_counter()
    session.save(path)
    t3 = time.perf_counter()
    catalog_bytes = session._store.catalog_bytes()
    session.close()
    t4 = time.perf_counter()
    front = open_front(spec, path)
    t5 = time.perf_counter()
    gc.unfreeze()
    timing = {
        "fit_s": t1 - t0, "save_s": t3 - t2, "reopen_s": t5 - t4,
        "catalog_bytes": catalog_bytes,
    }
    return front, timing, reference


def overlap(found, expected) -> float:
    """|top-k ∩ oracle top-k| ÷ k for one query."""
    if not expected:
        return 1.0 if not found else 0.0
    ids = {item_id for item_id, _ in found}
    return sum(1 for item_id, _ in expected if item_id in ids) / len(expected)


# ------------------------------------------------------------------ the run


@dataclass
class Inputs:
    """Everything generated from the seeds before the program runs."""

    lake: object
    vocab: object
    lake_bytes: int
    audit: list
    oracle: list
    gen_s: float


def make_inputs(scale: int) -> Inputs:
    start = time.perf_counter()
    lake = build_lake(scale)
    vocab = vocabulary(lake)
    audit = audit_queries(vocab, AUDIT_QUERIES)
    # The oracle: brute-force strategy on a cold monolithic fit.
    exact = open_lake(copy_lake(lake), config("exact"))
    oracle = answers(exact, audit)
    del exact
    gc.collect()
    return Inputs(
        lake, vocab, user_bytes(lake), audit, oracle,
        time.perf_counter() - start,
    )


def measured_ops(
    spec: Spec, inputs: Inputs, seed: int, seconds: float
) -> list[list[Op]]:
    """The measured section's ops, as `BLOCKS` equal blocks. A block is
    whole repeats of the operator mix or, on the churn stream, whole
    add/update/remove cycles, and is a stratified stream of its own, so
    every block carries the same op counts and about the same work."""
    granule = 3 * CHURN_PERIOD if spec.churn else len(spec.mix)
    per_block = spec.ops_per_second * seconds / BLOCKS
    size = granule * max(1, round(per_block / granule))

    def block(number: int) -> list[Op]:
        if spec.churn:  # one PK-FK burst per block, after its last mutation
            return churn_ops(
                inputs.lake, inputs.vocab, seed, size, spec.zipf_s, number
            )
        return [
            Op("read", operator=operator, query=query)
            for operator, query in query_stream(
                inputs.vocab, seed, size, spec.zipf_s, spec.mix, draw=number
            )
        ]

    if spec.cycles:  # every cycle asks its cold session the same queries
        return [block(0)] * BLOCKS
    return [block(number) for number in range(BLOCKS)]


def run_workload(
    name: str, seed: int, seconds: float, scale: int, work_root: Path,
    import_s: float,
) -> dict:
    """One untraced run: every end-to-end metric plus informational ones."""
    spec = WORKLOADS[name]
    inputs = make_inputs(scale)
    lake, vocab, audited = inputs.lake, inputs.vocab, inputs.audit
    blocks = measured_ops(spec, inputs, seed, seconds)
    rec = Recorder()
    workdir = work_root / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    front = None
    bring_ups: list[dict] = []  # every timed fit -> save -> reopen

    def fresh_front(tag: str, reference_queries=None):
        nonlocal front
        if front is not None:
            front.close()
            front = None
        front, timing, reference = bring_up(
            spec, lake, workdir / tag, reference_queries
        )
        bring_ups.append(timing)
        return workdir / tag, reference

    def bring_up_beside(tag: str):
        other, timing, _ = bring_up(spec, lake, workdir / tag)
        other.close()
        bring_ups.append(timing)

    try:
        # ---- set-up: the program's whole path to a queryable front-end
        _, reference = fresh_front("warm-up", audited)
        path, _ = fresh_front("setup")
        warmup = query_stream(
            vocab, seed, spec.warmup_ops, spec.zipf_s, spec.mix, DRAW_WARMUP
        )
        began = time.perf_counter()
        for _, query in warmup:
            front.discover(query)
        warmup_s = time.perf_counter() - began

        # ---- audit the pristine front-end: parity with the live fit it
        # was saved from, overlap with the brute-force oracle
        pristine = answers(front, audited)
        for got, want in zip(pristine, reference):
            rec.check(got == want, "front-end != live session it was saved from")
        oracle_overlap = statistics.fmean(
            overlap(got, want) for got, want in zip(pristine, inputs.oracle)
        )
        rec.check(
            oracle_overlap >= OVERLAP_FLOOR,
            f"oracle_overlap {oracle_overlap:.3f} < {OVERLAP_FLOOR}",
        )

        # ---- measured section
        gc.collect()
        for cycle, ops in enumerate(blocks):
            if spec.cycles:
                path, _ = fresh_front(f"cycle-{cycle}")
            elif cycle:
                bring_up_beside(f"beside-{cycle}")
            run_ops(front, ops, rec)
            if spec.cycles:
                for got, want in zip(answers(front, audited), reference):
                    rec.check(got == want, "reopened session != live session")
        cache = getattr(front, "cache", None)  # served front-ends only
        cache_hit_rate = (
            None if cache is None else cache.hits / (cache.hits + cache.misses)
        )

        # ---- mutation section (the churn workload carries its own inline)
        mutation_wall_s = 0.0
        if not spec.churn:
            mutation_wall_s = run_ops(
                front, mutation_ops(lake, seed, MUTATION_CYCLES), rec
            )

        # ---- after churn: quality is re-audited, durability is checked
        final = answers(front, audited)
        overlap_after = statistics.fmean(
            overlap(got, want) for got, want in zip(final, inputs.oracle)
        )
        rec.check(
            overlap_after >= OVERLAP_FLOOR,
            f"oracle overlap after churn {overlap_after:.3f} < {OVERLAP_FLOOR}",
        )
        pinned = generations(front)
        front.close()  # no checkpoint: the journal tail must carry it
        front = open_front(spec, path)
        rec.check(generations(front) == pinned, "generation vector lost on reopen")
        for got, want in zip(answers(front, audited), final):
            rec.check(got == want, "answer changed across close/reopen")
    finally:
        if front is not None:
            front.close()
        shutil.rmtree(workdir, ignore_errors=True)

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec.front == "process":
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    queries = rec.all_query_ms()
    mutations = rec.all_mutation_ms()
    read_blocks = [b for b in rec.blocks if b.query_ms]  # not the mutation section
    block_qps = [len(b.query_ms) / b.wall_s for b in read_blocks]
    metrics = {
        # bring_ups[0] is the process's warm-up: it may set a minimum,
        # but its one-off costs stay out of the median
        "setup_s": import_s + warmup_s + statistics.median(
            t["fit_s"] + t["save_s"] + t["reopen_s"] for t in bring_ups[1:]
        ),
        "fit_s": min(t["fit_s"] for t in bring_ups),
        "save_s": min(t["save_s"] for t in bring_ups),
        "reopen_s": min(t["reopen_s"] for t in bring_ups),
        "catalog_bytes_per_lake_byte":
            bring_ups[-1]["catalog_bytes"] / inputs.lake_bytes,
        # the fastest block's, each: see the module docstring
        "queries_per_s": max(block_qps),
        "query_p50_ms": min(statistics.median(b.query_ms) for b in read_blocks),
        "query_p95_ms": min(percentile(b.query_ms, 0.95) for b in read_blocks),
        "mutation_p50_ms": statistics.median(mutations),
        "mutation_mean_ms": statistics.fmean(mutations),
        "oracle_overlap": oracle_overlap,
        "peak_rss_mb": usage / 1024,
    }
    info = {
        "gen_s": inputs.gen_s,
        "oracle_overlap_after_churn": overlap_after,
        "import_s": import_s,
        "warmup_s": warmup_s,
        "measured_s": sum(b.wall_s for b in read_blocks),
        "mutation_section_s": mutation_wall_s,
        "query_p99_ms": percentile(queries, 0.99),
        "query_samples": len(queries),
        "queries_per_s_by_block": block_qps,
        "mutation_samples": len(mutations),
        "query_p50_ms_by_operator": {
            op: statistics.median(ms) for op, ms in sorted(rec.query_ms.items())
        },
        "mutation_p50_ms_by_kind": {
            kind: statistics.median(ms)
            for kind, ms in sorted(rec.mutation_ms.items())
        },
        "bring_ups": len(bring_ups),
        "catalog_bytes": bring_ups[-1]["catalog_bytes"],
        "lake_bytes": inputs.lake_bytes,
    }
    if cache_hit_rate is not None:
        info["cache_hit_rate"] = cache_hit_rate
    return {
        "workload": name, "seed": seed, "seconds": seconds, "scale": scale,
        "ops": sum(len(ops) for ops in blocks), "attempted": rec.attempted, "failed": rec.failed,
        "succeeded": rec.attempted - rec.failed, "failures": rec.failures,
        "metrics": metrics, "info": info,
    }
