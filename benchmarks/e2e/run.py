"""End-to-end benchmark entry point.

    python3 benchmarks/e2e/run.py --workload <name|all> --seed <n>
        [--seconds <s>] [--trace <0|1>] [--smoke] [--check-counts]

Generates the inputs from the seed, runs the workload, checks the
answers, prints every metric by name with its unit, and ends with one
JSON line `{"correct", "attempted", "failed", "metrics"}` holding every
`end_to_end` metric of BENCHMARK.json (`--trace 0`) or every `per_layer`
metric (`--trace 1`). The full report — host fingerprint, op counts,
informational figures, failures — goes to `.bench_e2e/` in the checkout
(and, traced, `trace.json` beside it). Exits non-zero when any
correctness, canary, parity or durability check failed.

See README.md in this directory for the workloads, the metrics and how
they are expected to interact.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = ROOT / ".bench_e2e"
#: Count metrics: bit-equal between two runs of one commit and seed.
COUNT_METRICS = (
    "oracle_overlap", "catalog_bytes_per_lake_byte", "serve.cache_hit_rate",
    "serve.cache_evictions", "candidates.join_set_size",
    "serve.round_trips_per_query", "pkfk.links", "store.catalog_bytes",
)


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            # Look no further up than the checkout itself.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cores_used": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


def import_program() -> float:
    """Import the program (and the benchmark modules on top of it);
    returns the seconds it took — part of every workload's `setup_s`."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmark: no program to measure under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    start = time.perf_counter()
    import workloads  # noqa: F401  (pulls in repro, numpy, the lake generator)

    return time.perf_counter() - start


def shaped(values: dict, declared: list[dict], where: str) -> dict:
    """`values` as `{name: {"value", "unit"}}` for exactly the declared
    metrics; a missing or non-finite one is a benchmark bug."""
    out = {}
    for metric in declared:
        value = values.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"benchmark: {where} metric {metric['name']} = {value!r}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def run_once(args, contract: dict, scale: int = 10, probed=None) -> dict:
    """One workload, one mode; prints the report and returns it."""
    import_s = import_program()
    import workloads

    if args.trace:
        import tracing

        report = tracing.run_traced(
            args.workload, args.seed, args.seconds, scale, OUT, probed
        )
        declared = contract["per_layer"]
    else:
        report = workloads.run_workload(
            args.workload, args.seed, args.seconds, scale, OUT, import_s
        )
        declared = contract["end_to_end"]
    report["metrics"] = shaped(report["metrics"], declared, args.workload)
    report["fingerprint"] = fingerprint()
    report["trace"] = int(args.trace)

    for name, metric in report["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in report.get("info", {}).items():
        print(f"  ({name}: {value})")
    print(
        f"ops attempted {report['attempted']}  succeeded "
        f"{report['succeeded']}  failed {report['failed']}"
    )
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    out_path = OUT / f"{args.workload}-seed{args.seed}{suffix}.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    return report


def final_line(report: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def child(args, workload: str, trace: int, extra: list[str] = ()) -> dict:
    """Run one workload in a fresh interpreter (clean peak RSS, clean
    caches) and return its final JSON line."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), *extra,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.exit(f"benchmark: {workload} (trace {trace}) exited {done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def check_counts(args) -> None:
    """Two runs of one seed must agree bit for bit on every count metric."""
    differing = []
    for trace in (0, 1):
        first = child(args, args.workload, trace)["metrics"]
        second = child(args, args.workload, trace)["metrics"]
        for name in COUNT_METRICS:
            if name in first and first[name]["value"] != second[name]["value"]:
                differing.append(
                    f"{name}: {first[name]['value']!r} != {second[name]['value']!r}"
                )
    if differing:
        sys.exit("benchmark: count metrics differ between runs:\n" + "\n".join(differing))
    print(f"check-counts: {args.workload} seed {args.seed}: all count metrics equal")


def smoke(args, contract: dict) -> None:
    """Every workload, both modes, at ~1/20 op count on the 1x lake: every
    declared metric must come out finite and with its unit, so a change
    that breaks a public call the benchmark wraps fails fast."""
    args.seconds = contract["run_seconds"] / 20
    probed: dict = {}  # the microprobes are workload-independent: run once
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in (0, 1):
            args.workload, args.trace = workload, trace
            print(f"== smoke: {workload} trace={trace}")
            report = run_once(args, contract, scale=1, probed=probed)
            if report["failed"]:
                sys.exit(f"benchmark: smoke {workload}: {report['failed']} failed checks")
    print("smoke: every declared metric emitted")


def confine_to_one_core() -> None:
    """Run the program — worker processes and BLAS threads included, they
    inherit it — on the first core this process may use.

    The host is a 2-core slice of a shared machine and does not give both
    cores reliably. Whatever needs two at once (the scatter to two workers,
    the 2-shard fit's two threads handing the interpreter lock from core
    to core) then measures the neighbours: in ten interleaved pairs of
    `serve_read_10x` runs the spreads on two cores were twice those on one
    (`queries_per_s` 23 % against 12 %, `query_p95_ms` 34 % against 12 %,
    `fit_s` 30 % against 6 %) at the same median throughput (384 against
    373 queries/s). Done before numpy is imported, so BLAS sizes its pool
    to one thread."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> None:
    confine_to_one_core()
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-counts", action="store_true")
    args = parser.parse_args()

    if args.smoke:
        smoke(args, contract)
    elif args.check_counts:
        if args.workload == "all":
            parser.error("--check-counts needs one --workload")
        check_counts(args)
    elif args.workload == "all":
        for name in names:
            print(f"== {name}")
            child(args, name, args.trace)
    else:
        report = run_once(args, contract)
        print(final_line(report))
        if report["failed"]:
            sys.exit(1)


if __name__ == "__main__":
    main()
