"""The end-to-end benchmark's one command.

    python3 benchmarks/harness/run.py --seed 11             # all five workloads, chained
    python3 benchmarks/harness/run.py --seed 11 --trace 1   # plus the per-layer metrics
    python3 benchmarks/harness/run.py --workload query_cold --seed 3 --seconds 8 --trace 0

Names, units, directions and bounds of every metric live in the root
``BENCHMARK.json``; this file only measures and prints them.  The parent
process does the set-up (corpus and input synthesis, and the index build
unless ``build_external`` is among the selected workloads and therefore
runs first and leaves its directory for the rest), then hands each
workload to a fresh child process, so ``peak_rss_mb`` and every cache are
that workload's own.  The last line of standard output is one JSON
object: the benchmark contract's result when a single workload ran, and
``{"workloads": {name: result}}`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

#: Set-up is repeated and its median reported, so that one slow build
#: does not read as a set-up regression.
SETUP_REPEATS = 3
QUICK_SECONDS = 2
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="work per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small rung; never comparable")
    parser.add_argument("--out-dir", type=Path, help="append results.jsonl, write trace-*.jsonl")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(args, seconds: float) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    cpu_count = os.cpu_count() or 1
    return {
        "cpu_count": cpu_count,
        "undersized_host": cpu_count < 2,  # serve_closed runs 2 client threads
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
        "seed": args.seed,
        "seconds": seconds,
        "quick": args.quick,
        "trace": args.trace,
        "claim": None,
    }


# ----------------------------------------------------------------------
# Child: one workload, one process
# ----------------------------------------------------------------------
def child_main(args) -> int:
    import workloads
    from trace import Tracer

    workload = workloads.WORKLOADS[args.child]
    scale = workloads.QUICK if args.quick else workloads.FULL
    corpus, texts, inputs = workloads.make_inputs(
        args.child, args.seed, args.seconds, scale
    )
    own_dir = args.work_dir / args.child
    own_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.seconds, own_dir, args.work_dir / "index")
    outcome = workload.run(ctx, corpus, texts, inputs)
    outcome.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    # Too noisy on a shared host to carry a bound: reported with the layers.
    tail_ms = outcome.metrics.pop("latency_tail_ms")
    record = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "end_to_end": outcome.metrics,
    }
    if args.trace:
        # The same inputs again with spans on; the end-to-end numbers
        # above stay those of the untraced pass.
        ctx.tracer = Tracer()
        traced = workload.run(ctx, corpus, texts, inputs)
        traced.layers["latency_tail_ms"] = tail_ms  # of the untraced pass
        traced.layers["tracing_overhead_share"] = (
            outcome.metrics["throughput_per_s"] / traced.metrics["throughput_per_s"] - 1.0
        )
        record["attempted"] += traced.attempted
        record["failed"] += traced.failed
        record["problems"] += traced.problems
        record["per_layer"] = traced.layers
        if args.out_dir is not None:
            ctx.tracer.write_jsonl(args.out_dir / f"trace-{args.child}.jsonl")
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# Parent: set-up, one child per workload, report
# ----------------------------------------------------------------------
def set_up(name: str, args, seconds: float, scale, index_dir: Path, build: bool) -> float:
    """Corpus + input synthesis (+ the index build); median wall seconds."""
    import workloads

    walls = []
    # A traced run reports no setup_s, so it sets up once.
    for _ in range(1 if args.trace else SETUP_REPEATS):
        begin = time.perf_counter()
        corpus, _, _ = workloads.make_inputs(name, args.seed, seconds, scale)
        if build:
            shutil.rmtree(index_dir, ignore_errors=True)
            workloads.build_index(corpus, index_dir)
        walls.append(time.perf_counter() - begin)
    return statistics.median(walls)


def run_child(name: str, args, seconds: float, work_dir: Path) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--child", name,
        "--seed", str(args.seed), "--seconds", repr(seconds),
        "--trace", str(args.trace), "--work-dir", str(work_dir),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    if args.out_dir is not None:
        command += ["--out-dir", str(args.out_dir)]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"workload {name} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def contract_result(record: dict, spec: dict, trace: int) -> dict:
    """The benchmark contract's object: every metric of the asked kind."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        measured = record["per_layer"]
        unknown = set(measured) - {m["name"] for m in spec["per_layer"]}
        # A layer the workload does not exercise reads 0: that is the
        # "bypass" half of every exercise/bypass prediction.
        values = {m["name"]: measured.get(m["name"], 0) for m in spec["per_layer"]}
    else:
        values = record["end_to_end"]
        unknown = set(values) ^ {m["name"] for m in spec["end_to_end"]}
    if unknown:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: {sorted(unknown)}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: the program under test (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.child:
        return child_main(args)

    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    if set(names) - set(known):
        raise SystemExit(f"unknown workload; choose from {known}")
    chained = "build_external" in names
    names = sorted(set(names), key=known.index)  # build_external first
    scale = workloads.QUICK if args.quick else workloads.FULL
    seconds = args.seconds or (QUICK_SECONDS if args.quick else spec["run_seconds"])
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    results = {}
    try:
        for name in names:
            build = workloads.WORKLOADS[name].needs_index and not chained
            setup_s = set_up(name, args, seconds, scale, work_dir / "index", build)
            record = run_child(name, args, seconds, work_dir)
            record["end_to_end"]["setup_s"] = setup_s
            for problem in record["problems"]:
                print(f"{name}: FAILED {problem}", file=sys.stderr)
            results[name] = contract_result(record, spec, args.trace)
            if args.trace:  # a traced run still shows what the user would see
                results[name]["untraced"] = record["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, result in results.items():
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, cell in result["metrics"].items():
            print(f"  {metric:<42} {cell['value']:>16.6g} {cell['unit']}")
    if args.out_dir is not None:
        with open(args.out_dir / "results.jsonl", "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"env": environment(args, seconds), "workloads": results}) + "\n"
            )
    if len(results) == 1:
        (result,) = results.values()
        result.pop("untraced", None)
        print(json.dumps(result))
    else:
        print(json.dumps({"workloads": results}))
    return 0


# ----------------------------------------------------------------------
# --self-test
# ----------------------------------------------------------------------
def self_test() -> int:
    """Span arithmetic, and a traced search equals an untraced one."""
    import numpy as np

    import workloads
    from repro.core.search import NearDuplicateSearcher
    from repro.index.builder import build_memory_index
    from trace import Span, TimedReader, Tracer, self_times, tree_self_sums

    def span(span_id, parent, start, end):
        made = Span(span_id, f"s{span_id}", parent, None)
        made.start, made.end = start, end
        return made

    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and a
    # grandchild [1, 2]: the children cover [1, 6] of the root.
    spans = [span(0, None, 0, 10), span(1, 0, 1, 4), span(2, 0, 3, 6), span(3, 1, 1, 2)]
    selfs = self_times(spans)
    assert selfs == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}, selfs

    tracer = Tracer()
    with tracer.span("outer", request_id=7) as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.id and inner.request_id == 7
    assert outer.start <= inner.start <= inner.end <= outer.end
    sums = tree_self_sums(tracer.spans, self_times(tracer.spans))
    assert abs(sums[outer.id] - outer.seconds) < 1e-9

    tiny = workloads.Scale("tiny", num_texts=60, tokens=12_000)
    corpus, texts, _ = workloads.make_inputs("build_external", 1, 1.0, tiny)
    index = build_memory_index(corpus, workloads.family(), workloads.T)
    plain = NearDuplicateSearcher(index)
    timed = NearDuplicateSearcher(TimedReader(index, tracer))
    queries = workloads.query_mix(texts, np.random.default_rng(1), 30)
    tracer.spans.clear()
    for position, query in enumerate(queries):
        with tracer.span("query", request_id=position):
            traced = timed.search(query.tokens, workloads.THETA)
        expected = plain.search(query.tokens, workloads.THETA)
        assert workloads._wire(traced) == workloads._wire(expected)
    names = {recorded.name for recorded in tracer.spans}
    assert {"query", "core.hashing.sketch", "index.storage.load_list"} <= names, names
    sums = tree_self_sums(tracer.spans, self_times(tracer.spans))
    for recorded in tracer.spans:
        if recorded.name == "query":
            assert abs(sums[recorded.id] - recorded.seconds) < 1e-9
    print("self-test ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
