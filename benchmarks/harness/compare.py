"""Compare two sets of runs of the end-to-end benchmark.

    python3 benchmarks/harness/compare.py A/results.jsonl B/results.jsonl

Each file is what ``run.py --out-dir`` appends to: one JSON line per run.
For every (metric, workload) pair present on both sides this prints A's
and B's medians, the ratio B/A with its base, the regression bound from
``BENCHMARK.json``, and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  a side's own run-to-run spread (quartile distance over
                median) is wider than the bound, so nothing can be said.

Per-layer metrics have no bound and are listed for attribution only.
Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> tuple[dict, dict[tuple[str, str], list[float]]]:
    """``(env of the first run, {(workload, metric): values})``."""
    values: dict[tuple[str, str], list[float]] = {}
    env = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            run = json.loads(line)
            env = env or run["env"]
            for workload, result in run["workloads"].items():
                for metric, cell in result["metrics"].items():
                    values.setdefault((workload, metric), []).append(cell["value"])
    if env is None:
        raise SystemExit(f"{path}: no runs")
    return env, values


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (env_a, a), (env_b, b) = load(argv[0]), load(argv[1])
    for key in ("quick", "seconds", "trace"):
        if env_a[key] != env_b[key]:
            raise SystemExit(f"not comparable: {key} is {env_a[key]} vs {env_b[key]}")
    print(f"A: {argv[0]} ({env_a['git_sha'][:12]})   B: {argv[1]} ({env_b['git_sha'][:12]})")
    print(
        f"{'workload':<18} {'metric':<38} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'bound':>6} {'runs':>5}  verdict"
    )
    worse = 0
    for workload, metric in sorted(a.keys() & b.keys()):
        runs_a, runs_b = a[workload, metric], b[workload, metric]
        med_a, med_b = statistics.median(runs_a), statistics.median(runs_b)
        if med_a == med_b == 0:  # a layer this workload bypasses
            continue
        ratio = med_b / med_a if med_a else float("nan")
        bound = metrics[metric].get("bound")
        if bound is None:
            verdict = "-"
        elif max(spread(runs_a), spread(runs_b)) > bound:
            verdict = "unresolved"
        else:
            lost = med_b - med_a if metrics[metric]["better"] == "lower" else med_a - med_b
            verdict = "worse" if med_a and lost / abs(med_a) > bound else "ok"
        worse += verdict == "worse"
        print(
            f"{workload:<18} {metric:<38} {med_a:>12.6g} {med_b:>12.6g} "
            f"{ratio:>7.3f} {'' if bound is None else bound:>6} "
            f"{len(runs_a):>2}/{len(runs_b):<2}  {verdict}"
        )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
