"""Spread report: one workload over a range of seeds.

    python3 perfsuite/spread.py --workload sim-shared --seeds 1-10
        [--seconds 20] [--save runs.json] [--against runs.json]

For every metric it prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile distance as
a share of the median, and the metric's bound from ``BENCHMARK.json``.  A
spread at or over a third of the bound is marked ``!``.  ``--save`` writes
the raw results; ``--against`` compares this set's medians with a saved
set's and marks a metric ``WORSE`` when its median moved the bad way by
more than the bound.  Runs go one at a time, each a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List

from common import bench_spec, run_workload


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict:
    code, result, lines = run_workload(workload, seed, seconds)
    if code != 0 or result is None:
        tail = "\n".join(lines[-20:])
        raise RuntimeError(f"seed {seed} exited {code}:\n{tail}")
    result["detail"] = lines[:-1]
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    bench = bench_spec()
    seconds = args.seconds or bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        doc = run_once(args.workload, seed, seconds)
        results.append({"seed": seed, **doc})
        print(f"seed {seed}: correct={doc['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(doc["metrics"].items())),
              flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1))
    base = None
    if args.against:
        base = {}
        for doc in json.loads(Path(args.against).read_text()):
            for name, m in doc["metrics"].items():
                base.setdefault(name, []).append(m["value"])
    print(f"\n{args.workload}: {len(results)} runs, seeds {args.seeds}, {seconds:g} s each")
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    worst = 0
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        if len(values) < 2:
            continue
        s = spread(values)
        bound = spec[name]["bound"]
        mark = " !" if s["iqr_share"] >= bound / 3 else ""
        line = (f"{name:44s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                f"{s['iqr_share']:8.3f} {bound:>6}{mark}")
        if base is not None and name in base:
            before = statistics.median(base[name])
            change = (s["median"] - before) / abs(before) if before else 0.0
            worse = change if spec[name]["better"] == "lower" else -change
            line += f"  vs {before:.6g} ({change:+.1%})"
            if worse > bound:
                line += " WORSE"
                worst += 1
        print(line)
    return 1 if worst else 0


if __name__ == "__main__":
    raise SystemExit(main())
