"""Self-tests that show the benchmark's checks and gates can fail.

    python3 perfsuite/selftest.py corrupt [--seconds S]
    python3 perfsuite/selftest.py gate [--seconds S] [--runs N]

``corrupt`` runs ``sim-private`` with one simulated counter corrupted and
``serve-routed`` with one served answer corrupted (both from outside the
program, see ``sim.install_injections`` and ``servehooks``).  Each run must
print ``"correct": false`` and exit non-zero.

``gate`` injects two slowdowns from outside the program and checks that
exactly the predicted metrics move by more than their bound:

* a spin inside ``MemoryHierarchy.access_batch`` must flag the host-time
  metrics of both sim workloads and nothing on ``serve-routed``;
* the program's own ``slow`` fault at ``cluster.router.forward`` (through
  ``repro route --fault-plan``) must flag the routed latencies and the
  ladder's rate on ``serve-routed``, never the direct-to-shard hit and
  never a sim metric.

Each side is the median of ``--runs`` runs on the same seeds.  The exit
code is 0 only when every prediction held.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Dict, List, Optional, Set

from common import bench_spec, run_workload
SPIN = "spin-access-batch:2000"
SLOW = "slow-forward:0.010"
#: Serve-class p50s read from the detail lines, gated like hot_p50_ms.
CLASS_METRICS = {"direct_hit_ms": "direct_hit_p50_ms", "relabel_ms": "relabel_p50_ms",
                 "delta_ms": "delta_p50_ms"}
HOST_TIME = {"throughput_per_s", "hot_p50_ms", "cold_p50_ms"}
PREDICTED = {
    SPIN: {"sim-shared": HOST_TIME, "sim-private": HOST_TIME, "serve-routed": set()},
    SLOW: {"sim-shared": set(), "sim-private": set(),
           "serve-routed": HOST_TIME | {"relabel_p50_ms", "delta_p50_ms"}},
}


def values_of(result: dict, lines: List[str]) -> Dict[str, float]:
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        label, _, doc = line.partition(": ")
        if label in CLASS_METRICS:
            values[CLASS_METRICS[label]] = json.loads(doc)["p50"]
    return values


def corrupt(seconds: float) -> int:
    ok = True
    for workload, fault in (("sim-private", "sim-counter"), ("serve-routed", "serve-answer")):
        code, result, lines = run_workload(workload, 1, seconds, {"PERFSUITE_CORRUPT": fault})
        held = code != 0 and result is not None and result["correct"] is False
        failures = [l for l in lines if l.startswith("check_failures")]
        print(f"{workload} with {fault}: exit {code}, correct="
              f"{None if result is None else result['correct']} -> {'PASS' if held else 'FAIL'}")
        for line in failures:
            print(f"  {line[:300]}")
        ok &= held
    return 0 if ok else 1


def gate(seconds: float, runs: int) -> int:
    bench = bench_spec()
    spec = {m["name"]: m for m in bench["end_to_end"]}
    for derived in CLASS_METRICS.values():
        spec[derived] = spec["hot_p50_ms"]
    seeds = list(range(1, runs + 1))

    def medians(workload: str, inject: Optional[str]) -> Dict[str, float]:
        samples: Dict[str, List[float]] = {}
        for seed in seeds:
            env = {"PERFSUITE_INJECT": inject} if inject else {}
            code, result, lines = run_workload(workload, seed, seconds, env)
            if code != 0 or result is None:
                raise RuntimeError(f"{workload} {inject} seed {seed} failed:\n" + "\n".join(lines[-5:]))
            for name, value in values_of(result, lines).items():
                samples.setdefault(name, []).append(value)
        return {name: statistics.median(v) for name, v in samples.items()}

    ok = True
    base = {w: medians(w, None) for w in PREDICTED[SPIN]}
    for inject, expected in PREDICTED.items():
        for workload, predicted in expected.items():
            after = medians(workload, inject)
            flagged: Set[str] = set()
            for name, before in base[workload].items():
                if name not in spec:
                    continue
                change = (after[name] - before) / before
                worse = change if spec[name]["better"] == "lower" else -change
                mark = ""
                if worse > spec[name]["bound"]:
                    flagged.add(name)
                    mark = "flagged"
                print(f"{inject:22s} {workload:13s} {name:18s} {before:12.6g} -> "
                      f"{after[name]:12.6g} ({change:+7.1%}) bound {spec[name]['bound']:.2f} {mark}")
            held = flagged == predicted
            ok &= held
            print(f"{inject} on {workload}: flagged {sorted(flagged)}, predicted "
                  f"{sorted(predicted)} -> {'PASS' if held else 'FAIL'}\n", flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("test", choices=("corrupt", "gate"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    seconds = args.seconds or bench_spec()["run_seconds"]
    if args.test == "corrupt":
        return corrupt(seconds)
    return gate(seconds, args.runs)


if __name__ == "__main__":
    raise SystemExit(main())
