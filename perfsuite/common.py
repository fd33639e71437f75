"""Helpers shared by the benchmark's workloads: paths, statistics, host
identity and the result line.

Percentiles are nearest-rank over the raw samples and are always printed
with their sample count.  Every workload ends by printing one JSON object
(``result_line``) as the last line of standard output.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT = REPO / ".perfsuite_out"


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfsuite: no program source under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def bench_spec() -> dict:
    """``BENCHMARK.json``: the workloads and every metric's name, unit,
    direction and bound."""
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def out_dir(name: str) -> Path:
    """A scratch directory inside the checkout (listed in .gitignore)."""
    path = OUT / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: ``ceil(q*n) - 1``, clamped."""
    if not values:
        raise ValueError("quantile of an empty series")
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail_quantile(n: int) -> Optional[float]:
    """The highest of p50/p90/p99/p99.9 with at least 10 samples beyond it."""
    best = None
    for q in (0.5, 0.9, 0.99, 0.999):
        if n - math.ceil(q * n) >= 10:
            best = q
    return best


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """p50, p90, p99 and the supported tail, each with its sample count."""
    n = len(values)
    doc: Dict[str, object] = {"n": n}
    if not n:
        return doc
    for q, name in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
        doc[name] = quantile(values, q)
    tail = tail_quantile(n)
    if tail is not None:
        doc["tail"] = {"q": tail, "value": quantile(values, tail),
                       "beyond": n - math.ceil(tail * n)}
    return doc


def host_stamp(seed: int) -> Dict[str, object]:
    """CPU count and model, Python and numpy versions, and the seed."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpus": os.cpu_count() or 1,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
    }


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid``, from ``/proc`` parent links."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def detail(label: str, doc: object) -> None:
    """One human-readable detail line (never the last line of output)."""
    print(f"{label}: {json.dumps(doc, sort_keys=True)}", flush=True)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, object]]) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True), flush=True)


def check(condition: bool, message: str, errors: List[str]) -> None:
    """Record an output-check failure (checks never raise mid-run)."""
    if not condition:
        errors.append(message)


def env_flag(name: str) -> str:
    """Value of a ``PERFSUITE_*`` injection variable ('' when unset)."""
    return os.environ.get(name, "").strip()


def run_workload(workload: str, seed: int, seconds: float,
                 env_extra: Optional[Dict[str, str]] = None
                 ) -> Tuple[int, Optional[dict], List[str]]:
    """One untraced run in a fresh process, from the checkout's root:
    (exit code, the result line's object or None, every output line)."""
    env = dict(os.environ)
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(REPO), env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, lines
