"""Smoke benchmark: the batched engine vs the scalar reference.

Driven by ``benchmarks/specs/engine_speedup.toml`` (the ``engine``
pipeline).  Runs the heaviest Figure-6 kernel (SP at the bench scale)
through both engines on identical, pre-materialized traces and asserts
three things:

1. **Bit-identity** — every paper counter (execution cycles, per-core
   cycles, invalidations, snoops, L2 misses, TLB misses, ...) matches
   exactly between engines.  This is the acceptance gate for the fast
   path; any divergence is a correctness bug, not a tolerance issue.
2. **A conservative speedup floor** — the batched engine must be at
   least ``REPRO_BENCH_SPEEDUP_FLOOR``× faster (default 2.0).  Measured
   speedups are ~7-8× (see benchmarks/README.md); the floor is set well
   below that so a noisy shared CI box doesn't flake, while still
   catching a fast-path regression to scalar-equivalent speed.
3. **Every access resolved in bulk** — the ``sim_path_accesses_total``
   registry counter must credit all of the batched engine's accesses to
   the bulk phase resolver (``bulk_share`` 1.0).  Unlike the timing
   floor this is deterministic: a phase that falls back to the scalar
   path fails it on any host.

Runs standalone (``python benchmarks/bench_engine_speedup.py``) or under
pytest with the rest of the bench suite.
"""

from __future__ import annotations

import os

from conftest import run_bench_spec, save_artifact


def _bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))


def _speedup_floor() -> float:
    return float(os.environ.get("REPRO_BENCH_SPEEDUP_FLOOR", "2.0"))


def run_speedup_smoke() -> dict:
    """Run both engines; the pipeline asserts identity + floor, this the
    bulk share."""
    run = run_bench_spec("engine_speedup", params={
        "scale": _bench_scale(), "speedup_floor": _speedup_floor(),
    })
    stats = run.results
    assert stats["bulk_share"] == 1.0, (
        f"only {stats['bulk_share']:.1%} of the batched engine's accesses "
        "were resolved in bulk")
    return stats


def test_engine_speedup_smoke(out_dir):
    stats = run_speedup_smoke()
    text = "\n".join(f"{k}: {v}" for k, v in stats.items())
    save_artifact(out_dir, "engine_speedup.txt", text)


if __name__ == "__main__":
    stats = run_speedup_smoke()
    for k, v in stats.items():
        print(f"{k}: {v}")
