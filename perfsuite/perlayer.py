"""The per-layer metrics every traced run prints.

Their names and units are the ``per_layer`` list of ``BENCHMARK.json``.
Every workload prints every name; a layer a workload never enters reads 0,
which is the benchmark's prediction that a change to that layer leaves the
workload flat.
"""

from __future__ import annotations

from typing import Dict

import common

CLASSES = ("hit", "direct_hit", "relabel", "delta", "cold")

#: Self-time layers of the serving path, in milliseconds per request.
SERVE_LAYERS = (
    "cluster.router.self",
    "cluster.ring.lookup",
    "cluster.router.forward",
    "service.app.map",
    "service.app.delta",
    "service.canonical",
    "service.batcher.wait",
    "service.worker.solve",
    "mapping.solve",
    "cluster.replica.push",
)


def complete(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric with its unit; absent layers read 0."""
    listed = [(m["name"], m["unit"]) for m in common.bench_spec()["per_layer"]]
    unknown = set(values) - {name for name, _ in listed}
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: common.metric(values.get(name, 0.0), unit) for name, unit in listed}
