"""Timing and fault hooks installed into the router, shard and pool-worker
processes of ``repro route`` from outside the program.

``inject/sitecustomize.py`` imports this module at interpreter start when
``PERFSUITE_TRACE_DIR`` or ``PERFSUITE_CORRUPT`` is set; the load generator
puts ``inject/`` on ``PYTHONPATH`` for the traced and self-test clusters
only.  Every process writes its per-call records to
``$PERFSUITE_TRACE_DIR/<pid>.json``: the router and shards when they exit,
forked pool workers after every call (they leave through ``os._exit``).
"""

from __future__ import annotations

import atexit
import json
import os
from typing import Any, Callable, List, Optional

from layers import LayerTimer

#: The 1-based shard ``/map`` answer the serve corruption self-test alters.
CORRUPT_ANSWER = 300

_timer: Optional[LayerTimer] = None
_solve_timed: Optional[Callable] = None
_owner_pid = 0


def timed_solve_batch(items: List[Any]) -> Any:
    """Picklable stand-in for ``worker.solve_batch`` (sent to pool workers)."""
    return _solve_timed(items)


def _solve_items(args: tuple) -> int:
    items = args[0]
    return sum(1 for item in items if not str(item[0]).startswith("__"))


def _dump() -> None:
    out = os.environ.get("PERFSUITE_TRACE_DIR")
    if not out or _timer is None:
        return
    doc = {"pid": os.getpid(), "records": _timer.records}
    tmp = os.path.join(out, f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, os.path.join(out, f"{os.getpid()}.json"))


def _after_fork() -> None:
    # A forked pool worker starts with its parent's records, and inside
    # the parent's timed call that forked it; keep only its own records,
    # start outside any call, and write them after each call since it
    # never runs atexit.
    _timer.records = []
    _timer.reset_current()
    _timer.after_call = _dump


def _install_trace() -> None:
    global _timer, _solve_timed, _owner_pid
    import repro.cluster.router as router_mod
    import repro.service.app as app_mod
    import repro.service.worker as worker_mod
    from repro.cluster.router import ClusterRouter
    from repro.service.app import MappingService
    from repro.service.batcher import MicroBatcher
    from repro.service.client import AsyncMappingClient

    _timer = timer = LayerTimer(keep_records=True)
    _owner_pid = os.getpid()
    timer.patch(ClusterRouter, "handle_map", "cluster.router.self")
    timer.patch(ClusterRouter, "handle_delta", "cluster.router.self")
    timer.patch(ClusterRouter, "_map_route_info", "cluster.ring.lookup")
    timer.patch(ClusterRouter, "_delta_route_key", "cluster.ring.lookup")
    timer.patch(AsyncMappingClient, "request", "cluster.router.forward")
    timer.patch(MappingService, "handle_map", "service.app.map")
    timer.patch(MappingService, "handle_delta", "service.app.delta")
    timer.patch(MappingService, "handle_cache_push", "cluster.replica.push")
    timer.patch(app_mod, "canonical_form", "service.canonical")
    timer.patch(router_mod, "canonical_form", "service.canonical")
    timer.patch(MicroBatcher, "submit", "service.batcher.wait")
    timer.patch(worker_mod, "solve_mapping", "mapping.solve")
    _solve_timed = timer.wrap("service.worker.solve", worker_mod.solve_batch,
                              size=_solve_items)
    init = MappingService.__init__

    def traced_init(self, config=None, clock=None, solve_batch_fn=None):
        kwargs = {"solve_batch_fn": timed_solve_batch}
        if clock is not None:
            kwargs["clock"] = clock
        init(self, config, **kwargs)

    MappingService.__init__ = traced_init
    os.register_at_fork(after_in_child=_after_fork)
    atexit.register(_dump)


def _install_corruption() -> None:
    from repro.service.app import MappingService

    handle_map = MappingService.handle_map
    seen = [0]

    async def corrupting(self, body, *args, **kwargs):
        status, headers, payload = await handle_map(self, body, *args, **kwargs)
        seen[0] += 1
        if seen[0] == CORRUPT_ANSWER and status == 200:
            doc = json.loads(payload)
            doc["mapping"] = list(reversed(doc["mapping"]))
            payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        return status, headers, payload

    MappingService.handle_map = corrupting


def install() -> None:
    if os.environ.get("PERFSUITE_CORRUPT") == "serve-answer":
        _install_corruption()
    if os.environ.get("PERFSUITE_TRACE_DIR"):
        _install_trace()
