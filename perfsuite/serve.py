"""The serving workload: ``repro route --shards 2`` under a seeded request mix.

One generator process (this one) drives the cluster with at most two
connections and no threads.

* Set-up: the cluster is booted ``SETUP_BOOTS`` times; ``setup_s`` is the
  median time from spawning the router to ``/healthz`` answering ``ok``
  with both shards up.  The last boot serves the load.
* Closed loop, one request in flight, over a seeded interleaving (in
  blocks of ``BLOCK``) of five classes: ``hit`` (exact repeats of solved bodies, routed), ``direct_hit``
  (the same bodies sent straight to their owning shard), ``relabel``
  (fresh permutations of solved matrices: the canonical cache), ``delta``
  (``/map/delta`` against solved bases) and ``cold`` (never-seen 16-thread
  matrices on a 4-chip topology: queue, pool solve and replication).
* Saturation: two connections to the router, each sending its next
  routed ``hit`` request as soon as its answer arrives, in
  ``SATURATE_SEGMENTS`` pieces with a gauge sample between them; the median
  completion rate is ``throughput_per_s``.  It is the rate of the same path
  ``hot_p50_ms`` times one request at a time.
* Open loop: a ladder of fixed rates (fractions of the saturated rate) of
  routed hits on the same two connections.  Each request is timed from its
  due time, and the generator's lateness is reported; ``max_rps`` is the
  highest rung whose p90 stays under ``LIMIT_MS`` with no growing backlog.

Every body and every expected answer is built before timing: ``/map``
answers by ``canonical_form`` -> ``solve_mapping`` -> ``unpermute``,
``/map/delta`` answers by an in-process ``MappingService``.  The heap is
frozen and the collector disabled while requests are timed.  The cluster
is stopped (``SIGSTOP`` to its process group) while the gauge runs, so work
the cluster does between requests cannot slow the gauge and cancel out of
the scaled figures.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import re
import selectors
import shutil
import signal
import subprocess
import sys
import time
from bisect import bisect_right
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import common
import perlayer
from hostspeed import Gauge
from httpclient import Conn

CLASSES = perlayer.CLASSES
SETUP_BOOTS = 5
#: Closed-loop requests per second of ``--seconds``, by class.
CLOSED_PER_SECOND = {"hit": 250, "direct_hit": 190, "relabel": 130, "delta": 130, "cold": 19}
#: Share of ``--seconds`` given to the closed loop.
CLOSED_SHARE = 0.45
#: Consecutive closed-loop requests of one class.
BLOCK = 8
HIT_BASES = 64
#: Share of ``--seconds`` for the saturation phase: two connections, each
#: sending its next request as soon as its answer arrives.
SATURATE_SHARE = 0.40
SATURATE_SEGMENTS = 12
#: Fixed ladder rates as fractions of the saturated rate; the rest of
#: ``--seconds`` is split evenly among them.
LADDER_FRACTIONS = (0.5, 0.7, 0.9)
#: The latency limit on the ladder's p90, timed from each request's due time.
LIMIT_MS = 10.0
#: Largest rise in the generator's median lateness, first tenth of a rung
#: to last tenth, that still counts as no growing backlog.
BACKLOG_MS = 2.0
WARM_COLD = 6
#: Gauge runs spread through the closed loop (see hostspeed.py).
GAUGE_SEGMENTS = 12
BOOT_TIMEOUT = 60.0
_LISTEN = re.compile(r"router listening on http://([0-9.]+):(\d+)")


# -- the cluster --------------------------------------------------------------------


class Cluster:
    """One ``repro route`` process tree, booted and stopped by the generator."""

    def __init__(self, log: Path, env_extra: Dict[str, str], fault_plan: Optional[Path]):
        self.log = log
        self.env = dict(os.environ)
        self.env.update(env_extra)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env_extra.get("PYTHONPATH"), str(common.SRC)) if p)
        self.fault_plan = fault_plan
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.shards: Dict[str, Tuple[str, int]] = {}

    def start(self) -> float:
        """Boot; returns seconds from spawn to a healthy two-shard cluster."""
        cmd = [sys.executable, "-m", "repro", "route", "--host", "127.0.0.1",
               "--port", "0", "--shards", "2"]
        if self.fault_plan is not None:
            cmd += ["--fault-plan", str(self.fault_plan)]
        start = time.perf_counter()
        with open(self.log, "w", encoding="utf-8") as out:
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                         env=self.env, cwd=str(common.REPO),
                                         start_new_session=True)
        deadline = start + BOOT_TIMEOUT
        while not self.port:
            match = _LISTEN.search(self.log.read_text(encoding="utf-8"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            elif self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"router did not boot:\n{self.log.read_text()}")
            else:
                time.sleep(0.002)
        conn = Conn(self.host, self.port)
        try:
            while True:
                status, _, body = conn.request("GET", "/healthz")
                doc = json.loads(body)
                if status == 200 and doc.get("status") == "ok" and len(doc.get("shards", {})) == 2:
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"cluster never became healthy: {doc}")
                time.sleep(0.002)
            elapsed = time.perf_counter() - start
            _, _, ring = conn.request("GET", "/ring")
        finally:
            conn.close()
        for shard_id, info in json.loads(ring)["shards"].items():
            self.shards[shard_id] = (info["host"], int(info["port"]))
        return elapsed

    def sample(self, gauge: Gauge) -> None:
        """One gauge sample while every process of the cluster (it has a
        process group of its own) is stopped."""
        os.killpg(self.proc.pid, signal.SIGSTOP)
        try:
            gauge.sample()
        finally:
            os.killpg(self.proc.pid, signal.SIGCONT)

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid] + common.descendants(self.proc.pid)
        return sum(common.vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGTERM the router (it drains its shards), then reap the group."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        else:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=10)
        self.proc = None


# -- inputs ---------------------------------------------------------------------------


def _encode(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _matrix(rng: random.Random, n: int) -> List[List[float]]:
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = float(rng.randrange(0, 100))
    return m


class Inputs:
    """Request bodies and their expected answers, all built up front."""

    def __init__(self, seed: int, seconds: float):
        from repro.mapping.hierarchical import solve_mapping
        from repro.service.app import MappingService, ServiceConfig
        from repro.service.canonical import canonical_form, canonical_key, unpermute
        from repro.service.worker import topology_from_spec
        import numpy as np

        self._np = np
        self._canonical_form = canonical_form
        self._canonical_key = canonical_key
        self._unpermute = unpermute
        self._solve = lambda canon, spec: solve_mapping(canon, topology_from_spec(spec)).assignment
        self._solved: Dict[str, Tuple[int, ...]] = {}
        self.rng = random.Random(seed)
        self.saturate_s = seconds * SATURATE_SHARE
        self.rung_s = seconds * (1.0 - CLOSED_SHARE - SATURATE_SHARE) / len(LADDER_FRACTIONS)
        self.closed_counts = {c: max(10, round(k * seconds * CLOSED_SHARE))
                              for c, k in CLOSED_PER_SECOND.items()}
        self.expect: Dict[bytes, dict] = {}
        self.first_answer: Dict[bytes, bytes] = {}
        self.owner: Dict[bytes, str] = {}
        self.direct_shard = ""
        self.bases = [_matrix(self.rng, 8) for _ in range(HIT_BASES)]
        self.base_bodies = [_encode({"matrix": m}) for m in self.bases]
        self.base_answers = [self._expect_map(b, m, (2, 2, 2))
                             for b, m in zip(self.base_bodies, self.bases)]
        # /map/delta answers come from an in-process service holding the
        # same solved bases.
        self._ref_loop = asyncio.new_event_loop()
        self._ref = MappingService(ServiceConfig(workers=0, trace_ring=0))
        self._ref_loop.run_until_complete(self._ref.start())
        for body in self.base_bodies:
            self._ref_loop.run_until_complete(self._ref.handle_map(body))
        self._deltas_made = 0
        self.warm_cold = [self.cold_body() for _ in range(WARM_COLD)]
        self.closed = {
            "relabel": [self.relabel_body() for _ in range(self.closed_counts["relabel"])],
            "delta": self.delta_bodies(self.closed_counts["delta"]),
            "cold": [self.cold_body() for _ in range(self.closed_counts["cold"])],
        }

    def close(self) -> None:
        self._ref_loop.run_until_complete(self._ref.aclose())
        self._ref_loop.close()

    def _expect_map(self, body: bytes, matrix: List[List[float]], spec: Tuple[int, int, int]) -> dict:
        canon, perm = self._canonical_form(self._np.asarray(matrix, dtype=float))
        key = self._canonical_key(canon, spec)
        if key not in self._solved:
            self._solved[key] = tuple(self._solve(canon, spec))
        answer = {"key": key, "perm": list(perm),
                  "mapping": self._unpermute(self._solved[key], perm)}
        self.expect[body] = answer
        return answer

    def relabel_body(self) -> bytes:
        """A never-sent permutation of a solved base matrix."""
        while True:
            i = self.rng.randrange(HIT_BASES)
            order = list(range(8))
            self.rng.shuffle(order)
            m = [[self.bases[i][a][b] for b in order] for a in order]
            body = _encode({"matrix": m})
            if body not in self.expect:
                self._expect_map(body, m, (2, 2, 2))
                return body

    def cold_body(self) -> bytes:
        """A never-seen 16-thread matrix on a 4-chip topology."""
        while True:
            m = _matrix(self.rng, 16)
            body = _encode({"matrix": m, "topology": {"chips": 4}})
            if body not in self.expect:
                self._expect_map(body, m, (2, 2, 4))
                return body

    def delta_bodies(self, count: int) -> List[bytes]:
        """Small, never-sent updates against solved bases."""
        bodies = []
        for _ in range(count):
            i = self.rng.randrange(HIT_BASES)
            a, b = self.rng.sample(range(8), 2)
            ans = self.base_answers[i]
            self._deltas_made += 1
            body = _encode({
                "base_key": ans["key"], "perm": ans["perm"],
                "updates": [[a, b, 0.5 + self._deltas_made * 1e-3]],
                "current_mapping": ans["mapping"], "decay": 1.0,
            })
            raw = self._ref_loop.run_until_complete(self._ref.handle_delta(body))[2]
            self.expect[body] = {"raw": raw}
            bodies.append(body)
        return bodies

    def check(self, body: bytes, status: int, raw: bytes) -> Optional[str]:
        """None when the answer matches the expected one, else why not."""
        if status != 200:
            return f"status {status}"
        want = self.expect[body]
        if "raw" in want:
            return None if raw == want["raw"] else "delta answer differs"
        try:
            got = json.loads(raw)
        except ValueError:
            return "answer is not JSON"
        for field in ("key", "perm", "mapping"):
            if got.get(field) != want[field]:
                return f"{field} differs"
        return None


# -- load phases ---------------------------------------------------------------------


class Tally:
    """Per-class attempts, failures, wrong answers and latencies."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = {c: [] for c in CLASSES}
        self.attempted: Dict[str, int] = {c: 0 for c in CLASSES}
        self.failed: Dict[str, int] = {c: 0 for c in CLASSES}
        self.cache: Dict[str, int] = {}
        self.errors: List[str] = []
        self.windows: List[Tuple[float, float, str]] = []

    def record(self, cls: str, start: float, end: float, status: Optional[int],
               headers: Dict[str, str], problem: Optional[str]) -> None:
        self.attempted[cls] += 1
        if status != 200:
            self.failed[cls] += 1
        if problem is not None:
            self.errors.append(f"{cls}: {problem}")
            return
        self.latency[cls].append(end - start)
        self.windows.append((start, end, cls))
        state = headers.get("x-repro-cache", "none")
        self.cache[state] = self.cache.get(state, 0) + 1


def _closed_schedule(inputs: Inputs, seed: int) -> List[Tuple[str, str, bytes]]:
    """The closed loop's seeded interleaving of the five classes, in blocks
    of ``BLOCK`` requests of one class: host drift falls on every class
    alike, and whatever one request leaves behind (an idle CPU after a slow
    one) lands on the first request of a block, not on a class's median."""
    rng = random.Random(seed ^ 0x5EED)
    blocks = []
    for cls, n in inputs.closed_counts.items():
        blocks.extend([cls] * min(BLOCK, n - k) for k in range(0, n, BLOCK))
    rng.shuffle(blocks)
    labels = [cls for block in blocks for cls in block]
    direct = [b for b in inputs.base_bodies if inputs.owner[b] == inputs.direct_shard]
    pools = {cls: iter(bodies) for cls, bodies in inputs.closed.items()}
    out = []
    for cls in labels:
        if cls == "hit":
            out.append((cls, "/map", inputs.base_bodies[rng.randrange(HIT_BASES)]))
        elif cls == "direct_hit":
            out.append((cls, "/map", direct[rng.randrange(len(direct))]))
        else:
            out.append((cls, "/map/delta" if cls == "delta" else "/map", next(pools[cls])))
    return out


def warm_up(cluster: Cluster, inputs: Inputs) -> Tuple[Conn, Conn]:
    """Solve the bases through the router, learn their owners, open the
    direct connection, and send untimed requests down every path."""
    router = Conn(cluster.host, cluster.port)
    for body in inputs.base_bodies:
        status, headers, raw = router.request("POST", "/map", body)
        problem = inputs.check(body, status, raw)
        if problem:
            raise RuntimeError(f"warm-up answer wrong: {problem}")
        inputs.owner[body] = headers["x-repro-shard"]
    inputs.direct_shard = inputs.owner[inputs.base_bodies[0]]
    direct = Conn(*cluster.shards[inputs.direct_shard])
    for body in inputs.base_bodies:
        router.request("POST", "/map", body)
        if inputs.owner[body] == inputs.direct_shard:
            direct.request("POST", "/map", body)
    for body in inputs.warm_cold:
        router.request("POST", "/map", body)
    return router, direct


def closed_loop(router: Conn, direct: Conn, schedule, inputs: Inputs, tally: Tally,
                sample: Optional[Callable[[], None]] = None) -> float:
    """One request in flight; ``sample`` (a gauge sample) runs every
    ``1/GAUGE_SEGMENTS`` of the schedule and once more at the end."""
    clock = time.perf_counter
    every = max(1, len(schedule) // GAUGE_SEGMENTS)
    gc.collect()
    gc.freeze()
    gc.disable()
    start_all = clock()
    try:
        for k, (cls, path, body) in enumerate(schedule):
            if sample is not None and k % every == 0:
                sample()
            conn = direct if cls == "direct_hit" else router
            start = clock()
            status, headers, raw = conn.request("POST", path, body)
            end = clock()
            tally.record(cls, start, end, status, headers, inputs.check(body, status, raw))
            if cls in ("hit", "direct_hit"):
                first = inputs.first_answer.setdefault(body, raw)
                if raw != first:
                    tally.errors.append(f"{cls}: repeat is not byte-identical")
        if sample is not None:
            sample()
    finally:
        gc.enable()
        gc.unfreeze()
    return clock() - start_all


def _hits(inputs: Inputs, count: int, rng: random.Random) -> List[Tuple[str, str, bytes]]:
    return [("hit", "/map", inputs.base_bodies[rng.randrange(HIT_BASES)]) for _ in range(count)]


def open_loop(conns: Sequence[Conn], requests, rate: Optional[float], inputs: Inputs,
              duration: float = float("inf")) -> Dict[str, object]:
    """Send ``requests`` over ``conns``, the k-th due at ``k / rate`` seconds
    (all due at once when ``rate`` is None: the saturation phase), and time
    each from its due time.  Nothing new is sent after ``duration`` seconds."""
    clock = time.perf_counter
    # select(2) takes a float timeout; epoll rounds up to whole milliseconds.
    sel = selectors.SelectSelector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    free = list(conns)
    busy: Dict[Conn, Tuple[int, float]] = {}
    from_due: List[float] = []
    late: List[float] = []
    failed = 0
    errors: List[str] = []
    interval = 0.0 if rate is None else 1.0 / rate
    nxt = 0
    gc.collect()
    gc.freeze()
    gc.disable()
    t0 = clock() + 0.01
    stop = t0 + duration
    try:
        while (nxt < len(requests) and clock() < stop) or busy:
            now = clock()
            while nxt < len(requests) and free and t0 + nxt * interval <= now < stop:
                conn = free.pop()
                _, path, body = requests[nxt]
                conn.send("POST", path, body)
                late.append(now - (t0 + nxt * interval))
                busy[conn] = (nxt, t0 + nxt * interval)
                nxt += 1
            timeout = None
            if nxt < len(requests) and free:
                timeout = max(0.0, min(t0 + nxt * interval, stop) - clock())
            for key, _ in sel.select(timeout):
                conn = key.data
                conn.read_some()
                response = conn.take()
                if response is None:
                    continue
                index, due = busy.pop(conn)
                free.append(conn)
                status, _, raw = response
                from_due.append(clock() - due)
                problem = inputs.check(requests[index][2], status, raw)
                if status != 200:
                    failed += 1
                if problem is not None:
                    errors.append(f"open loop {requests[index][0]}: {problem}")
    finally:
        gc.enable()
        gc.unfreeze()
        sel.close()
    elapsed = clock() - t0
    tenth = max(1, len(late) // 10)
    p90 = common.quantile(from_due, 0.9) * 1000.0
    # A growing backlog shows as the generator falling further behind.
    backlog_ms = 1000.0 * (common.median(late[-tenth:]) - common.median(late[:tenth]))
    met = not failed and not errors and p90 <= LIMIT_MS and backlog_ms <= BACKLOG_MS
    return {
        "rate": rate, "sent": nxt, "failed": failed, "errors": errors,
        "achieved_per_s": nxt / elapsed, "n": len(from_due),
        "p50_ms": common.quantile(from_due, 0.5) * 1000.0, "p90_ms": p90,
        "late_p50_ms": common.quantile(late, 0.5) * 1000.0,
        "backlog_growth_ms": backlog_ms, "met": met,
    }


def open_phases(cluster: Cluster, inputs: Inputs, tally: Tally, seed: int,
                gauge: Gauge) -> Tuple[List[dict], List[dict]]:
    """The saturation phase, in ``SATURATE_SEGMENTS`` pieces with a gauge
    sample between them, then the fixed-rate ladder.  Returns the pieces and
    the ladder's rungs."""
    rng = random.Random(seed ^ 0x1ADDE5)
    seg_s = inputs.saturate_s / SATURATE_SEGMENTS
    # Enough requests for 1.5x the rate two connections reach at the closed
    # loop's hit latency.
    per_segment = int(1.5 * 2 / common.median(tally.latency["hit"]) * seg_s)
    conns = [Conn(cluster.host, cluster.port) for _ in range(2)]
    segments: List[dict] = []
    try:
        for _ in range(SATURATE_SEGMENTS):
            requests = _hits(inputs, per_segment, rng)
            cluster.sample(gauge)
            segments.append(open_loop(conns, requests, None, inputs, seg_s))
        cluster.sample(gauge)
        base = common.median([seg["achieved_per_s"] for seg in segments])
        rungs = []
        for fraction in LADDER_FRACTIONS:
            rate = fraction * base
            rungs.append(open_loop(conns, _hits(inputs, int(rate * inputs.rung_s), rng),
                                   rate, inputs))
    finally:
        for conn in conns:
            conn.close()
    return segments, rungs


# -- the workload ---------------------------------------------------------------------


def _fault_plan(out: Path) -> Optional[Path]:
    """``PERFSUITE_INJECT=slow-forward:<seconds>``: the program's own
    ``slow`` fault on every router forward, via ``repro route --fault-plan``."""
    inject = common.env_flag("PERFSUITE_INJECT")
    if not inject.startswith("slow-forward:"):
        return None
    plan = {"seed": 0, "note": "perfsuite gate self-test", "events": [{
        "site": "cluster.router.forward", "invocation": 1, "kind": "slow",
        "count": 1_000_000_000, "seconds": float(inject.split(":", 1)[1]),
    }]}
    path = out / "fault-plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


def _env(trace_dir: Optional[Path]) -> Dict[str, str]:
    env: Dict[str, str] = {}
    if trace_dir is not None or common.env_flag("PERFSUITE_CORRUPT") == "serve-answer":
        env["PYTHONPATH"] = str(common.BENCH_DIR / "inject")
    if trace_dir is not None:
        env["PERFSUITE_TRACE_DIR"] = str(trace_dir)
    return env


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    out = common.out_dir(f"serve-{os.getpid()}")
    plan = _fault_plan(out)
    inputs = Inputs(seed, seconds)
    try:
        if trace:
            code = run_traced(inputs, seed, out, plan)
        else:
            code = run_untraced(inputs, workload, seed, out, plan)
    finally:
        inputs.close()
    if code == 0:
        shutil.rmtree(out, ignore_errors=True)
    return code


def run_untraced(inputs: Inputs, workload: str, seed: int, out: Path,
                 plan: Optional[Path]) -> int:
    # The cluster runs on every CPU, so a gauge sample covers every CPU;
    # requests cross processes, so it bounces messages off an echo process too.
    gauge = Gauge(sorted(os.sched_getaffinity(0)), echo=True)
    boots: List[Tuple[float, float]] = []
    cluster = None
    try:
        gauge.sample()
        for k in range(SETUP_BOOTS):
            if cluster is not None:
                cluster.stop()
            cluster = Cluster(out / f"router-{k}.log", _env(None), plan)
            start = time.perf_counter()
            boots.append((start, cluster.start()))
            cluster.sample(gauge)
        router, direct = warm_up(cluster, inputs)
        tally = Tally()
        try:
            closed_loop(router, direct, _closed_schedule(inputs, seed), inputs, tally,
                        lambda: cluster.sample(gauge))
        finally:
            router.close()
            direct.close()
        segments, rungs = open_phases(cluster, inputs, tally, seed, gauge)
        peak_rss = cluster.peak_rss_mb()
    finally:
        gauge.close()
        if cluster is not None:
            cluster.stop()

    for phase in segments + rungs:
        tally.errors.extend(phase["errors"])
    # Host times at the gauge's nominal host speed (see hostspeed.py).  A
    # single 50 ms gauge sample is noisier than a request class's median
    # over the run, so requests are scaled by the median of every sample.
    scale = gauge.run_scale()
    raw = {c: [1000.0 * s for s in tally.latency[c]] for c in CLASSES}
    lat = {c: [ms * scale for ms in raw[c]] for c in CLASSES}
    saturated = common.median([seg["achieved_per_s"] for seg in segments])
    # Booting is imports and start-up work, not requests between processes.
    setup = [d * gauge.time_scale(t, t + d) for t, d in boots]
    common.detail("host", common.host_stamp(seed))
    common.detail("workload", {"name": workload, "closed_counts": inputs.closed_counts,
                               "direct_shard": inputs.direct_shard, "limit_ms": LIMIT_MS})
    for cls in CLASSES:
        common.detail(f"{cls}_ms", {"unit": "ms", "attempted": tally.attempted[cls],
                                    "failed": tally.failed[cls], **common.summarize(lat[cls])})
        common.detail(f"{cls}_raw_ms", {"unit": "ms", **common.summarize(raw[cls])})
    common.detail("cache_states", tally.cache)
    for segment in segments:
        common.detail("saturated", {k: v for k, v in segment.items() if k != "errors"})
    for rung in rungs:
        common.detail("rung", {k: v for k, v in rung.items() if k != "errors"})
    common.detail("max_rps", {"unit": "1/s", "limit_ms": LIMIT_MS, "value": max(
        (r["achieved_per_s"] for r in rungs if r["met"]), default=0.0)})
    common.detail("setup_s", {"unit": "s", "raw": [d for _, d in boots], "nominal": setup})
    common.detail("gauge", {**gauge.summary(), "run_scale": scale})
    if tally.errors:
        common.detail("check_failures", tally.errors[:20])
    metrics = {
        "setup_s": common.metric(common.median(setup), "s"),
        "peak_rss_mb": common.metric(peak_rss, "MB"),
        "throughput_per_s": common.metric(saturated / scale, "1/s"),
        "hot_p50_ms": common.metric(common.quantile(lat["hit"], 0.5), "ms"),
        "cold_p50_ms": common.metric(common.quantile(lat["cold"], 0.5), "ms"),
    }
    attempted = sum(tally.attempted.values()) + sum(r["sent"] for r in segments + rungs)
    failed = sum(tally.failed.values()) + sum(r["failed"] for r in segments + rungs)
    correct = not tally.errors
    common.result_line(correct, attempted, failed, metrics)
    return 0 if correct else 1


def run_traced(inputs: Inputs, seed: int, out: Path, plan: Optional[Path]) -> int:
    """Closed loop on an untraced cluster, then on a traced one, same inputs."""
    schedule = None
    walls: Dict[str, float] = {}
    tallies: Dict[str, Tally] = {}
    trace_dir = out / "trace"
    trace_dir.mkdir(exist_ok=True)
    for mode in ("untraced", "traced"):
        cluster = Cluster(out / f"router-{mode}.log",
                          _env(trace_dir if mode == "traced" else None), plan)
        try:
            cluster.start()
            router, direct = warm_up(cluster, inputs)
            if schedule is None:
                schedule = _closed_schedule(inputs, seed)
            tally = tallies[mode] = Tally()
            try:
                walls[mode] = closed_loop(router, direct, schedule, inputs, tally)
            finally:
                router.close()
                direct.close()
        finally:
            cluster.stop()
    records = []
    for path in trace_dir.glob("*.json"):
        records.extend(tuple(r) for r in json.loads(path.read_text())["records"])
    values = attribute(tallies["traced"], tallies["untraced"], records)
    values["trace_overhead_pct"] = 100.0 * (walls["traced"] / walls["untraced"] - 1.0)
    errors = tallies["untraced"].errors + tallies["traced"].errors
    common.detail("host", common.host_stamp(seed))
    for mode, tally in tallies.items():
        for cls in CLASSES:
            common.detail(f"{mode}_{cls}_ms", {
                "unit": "ms", "attempted": tally.attempted[cls], "failed": tally.failed[cls],
                **common.summarize([1000.0 * s for s in tally.latency[cls]])})
    if errors:
        common.detail("check_failures", errors[:20])
    attempted = sum(sum(t.attempted.values()) for t in tallies.values())
    failed = sum(sum(t.failed.values()) for t in tallies.values())
    common.result_line(not errors, attempted, failed, perlayer.complete(values))
    return 0 if not errors else 1


def attribute(traced: Tally, untraced: Tally, records) -> Dict[str, float]:
    """Nest every process's records inside the client requests they served
    and compute per-class self times that sum to the client p50."""
    windows = sorted(traced.windows)
    starts = [w[0] for w in windows]
    per_request: List[List[tuple]] = [[] for _ in windows]
    for rec in records:
        i = bisect_right(starts, rec[1]) - 1
        if i >= 0 and rec[2] <= windows[i][1]:
            per_request[i].append(rec)
    values: Dict[str, float] = {}
    layer_by_class: Dict[str, List[Dict[str, float]]] = {c: [] for c in CLASSES}
    rtt_by_class: Dict[str, List[float]] = {c: [] for c in CLASSES}
    outside: Dict[str, List[float]] = {c: [] for c in CLASSES}
    for (start, end, cls), recs in zip(windows, per_request):
        shard_handler = sum(r[2] - r[1] for r in recs
                            if r[0] in ("service.app.map", "service.app.delta"))
        layer_by_class[cls].append(_self_times(recs))
        rtt_by_class[cls].append(end - start)
        outside[cls].append(end - start - shard_handler)
    for cls in CLASSES:
        rtts = rtt_by_class[cls]
        if not rtts:
            continue
        p50 = common.quantile(rtts, 0.5)
        lo, hi = common.quantile(rtts, 0.4), common.quantile(rtts, 0.6)
        band = [s for s, r in zip(layer_by_class[cls], rtts) if lo <= r <= hi]
        total = 0.0
        for layer in perlayer.SERVE_LAYERS:
            v = 1000.0 * sum(s.get(layer, 0.0) for s in band) / len(band)
            values[f"{layer}_ms.{cls}"] = v
            total += v
        values[f"client_p50_ms.{cls}"] = 1000.0 * p50
        values[f"unattributed_ms.{cls}"] = 1000.0 * p50 - total
        values[f"service.http.outside_handler_ms.{cls}"] = 1000.0 * common.quantile(outside[cls], 0.5)
    # Counts over the records that fell inside a timed closed-loop request.
    served = [r for recs in per_request for r in recs]
    names = [r[0] for r in served]
    solves = [r for r in served if r[0] == "service.worker.solve"]
    values["service.canonical_calls"] = float(names.count("service.canonical"))
    values["cluster.replica.pushes"] = float(names.count("cluster.replica.push"))
    values["service.batcher.batch_size"] = (
        sum(r[4] for r in solves) / len(solves) if solves else 0.0)
    cache = untraced.cache
    answered = sum(cache.values())
    values["service.cache.body_hit_ratio"] = cache.get("body", 0) / answered if answered else 0.0
    solved = cache.get("solve", 0) + cache.get("miss", 0)
    values["service.cache.canonical_hit_ratio"] = cache.get("solve", 0) / solved if solved else 0.0
    return values


def _self_times(recs) -> Dict[str, float]:
    """Per-layer self time of one request's records, nested by containment."""
    ordered = sorted(recs, key=lambda r: (r[1], -r[2]))
    child = [0.0] * len(ordered)
    stack: List[int] = []
    for k, (_, r0, r1, _own, _size) in enumerate(ordered):
        while stack and ordered[stack[-1]][2] <= r0:
            stack.pop()
        if stack:
            child[stack[-1]] += r1 - r0
        stack.append(k)
    out: Dict[str, float] = {}
    for k, (name, r0, r1, _own, _size) in enumerate(ordered):
        out[name] = out.get(name, 0.0) + (r1 - r0) - child[k]
    return out
