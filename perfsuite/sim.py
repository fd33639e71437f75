"""The simulation workloads: the paper's protocol on shared and private kernels.

``sim-shared`` runs bt, lu, sp and ua, whose halo and wavefront sharing
keeps the MESI path of ``MemoryHierarchy.access_batch`` busy.
``sim-private`` runs ep, whose threads share nothing, so TLB translation
and the scheduling loop in ``Simulator.run`` carry the most weight.

One repetition is the full protocol through ``ExperimentRunner.run_benchmark``
(SM and HM detection runs, ``oracle_matrix``, ``hierarchical_mapping``, the
OS/SM/HM ensemble) on every kernel of the workload, serially, with the
default engine and no result cache.  Repetition ``k`` uses a seed derived
from ``(--seed, k)``.  The first ``GAP_REPS`` repetitions always run and
fix the simulated figures (``paper_gap``, the ``sim.*`` counts), which are
therefore exact per seed; further repetitions run until ``--seconds`` of
protocol time are spent and only add timing samples.

Run as a script with ``--probe-setup`` it is the fresh interpreter whose
time to the first simulated access ``setup_s`` measures.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import common
from hostspeed import Gauge
from layers import LayerTimer, TimedHook

KERNELS = {"sim-shared": ("bt", "lu", "sp", "ua"), "sim-private": ("ep",)}
#: Scales chosen so one repetition takes 1-3 s on a 2-CPU host.
SCALES = {"sim-shared": 0.06, "sim-private": 0.4}
#: Repetitions whose simulated figures are reported (exact per seed).
GAP_REPS = {"sim-shared": 2, "sim-private": 2}
OS_RUNS = 2
MAPPED_RUNS = 1
SETUP_PROBES = 9
#: Accesses per kernel replayed under the scalar engine as a reference.
SLICE_ACCESSES = 12_000

COUNTERS = (
    "execution_cycles", "core_cycles", "accesses", "invalidations",
    "snoop_transactions", "l2_misses", "memory_fetches",
    "l1_sibling_invalidations", "tlb_accesses", "tlb_misses",
    "inter_chip_transactions", "intra_chip_transactions",
)


def rep_seed(seed: int, rep: int) -> int:
    digest = hashlib.sha256(f"perfsuite:{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def make_runner(workload: str, seed: int, rep: int):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import ExperimentRunner

    config = ExperimentConfig(
        benchmarks=KERNELS[workload],
        scale=SCALES[workload],
        seed=rep_seed(seed, rep),
        os_runs=OS_RUNS,
        mapped_runs=MAPPED_RUNS,
    )
    return ExperimentRunner(config)


# -- injection from outside the program -------------------------------------------


def install_injections(timer: LayerTimer) -> None:
    """``PERFSUITE_INJECT=spin-access-batch:<ns per access>`` and
    ``PERFSUITE_CORRUPT=sim-counter`` (the self-tests' faults)."""
    from repro.machine.simulator import Simulator, resolve_engine
    from repro.mem.hierarchy import MemoryHierarchy

    inject = common.env_flag("PERFSUITE_INJECT")
    if inject.startswith("spin-access-batch:"):
        spin_s = float(inject.split(":", 1)[1]) * 1e-9
        original = MemoryHierarchy.__dict__["access_batch"]

        def spinning(self, core, lines, writes, start, end):
            until = time.perf_counter() + spin_s * (end - start)
            while time.perf_counter() < until:
                pass
            return original(self, core, lines, writes, start, end)

        timer._restore.append((MemoryHierarchy, "access_batch", original))
        MemoryHierarchy.access_batch = spinning
    if common.env_flag("PERFSUITE_CORRUPT") == "sim-counter":
        original_run = Simulator.__dict__["run"]

        def corrupted(self, *args, **kwargs):
            result = original_run(self, *args, **kwargs)
            if resolve_engine(self.config.engine) == "batched":
                result.invalidations += 1
            return result

        timer._restore.append((Simulator, "run", original_run))
        Simulator.run = corrupted


def install_layers(timer: LayerTimer) -> None:
    """Wrap each simulation layer's public entry points."""
    import repro.experiments.runner as runner_mod
    from repro.core.detection import Detector
    from repro.core.hm_detector import HardwareManagedDetector
    from repro.experiments.runner import ExperimentRunner
    from repro.machine.simulator import Simulator
    from repro.mem.hierarchy import MemoryHierarchy
    from repro.tlb.mmu import MMU
    from repro.workloads.base import AccessStream, Workload

    timer.patch(Workload, "phases", "workloads.gen")
    timer.patch(AccessStream, "sequences", "workloads.decode")
    timer.patch(MMU, "translate_vpn", "tlb.translate")
    timer.patch(MMU, "translate_batch", "tlb.translate")
    timer.patch(MemoryHierarchy, "access_batch", "mem.access_batch")
    timer.patch(Simulator, "run", "machine.loop")
    timer.patch(Detector, "poll", "core.detect")
    timer.patch(HardwareManagedDetector, "poll", "core.detect")
    timer.patch(runner_mod, "oracle_matrix", "core.oracle")
    timer.patch(runner_mod, "hierarchical_mapping", "mapping.solve")
    timer.patch(ExperimentRunner, "run_benchmark", "experiments.protocol")
    add_hook = MMU.__dict__["add_miss_hook"]

    def timed_add_hook(self, hook):
        return add_hook(self, TimedHook(timer, "core.detect", hook))

    timer._restore.append((MMU, "add_miss_hook", add_hook))
    MMU.add_miss_hook = timed_add_hook


def install_run_clock(samples: List[Tuple[float, float]]) -> Tuple[object, str, object]:
    """Stopwatch around each ``Simulator.run`` (one simulated execution):
    appends its (start, seconds)."""
    from repro.machine.simulator import Simulator

    original = Simulator.run

    def clocked(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            samples.append((start, time.perf_counter() - start))

    Simulator.run = clocked
    return Simulator, "run", original


# -- one repetition ------------------------------------------------------------------


def run_rep(workload: str, seed: int, rep: int,
            gauge: Gauge) -> Tuple[List[Tuple[float, float]], Dict[str, object]]:
    """One protocol repetition, the gauge sampled before each kernel:
    ((start, seconds) per kernel, results by kernel)."""
    runner = make_runner(workload, seed, rep)
    results = {}
    windows = []
    for name in KERNELS[workload]:
        gauge.sample()
        start = time.perf_counter()
        results[name] = runner.run_benchmark(name)
        windows.append((start, time.perf_counter() - start))
    return windows, results


def simulated_accesses(results: Dict[str, object]) -> int:
    total = 0
    for res in results.values():
        total += sum(r.accesses for r in res.detection_results.values())
        total += sum(r.accesses for runs in res.runs.values() for r in runs.results)
    return total


def simulated_figures(reps: List[Dict[str, object]]) -> Dict[str, float]:
    """Exact-per-seed figures over the fixed repetitions."""
    from repro.experiments.paper_values import TABLE4_EXECUTION_TIME as T4

    gaps: List[float] = []
    ratios = {"SM": [], "HM": []}
    acc = inval = snoops = l2 = tlb = 0
    sm_searches = hm_scans = 0
    for results in reps:
        for name, res in results.items():
            for policy in ("SM", "HM"):
                sim = res.mean(policy, "execution_cycles") / res.mean("OS", "execution_cycles")
                paper = T4[name][policy] / T4[name]["OS"]
                gaps.append(abs(sim - paper))
                ratios[policy].append(sim)
            runs = list(res.detection_results.values())
            runs += [r for group in res.runs.values() for r in group.results]
            for r in runs:
                acc += r.accesses
                inval += r.invalidations
                snoops += r.snoop_transactions
                l2 += r.l2_misses
                tlb += r.tlb_misses
            sm_searches += int(res.detector_stats["SM"].get("searches_run", 0))
            hm_scans += int(res.detector_stats["HM"].get("scans_run", 0))
    return {
        "paper_gap": sum(gaps) / len(gaps),
        "sim.invalidations_per_kacc": 1000.0 * inval / acc,
        "sim.snoops_per_kacc": 1000.0 * snoops / acc,
        "sim.l2_misses_per_kacc": 1000.0 * l2 / acc,
        "sim.tlb_misses_per_kacc": 1000.0 * tlb / acc,
        "sim.sm_searches": float(sm_searches),
        "sim.hm_scans": float(hm_scans),
        "sim.sm_os_ratio": sum(ratios["SM"]) / len(ratios["SM"]),
        "sim.hm_os_ratio": sum(ratios["HM"]) / len(ratios["HM"]),
    }


# -- output checks -------------------------------------------------------------------


def check_outputs(results: Dict[str, object], threads: int, cores: int,
                  errors: List[str]) -> int:
    """Matrices finite/symmetric/non-negative; mappings place distinct cores."""
    import numpy as np

    checked = 0
    for name, res in results.items():
        for label, cm in res.detected.items():
            m = np.asarray(cm.matrix, dtype=float)
            checked += 1
            common.check(bool(np.all(np.isfinite(m))), f"{name}/{label}: matrix not finite", errors)
            common.check(bool(np.array_equal(m, m.T)), f"{name}/{label}: matrix not symmetric", errors)
            common.check(bool(np.all(m >= 0)), f"{name}/{label}: negative matrix entry", errors)
        placements = list(res.mappings.values())
        placements += [p for group in res.runs.values() for p in group.mappings]
        for placement in placements:
            checked += 1
            ok = (len(placement) == threads and len(set(placement)) == threads
                  and all(0 <= c < cores for c in placement))
            common.check(ok, f"{name}: mapping {list(placement)} is not a placement", errors)
    return checked


def check_engines(workload: str, seed: int, errors: List[str]) -> int:
    """Replay a slice of each kernel under the scalar engine; counters and
    SM-detected matrices must equal the default engine's bit for bit."""
    import numpy as np

    from repro.core.sm_detector import SoftwareManagedDetector
    from repro.machine.simulator import SimConfig, Simulator
    from repro.tlb.mmu import TLBManagement
    from repro.workloads.base import AccessStream, Phase

    runner = make_runner(workload, seed, 0)
    checked = 0
    for name in KERNELS[workload]:
        phases = []
        budget = SLICE_ACCESSES
        for phase in runner._workload(name, "detect").phases():
            per_thread = max(1, budget // phase.num_threads)
            phases.append(Phase(phase.name, [
                AccessStream(s.addrs[:per_thread], s.writes[:per_thread])
                for s in phase.streams
            ]))
            budget -= phases[-1].total_accesses
            if budget <= 0:
                break
        outcome = {}
        for engine in ("scalar", "auto"):
            det = SoftwareManagedDetector(runner.config.num_threads, runner.detector_config)
            sim = Simulator(runner._system(TLBManagement.SOFTWARE), SimConfig(engine=engine))
            res = sim.run(phases, detectors=[det])
            outcome[engine] = ({k: getattr(res, k) for k in COUNTERS}, det.matrix.matrix.copy())
        checked += 1
        (c_ref, m_ref), (c_def, m_def) = outcome["scalar"], outcome["auto"]
        for key in COUNTERS:
            common.check(c_ref[key] == c_def[key],
                         f"{name}: {key} default={c_def[key]} scalar={c_ref[key]}", errors)
        common.check(bool(np.array_equal(m_ref, m_def)),
                     f"{name}: SM matrix differs between engines", errors)
    return checked


# -- set-up ----------------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: run until the first simulated access."""
    common.require_source()
    from repro.mem.hierarchy import MemoryHierarchy

    def first_access(self, *args, **kwargs):
        sys.stdout.write("first-access\n")
        sys.stdout.flush()
        os._exit(0)

    MemoryHierarchy.access_batch = first_access
    MemoryHierarchy.access = first_access
    runner = make_runner(workload, seed, 0)
    runner.run_benchmark(KERNELS[workload][0])
    os._exit(3)


def measure_setup(workload: str, seed: int, gauge: Gauge) -> List[Tuple[float, float]]:
    """(start, seconds) of each probe; the gauge runs between probes."""
    samples = []
    env = dict(os.environ)
    gauge.sample()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe-setup", workload, str(seed)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "first-access":
            raise RuntimeError(f"setup probe did not reach a simulated access: {line!r}")
        samples.append((start, elapsed))
        gauge.sample()
    return samples


# -- the workload ---------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from repro.machine.topology import harpertown

    errors: List[str] = []
    # One CPU for the generator, its setup probes and the gauge, so the
    # gauge measures the speed of the CPU the simulation runs on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    gauge = Gauge([cpu])
    setup_probes = measure_setup(workload, seed, gauge)
    base_timer = LayerTimer()
    install_injections(base_timer)
    run_samples: List[Tuple[float, float]] = []
    clock_restore = install_run_clock(run_samples)
    timer = LayerTimer()

    rep_walls: List[float] = []
    rep_nominal: List[float] = []
    rep_accesses: List[int] = []
    run_ms: List[float] = []
    run_nominal_ms: List[float] = []
    fixed: List[Dict[str, object]] = []
    traced_walls: List[float] = []
    traced_accesses = 0
    spent = 0.0
    rep = 0
    checked = 0
    topo = harpertown()
    pending: List[Tuple[List[Tuple[float, float]], List[Tuple[float, float]]]] = []
    while rep < GAP_REPS[workload] or spent < seconds:
        # Traced runs alternate untraced and traced repetitions of one seed,
        # so the tracing overhead is measured on identical work.
        for traced_pass in ((False, True) if trace else (False,)):
            if traced_pass:
                install_layers(timer)
            del run_samples[:]
            try:
                windows, results = run_rep(workload, seed, rep, gauge)
            finally:
                if traced_pass:
                    timer.restore()
            wall = sum(d for _, d in windows)
            accesses = simulated_accesses(results)
            if traced_pass:
                traced_walls.append(wall)
                traced_accesses += accesses
                continue
            rep_walls.append(wall)
            rep_accesses.append(accesses)
            run_ms.extend(1000.0 * d for _, d in run_samples)
            pending.append((windows, list(run_samples)))
            checked += check_outputs(results, 8, topo.num_cores, errors)
            if rep < GAP_REPS[workload]:
                fixed.append(results)
            spent += wall
        rep += 1
    gauge.sample()
    # Host times at the gauge's nominal host speed (see hostspeed.py): each
    # kernel's protocol time, and each simulated execution inside it, scaled
    # by the gauge samples around that kernel.
    for windows, runs in pending:
        scaled = [(t, t + d, gauge.time_scale(t, t + d)) for t, d in windows]
        rep_nominal.append(sum((t1 - t0) * scale for t0, t1, scale in scaled))
        for start, d in runs:
            scale = next(sc for t0, t1, sc in scaled if t0 <= start < t1)
            run_nominal_ms.append(1000.0 * d * scale)
    peak_rss = common.vm_hwm_mb(os.getpid())
    setattr(*clock_restore)
    # Injected faults stay installed through the engine check, so a
    # corrupted counter must surface there.
    checked += check_engines(workload, seed, errors)
    base_timer.restore()
    figures = simulated_figures(fixed)

    rates = [a / w for a, w in zip(rep_accesses, rep_walls)]
    setup_samples = [d for _, d in setup_probes]
    setup_nominal = [d * gauge.time_scale(t, t + d) for t, d in setup_probes]
    common.detail("host", common.host_stamp(seed))
    common.detail("workload", {
        "name": workload, "kernels": KERNELS[workload], "scale": SCALES[workload],
        "repetitions": len(rep_walls), "fixed_repetitions": len(fixed),
        "rep_seconds": rep_walls, "rep_nominal_seconds": rep_nominal,
        "accesses_per_rep": rep_accesses,
    })
    common.detail("sim_accesses_per_s_raw", {"unit": "1/s", **common.summarize(rates)})
    common.detail("sim_run_raw_ms", {"unit": "ms", **common.summarize(run_ms)})
    common.detail("protocol_raw_ms", {"unit": "ms", **common.summarize([1000 * w for w in rep_walls])})
    common.detail("setup_raw_s", {"unit": "s", **common.summarize(setup_samples)})
    common.detail("gauge", gauge.summary())
    common.detail("simulated", figures)
    if errors:
        common.detail("check_failures", errors[:20])
    if trace:
        metrics = sim_layer_metrics(timer, traced_walls, rep_walls[:len(traced_walls)],
                                    traced_accesses, figures)
    else:
        common.detail("sim_run_ms", {"unit": "ms", **common.summarize(run_nominal_ms)})
        common.detail("protocol_ms", {"unit": "ms", **common.summarize(
            [1000.0 * r for r in rep_nominal])})
        metrics = {
            "setup_s": common.metric(common.median(setup_nominal), "s"),
            "peak_rss_mb": common.metric(peak_rss, "MB"),
            "throughput_per_s": common.metric(
                common.median([a / w for a, w in zip(rep_accesses, rep_nominal)]), "1/s"),
            "hot_p50_ms": common.metric(common.quantile(run_nominal_ms, 0.5), "ms"),
            "cold_p50_ms": common.metric(1000.0 * common.quantile(rep_nominal, 0.5), "ms"),
        }
    attempted = len(rep_walls) * len(KERNELS[workload]) + checked
    correct = not errors
    common.result_line(correct, attempted, len(errors), metrics)
    return 0 if correct else 1


def sim_layer_metrics(timer: LayerTimer, traced_walls: List[float],
                      untraced_walls: List[float], accesses: int,
                      figures: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    import perlayer

    reps = len(traced_walls)
    per_rep = {name: s / reps for name, s in timer.self_s.items()}
    calls = {name: c / reps for name, c in timer.calls.items()}
    wall = sum(traced_walls) / reps
    values: Dict[str, float] = {
        "workloads.gen_s": per_rep.get("workloads.gen", 0.0),
        "workloads.decode_s": per_rep.get("workloads.decode", 0.0),
        "tlb.translate_s": per_rep.get("tlb.translate", 0.0),
        "tlb.translate_calls": calls.get("tlb.translate", 0.0),
        "mem.access_batch_s": per_rep.get("mem.access_batch", 0.0),
        "mem.access_batch_calls": calls.get("mem.access_batch", 0.0),
        "mem.ns_per_access": 1e9 * timer.self_s.get("mem.access_batch", 0.0) / accesses,
        "machine.loop_s": per_rep.get("machine.loop", 0.0),
        "core.detect_s": per_rep.get("core.detect", 0.0),
        "core.oracle_s": per_rep.get("core.oracle", 0.0),
        "mapping.solve_s": per_rep.get("mapping.solve", 0.0),
        "experiments.protocol_s": per_rep.get("experiments.protocol", 0.0),
        "unattributed_s": wall - sum(per_rep.values()),
        "protocol_wall_s": wall,
        "trace_overhead_pct": 100.0 * (sum(traced_walls) / sum(untraced_walls) - 1.0),
    }
    values.update(figures)
    return perlayer.complete(values)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--probe-setup":
        probe_setup(sys.argv[2], int(sys.argv[3]))
    raise SystemExit("usage: sim.py --probe-setup <workload> <seed>")
