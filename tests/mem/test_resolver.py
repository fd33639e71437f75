"""The bulk phase resolver against the scalar reference, state for state.

``tests/machine/test_engine_differential.py`` compares what a run
*reports*; these tests compare what it *leaves behind*: every cache's
sets in LRU order with ``[state, stamp]``, its clock and stats, the
protocol and interconnect counters (``by_kind`` in insertion order).
They also force each reason the resolver refuses a phase and check the
refused phases take the scalar path and stay bit-identical, and drive
random phases straight through ``begin_phase``/``access_batch``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.simulator import SimConfig, Simulator
from repro.machine.system import System, SystemConfig
from repro.machine.topology import harpertown
from repro.mem import resolver
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.numa import NUMAConfig
from repro.obs.metrics import global_registry
from repro.workloads import (
    AllToAllWorkload,
    FalseSharingWorkload,
    NearestNeighborWorkload,
    make_npb_workload,
)


def cache_state(cache):
    """Everything observable about one cache, sets in LRU order."""
    sets = {}
    for index, line, entry in cache.entries():
        sets.setdefault(index, []).append((line, list(entry)))
    return sets, cache._clock, dataclasses.asdict(cache.stats)


def hierarchy_state(h):
    ic = h.interconnect.stats
    return (
        [cache_state(c) for c in h.l1s + h.l2s],
        dataclasses.asdict(h.stats),
        dataclasses.asdict(ic),
        list(ic.by_kind),
        h.l1_sibling_invalidations,
    )


def run_both(make_workload, make_system=lambda: System(harpertown()),
             prepare=lambda system: None, **run_kwargs):
    """Run scalar then batched; return (results, final states, batched system)."""
    out = {}
    for engine in ("scalar", "batched"):
        system = make_system()
        prepare(system)
        sim = Simulator(system, SimConfig(engine=engine, quantum=64))
        result = sim.run(make_workload(), **run_kwargs)
        out[engine] = (dataclasses.asdict(result),
                       hierarchy_state(system.hierarchy), system)
    return out


def assert_same(out):
    (ra, sa, _), (rb, sb, _) = out["scalar"], out["batched"]
    assert ra == rb
    assert sa == sb


WORKLOADS = {
    "sp": lambda: make_npb_workload("sp", num_threads=8, scale=0.06, seed=3),
    "lu": lambda: make_npb_workload("lu", num_threads=8, scale=0.06, seed=3),
    "nearest": lambda: NearestNeighborWorkload(num_threads=8, seed=5),
    "false-sharing": lambda: FalseSharingWorkload(num_threads=8, seed=5),
    "all-to-all": lambda: AllToAllWorkload(num_threads=8, seed=5),
}


class TestFinalState:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_caches_match_scalar(self, name):
        out = run_both(WORKLOADS[name], mapping=[0, 2, 4, 6, 1, 3, 5, 7])
        assert_same(out)
        system = out["batched"][2]
        assert system.hierarchy.bulk_accesses == out["batched"][0]["accesses"]

    def test_runs_without_reset_carry_array_state(self):
        """A second run on warm caches starts from the resolver's arrays."""
        states = {}
        for engine in ("scalar", "batched"):
            system = System(harpertown())
            sim = Simulator(system, SimConfig(engine=engine))
            first = sim.run(WORKLOADS["nearest"]())
            second = sim.run(WORKLOADS["false-sharing"](), reset=False)
            states[engine] = (dataclasses.asdict(first),
                              dataclasses.asdict(second),
                              hierarchy_state(system.hierarchy))
        assert states["scalar"] == states["batched"]

    def test_reset_after_bulk_run_is_cold(self):
        system = System(harpertown())
        sim = Simulator(system, SimConfig(engine="batched"))
        sim.run(WORKLOADS["sp"]())
        system.reset()
        assert all(c.occupancy() == 0 for c in system.hierarchy.l2s)
        assert all(c.occupancy() == 0 for c in system.hierarchy.l1s)

    def test_scalar_access_after_bulk_phase_sees_final_state(self):
        """Direct per-access use after a bulk run rebuilds the dicts first."""
        out = {}
        for engine in ("scalar", "batched"):
            system = System(harpertown())
            Simulator(system, SimConfig(engine=engine)).run(WORKLOADS["lu"]())
            h = system.hierarchy
            lat = [h.access(c, 64 * line, line % 3 == 0)
                   for c in range(8) for line in range(0, 4096, 97)]
            out[engine] = (lat, hierarchy_state(h))
        assert out["scalar"] == out["batched"]


class _TickController:
    """Consulted mid-phase; swaps thread pairs at the ticks in ``remap_at``."""

    tick_interval_cycles = 5_000

    def __init__(self, remap_at=()):
        self.remap_at = set(remap_at)
        self.ticks = 0
        self.mapping = list(range(8))

    def on_tick(self, now_cycles):
        self.ticks += 1
        if self.ticks not in self.remap_at:
            return None
        m = self.mapping
        self.mapping = [m[t ^ 1] for t in range(8)]
        return self.mapping

    def on_phase_end(self, phase_index, now_cycles):
        return None


class TestTicks:
    """A tick controller's phases resolve in bulk, up to each remap."""

    def test_ticks_without_remap(self):
        out = run_both(WORKLOADS["nearest"],
                       migration_controller=_TickController())
        assert_same(out)
        result = out["batched"][0]
        assert out["batched"][2].hierarchy.bulk_accesses == result["accesses"]

    @pytest.mark.parametrize("name", ["sp", "false-sharing"])
    def test_mid_phase_remaps(self, name, monkeypatch):
        limits = []
        schedule = resolver.schedule

        def recording(*args):
            limits.append(args[-1])
            return schedule(*args)

        monkeypatch.setattr(resolver, "schedule", recording)
        out = {}
        for engine in ("scalar", "batched"):
            system = System(harpertown())
            controller = _TickController(remap_at=(1, 2, 4))
            result = Simulator(system, SimConfig(engine=engine, quantum=64)).run(
                WORKLOADS[name](), migration_controller=controller)
            out[engine] = (dataclasses.asdict(result),
                           hierarchy_state(system.hierarchy), system)
        assert_same(out)
        result = out["batched"][0]
        assert result["migrations"] == 3
        assert out["batched"][2].hierarchy.bulk_accesses == result["accesses"]
        # Some remap cut a resolved phase short: its prefix was re-resolved.
        assert any(limit is not None for limit in limits)


class TestRefusals:
    """Each refusal takes the scalar path and stays bit-identical."""

    def test_possible_l2_eviction(self):
        out = run_both(
            WORKLOADS["sp"],
            make_system=lambda: System(harpertown(cache_scale=1 / 64)),
        )
        assert_same(out)
        system = out["batched"][2]
        assert system.hierarchy.bulk_accesses < out["batched"][0]["accesses"]
        assert sum(c.stats.evictions for c in system.hierarchy.l2s) > 0

    def test_first_touch_numa(self):
        out = run_both(WORKLOADS["nearest"], make_system=lambda: System(
            harpertown(), SystemConfig(numa=NUMAConfig(
                local_latency=180, remote_penalty=120))))
        assert_same(out)
        assert out["batched"][2].hierarchy.bulk_accesses == 0

    def test_foreign_invalidate_hook(self):
        seen = {}

        def prepare(system):
            events = seen.setdefault(len(seen), [])
            system.hierarchy.bus.add_invalidate_hook(
                lambda cid, line: events.append((cid, line)))

        out = run_both(WORKLOADS["lu"], prepare=prepare)
        assert_same(out)
        assert out["batched"][2].hierarchy.bulk_accesses == 0
        assert seen[0] and seen[0] == seen[1]


class TestPathCounter:
    def test_registry_counts_accesses_by_path(self):
        reg = global_registry()
        bulk = reg.counter("sim_path_accesses_total", {"path": "bulk"})
        scalar = reg.counter("sim_path_accesses_total", {"path": "scalar"})
        b0, s0 = bulk.value, scalar.value
        res = Simulator(System(harpertown()),
                        SimConfig(engine="batched")).run(WORKLOADS["lu"]())
        assert bulk.value - b0 == res.accesses
        assert scalar.value == s0
        res = Simulator(System(harpertown()),
                        SimConfig(engine="scalar")).run(WORKLOADS["lu"]())
        assert bulk.value - b0 == res.accesses
        assert scalar.value - s0 == res.accesses


# -- random phases straight through the hierarchy --------------------------------


def tiny_hierarchy(l2_sets, l2_ways):
    """Eight cores in pairs on four L2s over two chips; a 2-way, 4-set L1."""
    return MemoryHierarchy(
        num_cores=8,
        core_to_l2=[c // 2 for c in range(8)],
        chip_of_l2=[0, 0, 1, 1],
        l1_config=CacheConfig(size=64 * 2 * 4, ways=2, line_size=64,
                              latency=2, name="L1"),
        l2_config=CacheConfig(size=64 * l2_ways * l2_sets, ways=l2_ways,
                              line_size=64, latency=8, write_back=True,
                              name="L2"),
    )


def drive_phase(h, lines, writes, cores, quantum, bulk, remap=None):
    """Run one phase in the simulator's order; per-call latencies.

    ``remap = (rounds, cores)`` moves the threads onto ``cores`` after that
    many rounds, the way a tick controller does.
    """
    seqs = [(lv.tolist(), wv.tolist()) for lv, wv in zip(lines, writes)]
    addrs = [lv << 6 for lv in lines]
    if bulk:
        h.begin_phase(addrs, writes, cores, quantum)
    latencies = []
    pos = [0] * len(lines)
    active = [t for t in range(len(lines)) if len(lines[t])]
    rounds = 0
    while active:
        rounds += 1
        for t in active[:]:
            start, n = pos[t], len(lines[t])
            end = min(start + quantum, n)
            if bulk:
                latencies.append(h.access_batch(cores[t], *seqs[t], start, end))
            else:
                latencies.append(sum(
                    h.access(cores[t], line << 6, w)
                    for line, w in zip(seqs[t][0][start:end],
                                       seqs[t][1][start:end])))
            pos[t] = end
            if end == n:
                active.remove(t)
        if remap is not None and rounds == remap[0]:
            cores = remap[1]
            if bulk:
                h.begin_phase(addrs, writes, cores, quantum, rounds)
    if bulk:
        h.end_phase()
    return latencies


class TestPhaseProtocol:
    def test_cache_use_inside_a_resolved_phase_is_an_error(self):
        """Reading a cache before ``end_phase`` would see the start state
        and detach it from the commit: refuse instead of losing it."""
        h = tiny_hierarchy(1024, 8)
        lines = np.arange(1000, 1010, dtype=np.int64)
        h.begin_phase([lines << 6], [np.zeros(10, dtype=bool)], [0], 4)
        h.access_batch(0, lines.tolist(), [False] * 10, 0, 4)
        list(h.l1s[0].entries())
        with pytest.raises(RuntimeError, match="inside a resolved phase"):
            h.end_phase()

    def test_calls_must_follow_the_schedule(self):
        h = tiny_hierarchy(1024, 8)
        lines = np.arange(1000, 1010, dtype=np.int64)
        h.begin_phase([lines << 6], [np.zeros(10, dtype=bool)], [0], 4)
        with pytest.raises(RuntimeError, match="announced phase schedule"):
            h.access_batch(1, lines.tolist(), [False] * 10, 0, 4)


@st.composite
def phases(draw):
    """1-3 phases of up to 8 threads over a small shared line pool, each
    phase on its own placement (a remap at every barrier), some moved to
    another placement between two rounds."""
    threads = draw(st.integers(min_value=1, max_value=8))
    pool = draw(st.integers(min_value=2, max_value=48))
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        cores = list(draw(st.permutations(range(8)))[:threads])
        lines, writes = [], []
        for _ in range(threads):
            n = draw(st.integers(min_value=0, max_value=60))
            lines.append(np.array(draw(st.lists(
                st.integers(min_value=0, max_value=pool), min_size=n,
                max_size=n)), dtype=np.int64) + 1000)
            writes.append(np.array(draw(st.lists(
                st.booleans(), min_size=n, max_size=n)), dtype=bool))
        remap = draw(st.none() | st.tuples(
            st.integers(min_value=1, max_value=6),
            st.permutations(range(8)).map(lambda p: list(p[:threads]))))
        out.append((lines, writes, cores, remap))
    quantum = draw(st.sampled_from([1, 3, 7, 64]))
    return out, quantum


class TestRandomPhases:
    @settings(max_examples=60, deadline=None)
    @given(case=phases())
    def test_tiny_l1_large_l2_identical(self, case):
        """Heavy sharing, 2-way 4-set L1s: lanes see constant removals."""
        workload, quantum = case
        ref, bulk = tiny_hierarchy(1024, 8), tiny_hierarchy(1024, 8)
        for lines, writes, cores, remap in workload:
            expected = drive_phase(ref, lines, writes, cores, quantum, False, remap)
            got = drive_phase(bulk, lines, writes, cores, quantum, True, remap)
            assert got == expected
        assert hierarchy_state(bulk) == hierarchy_state(ref)
        assert bulk.bulk_accesses == sum(
            len(x) for lines, _, _, _ in workload for x in lines)

    @settings(max_examples=60, deadline=None)
    @given(case=phases(), l2_sets=st.sampled_from([2, 4, 16]),
           l2_ways=st.sampled_from([2, 4]))
    def test_admitted_phases_never_evict(self, case, l2_sets, l2_ways):
        """Small L2s: phases the precondition admits show no L2 eviction
        on the scalar path, and refused phases still match it."""
        workload, quantum = case
        ref, bulk = tiny_hierarchy(l2_sets, l2_ways), tiny_hierarchy(l2_sets, l2_ways)
        for lines, writes, cores, remap in workload:
            evictions = sum(c.stats.evictions for c in ref.l2s)
            admitted = bulk.bulk_accesses
            expected = drive_phase(ref, lines, writes, cores, quantum, False, remap)
            got = drive_phase(bulk, lines, writes, cores, quantum, True, remap)
            assert got == expected
            # A remap splits the phase in two, each admitted or refused on
            # its own; a wholly admitted phase must not evict.
            if bulk.bulk_accesses - admitted == sum(len(x) for x in lines):
                assert sum(c.stats.evictions for c in ref.l2s) == evictions
        assert hierarchy_state(bulk) == hierarchy_state(ref)
