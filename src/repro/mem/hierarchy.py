"""Two-level cache hierarchy: private write-through L1s over shared L2s.

Mirrors the paper's Table II / Figure 3 machine: each core has a private L1
(write-through, so the L2 always has current data), pairs of cores share a
write-back L2, and the L2s keep each other coherent over a MESI snooping
bus (:class:`~repro.mem.coherence.CoherenceBus`).

The hierarchy enforces *inclusion*: when an L2 line is invalidated or
evicted, the copies in the L1s above it are shot down (the bus's
invalidate hook).  A write by one core also invalidates the line in its
L1 *sibling* (the core sharing the L2) — the intra-pair coherence that
makes same-L2 sharing cheap but not free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mem import resolver
from repro.mem.cache import Cache, CacheConfig, MESIState
from repro.mem.coherence import CoherenceBus, CoherenceStats, InvalidateHook
from repro.mem.interconnect import Interconnect, InterconnectConfig


@dataclass(frozen=True)
class AccessResult:
    """Verbose outcome of a single access (testing/debugging path)."""

    latency: int
    l1_hit: bool
    l2_hit: bool
    served_by: str  # "l1", "l2", "snoop", or "memory"


def _inclusion_shootdown(
    l1s: List[Cache], l2_cores: List[List[int]]
) -> InvalidateHook:
    """Invalidate hook: drop a line from every L1 above the invalidated L2.

    A closure over the caches rather than a bound method, so the bus holds
    no reference back to the hierarchy.
    """

    def hook(l2_id: int, line: int) -> None:
        for core in l2_cores[l2_id]:
            l1s[core].invalidate(line)

    return hook


class MemoryHierarchy:
    """All caches of one machine plus the coherence fabric.

    Args:
        num_cores: number of cores (each gets a private L1).
        core_to_l2: L2 cache id for each core (e.g. ``[0,0,1,1,2,2,3,3]``
            for the Harpertown pairing).
        chip_of_l2: chip/socket id of each L2.
        l1_config / l2_config: cache geometries (paper Table II defaults).
        interconnect: shared traffic model (constructed if omitted).
        memory_latency: DRAM fill cost in cycles.
    """

    def __init__(
        self,
        num_cores: int,
        core_to_l2: Sequence[int],
        chip_of_l2: Sequence[int],
        l1_config: Optional[CacheConfig] = None,
        l2_config: Optional[CacheConfig] = None,
        interconnect: Optional[Interconnect] = None,
        memory_latency: int = 200,
        memory_model: Optional[object] = None,
    ):
        if len(core_to_l2) != num_cores:
            raise ValueError("core_to_l2 must have one entry per core")
        num_l2 = max(core_to_l2) + 1
        if sorted(set(core_to_l2)) != list(range(num_l2)):
            raise ValueError("core_to_l2 must use contiguous L2 ids from 0")
        if len(chip_of_l2) != num_l2:
            raise ValueError(f"chip_of_l2 must have {num_l2} entries")

        self.num_cores = num_cores
        self.core_to_l2 = list(core_to_l2)
        self.l1_config = l1_config or CacheConfig(
            size=32 * 1024, ways=4, line_size=64, latency=2,
            write_back=False, name="L1",
        )
        self.l2_config = l2_config or CacheConfig(
            size=6 * 1024 * 1024, ways=8, line_size=64, latency=8,
            write_back=True, name="L2",
        )
        if self.l1_config.line_size != self.l2_config.line_size:
            raise ValueError("L1 and L2 must use the same line size")
        self._line_shift = self.l1_config.line_size.bit_length() - 1

        self.l1s: List[Cache] = [
            Cache(self.l1_config, owner_id=c) for c in range(num_cores)
        ]
        self.l2s: List[Cache] = [
            Cache(self.l2_config, owner_id=i) for i in range(num_l2)
        ]
        self.bus = CoherenceBus(
            self.l2s,
            chip_of=chip_of_l2,
            interconnect=interconnect or Interconnect(InterconnectConfig()),
            memory_latency=memory_latency,
            memory_model=memory_model,
        )
        # Cores above each L2, for sibling/inclusion shootdowns.
        self._l2_cores: List[List[int]] = [[] for _ in range(num_l2)]
        for core, l2 in enumerate(self.core_to_l2):
            self._l2_cores[l2].append(core)
        self._inclusion_hook = _inclusion_shootdown(self.l1s, self._l2_cores)
        self.bus.add_invalidate_hook(self._inclusion_hook)
        self.l1_sibling_invalidations = 0
        self._l1_lat = self.l1_config.latency  # hot-path hoist
        #: Accesses resolved in bulk (the rest ran on the scalar path).
        self.bulk_accesses = 0
        # Bulk-resolver state: the announced phase, its resolution (not yet
        # committed), call schedule and latencies, and the caches' contents
        # while the resolver holds them as arrays (None: the dicts are
        # current).
        self._pending: Optional[tuple] = None
        self._resolved: Optional[tuple] = None
        self._calls: Optional[List[Tuple[int, int, int]]] = None
        self._call_latency: List[int] = []
        self._call_index = 0
        self._geometry: Optional[resolver.Geometry] = None
        self._deferred: Optional[resolver.DeferredContents] = None

    # -- access paths ------------------------------------------------------------

    def line_of(self, addr: int) -> int:
        """Cache-line number of a (physical or virtual) byte address."""
        return addr >> self._line_shift

    @property
    def line_shift(self) -> int:
        """log2(line size) — the addr→line shift."""
        return self._line_shift

    def access(self, core: int, addr: int, is_write: bool) -> int:
        """Perform one access; returns the latency in cycles.

        The hot path of the whole simulator: a read that hits L1 does one
        dict probe and returns.
        """
        line = addr >> self._line_shift
        l1 = self.l1s[core]
        if is_write:
            # Write-through, no-write-allocate L1: the L1 copy (if any) is
            # updated in place; the write always reaches the L2.
            l1.lookup(line)  # LRU touch + hit/miss accounting
            l2_id = self.core_to_l2[core]
            latency = self._l1_lat + self.bus.write(l2_id, line)
            # Intra-pair coherence: the sibling's L1 copy is now stale.
            for sibling in self._l2_cores[l2_id]:
                if sibling != core:
                    if self.l1s[sibling].invalidate(line) != MESIState.INVALID:
                        self.l1_sibling_invalidations += 1
            return latency
        # Read path (any valid MESI state is truthy).
        if l1.lookup(line):
            return self._l1_lat
        latency = self._l1_lat + self.bus.read(self.core_to_l2[core], line)
        l1.insert(line, MESIState.SHARED)
        return latency

    def begin_phase(
        self,
        addrs: Sequence[np.ndarray],
        writes: Sequence[np.ndarray],
        cores: Sequence[int],
        quantum: int,
        first_round: int = 0,
    ) -> None:
        """Announce the phase the next :meth:`access_batch` calls run.

        ``addrs[t]``/``writes[t]`` are thread ``t``'s stream, run on core
        ``cores[t]`` in rounds of ``quantum`` accesses from round
        ``first_round`` on, threads in index order within a round.  Cheap:
        the phase is resolved lazily by the first :meth:`access_batch`
        call, and :meth:`end_phase` commits it.  A phase still open is
        ended first.
        """
        self.end_phase()
        self._pending = (list(addrs), list(writes), list(cores), int(quantum),
                         int(first_round))

    def end_phase(self) -> None:
        """Commit the open phase's calls that ran, and drop its schedule.

        At a barrier every announced call has run.  Fewer have when the
        placement changes between two rounds (a mid-phase remap): only
        those rounds are resolved again and committed, and the simulator
        announces the rest of the phase on the new placement.
        """
        resolved, self._resolved = self._resolved, None
        ran = self._call_index
        self._pending = None
        self._calls = None
        self._call_latency = []
        self._call_index = 0
        if resolved is None or ran == 0:
            return
        phase, store, trace, coh, lanes = resolved
        if self._contents() is not store:
            raise RuntimeError("cache contents were used inside a resolved phase")
        if ran < len(trace.calls):
            trace, coh, lanes = self._resolve(store, *phase, limit=ran)
        resolver.commit_phase(self, self._geometry, store, trace, coh, lanes)
        self.bulk_accesses += len(trace.line)

    def access_batch(
        self,
        core: int,
        lines: Sequence[int],
        writes: Sequence[bool],
        start: int,
        end: int,
    ) -> int:
        """Perform accesses ``start..end`` of one core's stream; returns the
        summed latency in cycles.

        Within a phase announced by :meth:`begin_phase` the first call
        resolves the *whole phase* in bulk (:mod:`repro.mem.resolver`),
        and each call — which must follow the announced schedule —
        returns its precomputed latency; :meth:`end_phase` commits every
        cache's final state and every counter.  Phases the resolver
        refuses (a non-UMA memory model, invalidate hooks other than the
        hierarchy's own, a possible L2 eviction), and calls outside an
        announced phase, run access by access on the scalar reference
        path :meth:`access`.  Either way the outcome is bit-identical to
        ``end - start`` calls of :meth:`access`.
        """
        calls = self._calls
        if calls is None and self._pending is not None:
            calls = self._calls = self._resolve_pending()
        if calls is not None:
            i = self._call_index
            if i >= len(calls) or calls[i] != (core, start, end):
                raise RuntimeError(
                    f"access_batch({core}, {start}, {end}) does not follow "
                    "the announced phase schedule"
                )
            self._call_index = i + 1
            return self._call_latency[i]
        access = self.access
        shift = self._line_shift
        total = 0
        for line, w in zip(lines[start:end], writes[start:end]):
            total += access(core, line << shift, w)
        return total

    def _bulk_allowed(self) -> bool:
        """Phase-independent preconditions of the bulk resolver."""
        bus = self.bus
        return (
            bus.memory_model is None
            and bus.invalidate_hooks == [self._inclusion_hook]
            and type(bus.interconnect) is Interconnect
            and len(self.l2s) <= resolver.MAX_DOMAINS
        )

    def _resolve_pending(self) -> Optional[List[Tuple[int, int, int]]]:
        """Resolve the announced phase; its call schedule, None when refused."""
        phase, self._pending = self._pending, None
        if not self._bulk_allowed():
            return None
        geom = self._geometry
        if geom is None:
            geom = self._geometry = resolver.Geometry.of(self)
        store = self._contents()
        if store is None:
            self._deferred = resolver.DeferredContents(
                self.l1s + self.l2s, geom, resolver.export_contents(self, geom)
            )
            store = self._deferred.store
        resolved = self._resolve(store, *phase)
        if resolved is None:
            self._deferred.materialize()
            return None
        trace, coh, lanes = resolved
        self._resolved = (phase, store, trace, coh, lanes)
        self._call_latency = resolver.call_latencies(geom, trace, coh, lanes)
        self._call_index = 0
        return trace.calls

    def _resolve(
        self,
        store: resolver.CacheArrays,
        addrs: List[np.ndarray],
        writes: List[np.ndarray],
        cores: List[int],
        quantum: int,
        first_round: int,
        limit: Optional[int] = None,
    ) -> Optional[tuple]:
        """Stages 1 and 2 over the phase's first ``limit`` calls (all when
        None); None when an L2 set could overflow."""
        geom = self._geometry
        shift = self._line_shift
        trace = resolver.schedule(
            geom, store, [a >> shift for a in addrs], writes, cores, quantum,
            first_round, limit,
        )
        if not resolver.fits_l2(geom, store, trace):
            return None
        coh = resolver.resolve_coherence(geom, trace, self.bus.memory_latency)
        lanes = resolver.resolve_l1(
            geom, store, trace, coh, [c._clock for c in self.l1s]
        )
        return trace, coh, lanes

    def _contents(self) -> Optional[resolver.CacheArrays]:
        """The resolver's arrays, or None when the cache dicts are current."""
        deferred = self._deferred
        return deferred.store if deferred is not None else None

    def access_verbose(self, core: int, addr: int, is_write: bool) -> AccessResult:
        """Like :meth:`access` but reports where the data came from (tests)."""
        line = addr >> self._line_shift
        l1_hit = self.l1s[core].probe(line) != MESIState.INVALID
        l2_id = self.core_to_l2[core]
        l2_hit = self.l2s[l2_id].probe(line) != MESIState.INVALID
        others = [
            cid for cid in range(len(self.l2s))
            if cid != l2_id and self.l2s[cid].probe(line) != MESIState.INVALID
        ]
        latency = self.access(core, addr, is_write)
        if not is_write and l1_hit:
            served = "l1"
        elif l2_hit:
            served = "l2"
        elif others:
            served = "snoop"
        else:
            served = "memory"
        return AccessResult(latency=latency, l1_hit=l1_hit, l2_hit=l2_hit, served_by=served)

    # -- statistics ----------------------------------------------------------------

    @property
    def stats(self) -> CoherenceStats:
        """Protocol counters (invalidations, snoops, L2 misses...)."""
        return self.bus.stats

    @property
    def interconnect(self) -> Interconnect:
        return self.bus.interconnect

    def l1_miss_rate(self) -> float:
        """Aggregate L1 miss rate across cores."""
        hits = sum(c.stats.hits for c in self.l1s)
        misses = sum(c.stats.misses for c in self.l1s)
        total = hits + misses
        return misses / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero all counters; cache *contents* are preserved."""
        for c in self.l1s + self.l2s:
            c.stats.__init__()
        self.bus.reset_stats()
        self.l1_sibling_invalidations = 0

    def flush_all(self) -> None:
        """Empty every cache (between independent runs)."""
        self.end_phase()
        if self._contents() is not None:
            self._deferred.drop()
            self._deferred = None
            return
        for c in self.l1s + self.l2s:
            c.flush()
