"""Bulk phase resolver: one phase's cache outcomes from a few numpy passes.

The batched engine does not step the caches one access at a time.  Within
a barrier-delimited phase the simulator's schedule is fixed before any
access runs — access ``j`` of thread ``t`` executes at global key
``(j // quantum, t, j)`` — and nothing but the caches reads or writes the
cache state (TLBs, detectors and noise never touch it).  So the phase's
every latency, every counter and the final state of every cache follow
from the start state, the streams, the mapping and the quantum, and are
computed in three stages, each a separately named function:

1. :func:`resolve_coherence` — the shared L2s and MESI.  Without L2
   evictions a line leaves an L2 only by invalidation, so its holder set
   is "every domain that touched the line since the last write" (the
   writer included), seeded by the phase's start state: a segmented
   OR-scan over the accesses sorted by (line, time).  L1 read hits never
   change L2 state, so this stage needs no L1 outcome.
2. :func:`resolve_l1` — the private L1s as independent *lanes*, one per
   ``(core, L1 set)``.  A lane's events are its core's own accesses plus
   removals: inclusion shootdowns from stage 1's invalidations and
   sibling writes.  All lanes step together, one event per lane per step.
3. :func:`commit_phase` — L2 LRU stamps (which need the L1 outcome: only
   L1 read misses reach the L2), every counter and the new array state;
   :func:`call_latencies` gives each ``access_batch`` call's latency.

Between bulk phases the caches' contents live in a :class:`CacheArrays`
store; the :class:`~repro.mem.cache.Cache` dicts are rebuilt from it only
when something reads them (:func:`cache_entries`).

The hierarchy checks the phase-independent preconditions (UMA memory, no
foreign invalidate hooks, the stock interconnect); :func:`fits_l2` checks
the per-phase one: resident plus new distinct lines per L2 set within the
associativity, so no L2 eviction can happen.  A refused phase runs on the
scalar reference path.

A phase is committed when it ends, not when it is resolved.  A tick
controller may remap threads between two rounds; that ends the phase
early: only the rounds that ran are resolved again and committed
(:func:`schedule` takes the first round and a call limit), and the
remaining rounds are announced on the new placement.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mem.cache import Cache, Entry

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.hierarchy import MemoryHierarchy

#: Stamp of an empty L1 way: below every real stamp, so the LRU victim
#: search picks an empty way first.
EMPTY = np.iinfo(np.int64).min // 2
#: MESI states as stored in the arrays (same values as ``MESIState``).
S, E, M = 1, 2, 3
#: Most L2s a holder bitmask can carry.
MAX_DOMAINS = 62


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Permutation sorting non-negative ``keys`` stably.

    Keys below 2**15 take numpy's radix sort; larger ones sort
    ``key * n + index`` (unique values), which beats numpy's stable sort
    several times over; keys too large for that take the stable sort.
    """
    n = len(keys)
    top = int(keys.max()) if n else 0
    if top < 1 << 15:
        return np.argsort(keys.astype(np.int16), kind="stable")  # radix sort
    if top < np.iinfo(np.int64).max // (n + 1):
        return np.sort(keys.astype(np.int64) * n
                       + np.arange(n, dtype=np.int64)) % n
    return np.argsort(keys, kind="stable")


#: A line's row in :class:`CacheArrays` lives in its page's block of
#: ``1 << PAGE_BITS`` rows.
PAGE_BITS = 6


@dataclass
class CacheArrays:
    """Every cache's contents while the resolver holds them.

    The L2 state is a table with one row per line of every page touched so
    far, in blocks of ``1 << PAGE_BITS`` rows: page ``pages[i]`` (sorted)
    owns block ``block_of[i]``, whose page is ``block_page[block]``.  Line
    ``x``'s row is held by the L2s in bitmask ``holders[row]``; a sole
    holder is in state ``kind[row]`` (SHARED, EXCLUSIVE or MODIFIED),
    several holders are all SHARED — the MESI invariant makes that the
    whole L2 state.  ``stamp[row, d]`` is its LRU stamp in L2 ``d``, and
    ``occupancy[d, s]`` counts L2 ``d``'s lines in set ``s``.  L1 lane
    ``core * l1_sets + set`` holds lines ``l1_tag[lane]`` (-1: empty way)
    with stamps ``l1_stamp[lane]``; L1 lines are always SHARED.
    """

    pages: np.ndarray
    block_of: np.ndarray
    block_page: np.ndarray
    holders: np.ndarray
    kind: np.ndarray
    stamp: np.ndarray
    occupancy: np.ndarray
    l1_tag: np.ndarray
    l1_stamp: np.ndarray

    @classmethod
    def empty(cls, geom: "Geometry") -> "CacheArrays":
        """Contents of caches that hold nothing."""
        lanes = geom.num_cores * geom.l1_sets
        none = np.zeros(0, dtype=np.int64)
        return cls(
            pages=none, block_of=none, block_page=none,
            holders=none, kind=np.zeros(0, dtype=np.int8),
            stamp=np.zeros((0, geom.num_l2), dtype=np.int64),
            occupancy=np.zeros((geom.num_l2, geom.l2_sets), dtype=np.int64),
            l1_tag=np.full((lanes, geom.l1_ways), -1, dtype=np.int64),
            l1_stamp=np.full((lanes, geom.l1_ways), EMPTY, dtype=np.int64),
        )

    def rows_of(self, lines: np.ndarray) -> np.ndarray:
        """Rows of sorted distinct ``lines``, adding blocks for new pages."""
        page = lines >> PAGE_BITS
        first = np.ones(len(page), dtype=bool)
        np.not_equal(page[1:], page[:-1], out=first[1:])
        distinct = page[first]
        at = np.searchsorted(self.pages, distinct)
        known = at < len(self.pages)
        known[known] = self.pages[at[known]] == distinct[known]
        fresh = np.flatnonzero(~known)
        if len(fresh):
            used = len(self.pages)
            blocks = used + np.arange(len(fresh), dtype=np.int64)
            self._reserve(used + len(fresh))
            self.block_page[blocks] = distinct[fresh]
            self.pages = np.insert(self.pages, at[fresh], distinct[fresh])
            self.block_of = np.insert(self.block_of, at[fresh], blocks)
            at = np.searchsorted(self.pages, distinct)
        block = self.block_of[at][np.cumsum(first) - 1]
        return (block << PAGE_BITS) | (lines & ((1 << PAGE_BITS) - 1))

    def _reserve(self, blocks: int) -> None:
        """Grow the row arrays to at least ``blocks`` blocks (doubling)."""
        have = len(self.block_page)
        if blocks <= have:
            return
        grow = max(2 * blocks, 64) - have
        rows = grow << PAGE_BITS
        self.block_page = np.concatenate(
            [self.block_page, np.zeros(grow, dtype=np.int64)])
        self.holders = np.concatenate(
            [self.holders, np.zeros(rows, dtype=np.int64)])
        self.kind = np.concatenate([self.kind, np.zeros(rows, dtype=np.int8)])
        self.stamp = np.concatenate(
            [self.stamp, np.zeros((rows, self.stamp.shape[1]), dtype=np.int64)])

    def line_of(self, rows: np.ndarray) -> np.ndarray:
        """The lines stored in ``rows``."""
        return (self.block_page[rows >> PAGE_BITS] << PAGE_BITS) | (
            rows & ((1 << PAGE_BITS) - 1))


@dataclass(frozen=True)
class Geometry:
    """The hierarchy's fixed shape and costs."""

    num_cores: int
    num_l2: int
    core_to_l2: np.ndarray      # (num_cores,) int8
    l2_cores: Tuple[Tuple[int, ...], ...]
    bit: np.ndarray             # (num_l2,) each L2's holder bit
    same_chip: np.ndarray       # (num_l2,) holder bits of the L2s on each one's chip
    l1_sets: int
    l1_ways: int
    l2_sets: int
    l2_ways: int
    l1_lat: int
    l2_lat: int
    line_size: int
    intra_lat: int
    inter_lat: int
    intra_inv: int
    inter_inv: int

    @classmethod
    def of(cls, h: "MemoryHierarchy") -> "Geometry":
        """Read the shape and costs off a hierarchy."""
        chip = h.bus.chip_of
        ic = h.bus.interconnect.config
        nd = len(h.l2s)
        # The narrowest unsigned type that holds a holder bitmask.
        mask = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                    if np.iinfo(t).bits >= nd)
        return cls(
            num_cores=h.num_cores,
            num_l2=nd,
            core_to_l2=np.asarray(h.core_to_l2, dtype=np.int8),
            l2_cores=tuple(tuple(c) for c in h._l2_cores),
            bit=np.asarray([1 << d for d in range(nd)], dtype=mask),
            same_chip=np.asarray(
                [sum(1 << o for o in range(nd) if chip[o] == chip[d])
                 for d in range(nd)],
                dtype=mask,
            ),
            l1_sets=h.l1_config.num_sets,
            l1_ways=h.l1_config.ways,
            l2_sets=h.l2_config.num_sets,
            l2_ways=h.l2_config.ways,
            l1_lat=h.l1_config.latency,
            l2_lat=h.l2_config.latency,
            line_size=h.bus._line_size,
            intra_lat=ic.intra_chip_latency,
            inter_lat=ic.inter_chip_latency,
            intra_inv=ic.intra_chip_invalidate_latency,
            inter_inv=ic.inter_chip_invalidate_latency,
        )


def export_contents(h: "MemoryHierarchy", geom: Geometry) -> CacheArrays:
    """Read every cache's dicts into a :class:`CacheArrays` (O(resident))."""
    store = CacheArrays.empty(geom)
    entries = [
        (line, d, st, sp)
        for d, cache in enumerate(h.l2s)
        for _, line, (st, sp) in cache.entries()
    ]
    if entries:
        line, dom, state, stamp = (np.array(col, dtype=np.int64)
                                   for col in zip(*entries))
        uniq, inverse = np.unique(line, return_inverse=True)
        rows = store.rows_of(uniq)[inverse]
        np.bitwise_or.at(store.holders, rows, np.int64(1) << dom)
        store.kind[rows] = np.where(
            np.bincount(inverse, minlength=len(uniq))[inverse] > 1, S, state)
        store.stamp[rows, dom] = stamp
        for d in range(geom.num_l2):
            mine = dom == d
            store.occupancy[d] = np.bincount(line[mine] % geom.l2_sets,
                                             minlength=geom.l2_sets)
    for c, cache in enumerate(h.l1s):
        way = 0
        last = -1
        for index, line, (_st, sp) in cache.entries():
            way = way + 1 if index == last else 0
            last = index
            store.l1_tag[c * geom.l1_sets + index, way] = line
            store.l1_stamp[c * geom.l1_sets + index, way] = sp
    return store


def cache_entries(geom: Geometry, store: CacheArrays) -> List[List[Entry]]:
    """Entries of every L1 then every L2, each set's in LRU order."""
    maps: List[List[Entry]] = []
    tag = store.l1_tag.reshape(geom.num_cores, geom.l1_sets * geom.l1_ways)
    sp = store.l1_stamp.reshape(tag.shape)
    for c in range(geom.num_cores):
        valid = np.flatnonzero(tag[c] >= 0)
        valid = valid[np.argsort(sp[c, valid], kind="stable")]
        maps.append([
            (index, line, [S, stamp])
            for index, line, stamp in zip((valid // geom.l1_ways).tolist(),
                                          tag[c, valid].tolist(),
                                          sp[c, valid].tolist())
        ])
    shared = np.bitwise_count(store.holders) > 1
    for d in range(geom.num_l2):
        rows = np.flatnonzero((store.holders >> d) & 1)
        rows = rows[np.argsort(store.stamp[rows, d], kind="stable")]
        lines = store.line_of(rows)
        maps.append([
            (index, line, [st, stamp])
            for index, line, st, stamp in zip(
                (lines % geom.l2_sets).tolist(), lines.tolist(),
                np.where(shared[rows], S, store.kind[rows]).tolist(),
                store.stamp[rows, d].tolist())
        ])
    return maps


class DeferredContents:
    """The caches' contents while the resolver holds them as arrays.

    Each cache defers to :meth:`materialize`, which rebuilds every cache's
    dicts on the first touch of any one of them.  The caches are held
    weakly and nothing here refers to the hierarchy, so no reference
    cycle keeps a dropped machine's arrays alive until the garbage
    collector happens to run.
    """

    def __init__(self, caches: Sequence[Cache], geom: Geometry,
                 store: CacheArrays):
        self.geom = geom
        self.store: Optional[CacheArrays] = store
        self._caches = [weakref.ref(c) for c in caches]
        for cache in caches:
            cache.defer_contents(self.materialize)

    def materialize(self) -> None:
        """Hand the contents back to the caches as dicts."""
        store, self.store = self.store, None
        if store is None:
            return
        for ref, entries in zip(self._caches, cache_entries(self.geom, store)):
            cache = ref()
            if cache is not None:
                cache.restore_contents(entries)

    def drop(self) -> None:
        """Forget the contents: every cache restarts empty, in O(1)."""
        self.store = None
        for ref in self._caches:
            cache = ref()
            if cache is not None:
                cache.restore_contents(())


# -- the phase's schedule ---------------------------------------------------------


@dataclass
class PhaseTrace:
    """One phase's accesses in global execution order.

    ``calls`` lists the simulator's ``access_batch`` calls in the order it
    makes them, as ``(core, start, end)``; ``bounds[i]`` is call ``i``'s
    first access in the global order (``sizes[i]`` accesses).
    ``by_line`` orders the accesses by (line, time); ``lid`` is each
    access's index into the sorted distinct lines ``uniq``.
    """

    line: np.ndarray
    write: np.ndarray
    core: np.ndarray
    dom: np.ndarray
    calls: List[Tuple[int, int, int]]
    bounds: np.ndarray
    sizes: np.ndarray
    by_line: np.ndarray
    uniq: np.ndarray
    lid: np.ndarray
    rows: np.ndarray            # per distinct line: its store row
    start_holders: np.ndarray   # per distinct line
    start_kind: np.ndarray


def schedule(geom: Geometry, store: CacheArrays, lines: Sequence[np.ndarray],
             writes: Sequence[np.ndarray], cores: Sequence[int],
             quantum: int, first_round: int = 0,
             limit: Optional[int] = None) -> PhaseTrace:
    """Interleave the threads' streams the way the simulator runs them:
    round by round from ``first_round``, threads in index order,
    ``quantum`` accesses each; only the first ``limit`` calls when given."""
    pieces = sorted(
        (start // quantum, t, start, min(start + quantum, len(arr)))
        for t, arr in enumerate(lines)
        for start in range(first_round * quantum, len(arr), quantum)
    )[:limit]
    calls = [(cores[t], a, b) for _, t, a, b in pieces]
    sizes = np.array([b - a for _, _, a, b in pieces], dtype=np.int64)
    bounds = np.zeros(len(pieces), dtype=np.int64)
    np.cumsum(sizes[:-1], out=bounds[1:])
    line = np.concatenate([lines[t][a:b] for _, t, a, b in pieces])
    write = np.concatenate([writes[t][a:b] for _, t, a, b in pieces])
    core = np.repeat(np.array([cores[t] for _, t, _, _ in pieces],
                              dtype=np.int64), sizes)
    base = int(line.min())
    by_line = _stable_order(line - base)
    sorted_line = line[by_line]
    new_line = np.ones(len(line), dtype=bool)
    np.not_equal(sorted_line[1:], sorted_line[:-1], out=new_line[1:])
    uniq = sorted_line[new_line]
    lid = np.empty(len(line), dtype=np.int32)
    lid[by_line] = np.cumsum(new_line, dtype=np.int32) - 1
    rows = store.rows_of(uniq)
    return PhaseTrace(line, write, core, geom.core_to_l2[core], calls, bounds,
                      sizes, by_line, uniq, lid, rows,
                      store.holders[rows].astype(geom.bit.dtype),
                      store.kind[rows])


def _running_clock(trace: PhaseTrace, groups: Sequence[int],
                   ticks: np.ndarray, clocks: Sequence[int]) -> np.ndarray:
    """Each access's clock after its ticks: ``clocks[g]`` plus the running
    sum of ``ticks`` over earlier accesses of the same group ``g``.

    ``groups[i]`` is the group (a core or an L2) of call ``i``; a call's
    accesses are contiguous in the global order, so one global running sum
    plus a per-call offset gives every group's clock.
    """
    run = np.cumsum(ticks)
    ends = run[trace.bounds + trace.sizes - 1].tolist()
    clock = [int(c) for c in clocks]
    offset = []
    before = 0
    for g, end in zip(groups, ends):
        offset.append(clock[g] - before)
        clock[g] += end - before
        before = end
    return run + np.repeat(np.array(offset, dtype=np.int64), trace.sizes)


def fits_l2(geom: Geometry, store: CacheArrays, trace: PhaseTrace) -> bool:
    """True when no L2 set can overflow: per L2 and set, the lines
    resident at the start plus the new distinct lines the L2 touches stay
    within the associativity."""
    for d in range(geom.num_l2):
        touched = np.zeros(len(trace.uniq), dtype=bool)
        touched[trace.lid[trace.dom == d]] = True
        new = np.flatnonzero(touched & ((trace.start_holders & geom.bit[d]) == 0))
        if not len(new):
            continue
        need = np.bincount(trace.uniq[new] % geom.l2_sets,
                           minlength=geom.l2_sets)
        if int((need + store.occupancy[d]).max()) > geom.l2_ways:
            return False
    return True


# -- stage 1: coherence ------------------------------------------------------------


@dataclass
class Coherence:
    """Stage 1's outcome.

    Per access in global order: ``has_line`` (the access's L2 held the
    line: an L2 hit), ``deep_lat`` (latency beyond the L1 when the access
    reaches the L2) and ``inv_mask`` (L2s it invalidated).  Per distinct
    line: the final ``holders``/``kind``.  The rest are phase totals.
    """

    has_line: np.ndarray
    deep_lat: np.ndarray
    inv_mask: np.ndarray
    holders: np.ndarray
    kind: np.ndarray
    l2_misses: np.ndarray       # per L2
    invalidated: np.ndarray     # per L2
    snoops: int
    memory_fetches: int
    upgrades: int
    writebacks: int
    transfers: Tuple[int, int]  # (on chip, across chips), snoop + rfo
    invalidates: Tuple[int, int]  # upgrade invalidate messages
    first_use: Dict[str, Tuple[int, int]]  # kind -> (first access, count)


def resolve_coherence(geom: Geometry, trace: PhaseTrace,
                      memory_latency: int) -> Coherence:
    """MESI over the shared L2s as a per-line segmented scan."""
    nd = geom.num_l2
    by_line = trace.by_line
    lid = trace.lid[by_line]
    d = trace.dom[by_line]
    wr = trace.write[by_line]
    n = len(lid)
    init = trace.start_holders[lid]
    bit = geom.bit
    # Segments start at a line's first access and at every write.  The
    # holder mask *after* access i is the OR of the L2s in i's segment so
    # far, plus the start holders when i's segment is the line's first and
    # began with a read.
    first = np.ones(n, dtype=bool)
    np.not_equal(lid[1:], lid[:-1], out=first[1:])
    seg_start = first | wr
    seg_first = np.flatnonzero(seg_start).astype(np.int32)
    seg_lo = seg_first[np.cumsum(seg_start, dtype=np.int32) - 1]
    del seg_start
    wrote = wr[seg_lo]                  # i's segment began with a write
    after = init.copy()
    after[wrote] = 0
    idx = np.arange(n, dtype=np.int32)
    for b in range(nd):
        # Last access by L2 b so far; inside the segment means b joined.
        last_b = np.maximum.accumulate(np.where(d == b, idx, -1))
        after[last_b >= seg_lo] |= bit[b]
    del idx, last_b, seg_lo, seg_first
    before = np.empty_like(after)
    before[:1] = init[:1]
    before[1:] = np.where(first[1:], init[1:], after[:-1])

    # A sole holder is MODIFIED after a write in the phase, EXCLUSIVE after
    # a memory fill, and otherwise keeps its start state.
    prev_wrote = np.zeros(n, dtype=bool)
    prev_wrote[1:] = wrote[:-1] & ~first[1:]
    count = np.bitwise_count(before)
    sole = np.where(prev_wrote, M, np.where(
        init == 0, E, trace.start_kind[lid])).astype(np.int8)
    del prev_wrote, init
    sole_m = (count == 1) & (sole == M)
    owned = (count == 1) & (sole >= E)
    del sole

    mybit = bit[d]
    has = (before & mybit) != 0
    snoop = ~has & (count > 0)
    memfetch = ~has & (count == 0)
    upgrade = wr & has & ~owned
    del owned, count
    rfo = wr & snoop
    others = np.where(upgrade, before & ~mybit, 0).astype(before.dtype)
    inv_mask = np.where(rfo, before, others)
    same = geom.same_chip[d]
    intra = (before & same) != 0
    inv_intra = np.bitwise_count(others & same)
    inv_inter = np.bitwise_count(others & ~same)
    del same, mybit
    transfer = np.where(intra, geom.intra_lat, geom.inter_lat).astype(np.int32)
    # Reads reaching the L2 pay its latency plus any fill; writes pay the
    # upgrade broadcast, the RFO transfer or the fill (silent hits: 0).
    # ``deep`` is the latency beyond the L1 of an access that reaches the L2.
    fill = np.where(snoop, transfer, np.int32(memory_latency))
    upgrade_lat = np.maximum(
        np.where(inv_intra > 0, np.int32(geom.intra_inv), np.int32(0)),
        np.where(inv_inter > 0, np.int32(geom.inter_inv), np.int32(0)))
    deep = np.where(
        wr,
        np.where(has, np.where(upgrade, upgrade_lat, np.int32(0)), fill),
        np.where(has, np.int32(0), fill) + np.int32(geom.l2_lat),
    )
    del transfer, fill, upgrade_lat

    # Final state: the mask after each line's last access.
    last = np.ones(n, dtype=bool)
    last[:-1] = first[1:]
    fmask = after[last]
    flid = lid[last]
    fkind = np.where(np.bitwise_count(fmask) > 1, S, np.where(
        wrote[last], M,
        np.where(trace.start_holders[flid] == 0, E, trace.start_kind[flid])))
    del after, first, last, wrote

    first_use = {}
    for kind_name, at, weight in (
        ("snoop", np.flatnonzero(snoop & ~wr), None),
        ("rfo", np.flatnonzero(rfo), None),
        ("invalidate", np.flatnonzero(others), inv_intra + inv_inter),
    ):
        if len(at):
            first_use[kind_name] = (
                int(by_line[at].min()),
                len(at) if weight is None else int(weight[at].sum()),
            )
    n_intra = int(np.count_nonzero(intra & snoop))
    sent = inv_mask[inv_mask != 0]
    invalidated = np.array(
        [np.count_nonzero(sent & bit[b]) for b in range(nd)], dtype=np.int64)

    has_line = np.empty(n, dtype=bool)
    has_line[by_line] = has
    deep_lat = np.empty(n, dtype=np.int32)
    deep_lat[by_line] = deep
    inv_global = np.empty_like(inv_mask)
    inv_global[by_line] = inv_mask
    final_holders = trace.start_holders.copy()
    final_kind = trace.start_kind.copy()
    final_holders[flid] = fmask
    final_kind[flid] = fkind
    n_snoop = int(np.count_nonzero(snoop))
    return Coherence(
        has_line=has_line,
        deep_lat=deep_lat,
        inv_mask=inv_global,
        holders=final_holders,
        kind=final_kind,
        l2_misses=np.bincount(d[~has], minlength=nd),
        invalidated=invalidated,
        snoops=n_snoop,
        memory_fetches=int(np.count_nonzero(memfetch)),
        upgrades=int(np.count_nonzero(upgrade)),
        # A MODIFIED sole holder writes back when a snoop read or an RFO
        # takes the line from it.
        writebacks=int(np.count_nonzero(snoop & sole_m)),
        transfers=(n_intra, n_snoop - n_intra),
        invalidates=(int(inv_intra.sum()), int(inv_inter.sum())),
        first_use=first_use,
    )


# -- stage 2: private L1 lanes -------------------------------------------------------


@dataclass
class Lanes:
    """Stage 2's outcome."""

    l1_hit: np.ndarray          # per access, global order
    evictions: np.ndarray       # per core
    removed: np.ndarray         # per core: shootdowns that found the line
    sibling_removed: int
    l1_tag: np.ndarray          # final lanes, true stamps
    l1_stamp: np.ndarray


def _may_hold(geom: Geometry, store: CacheArrays, trace: PhaseTrace,
              core: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Whether ``core`` can hold the line of access ``at`` in its L1 then.

    Only a read fills an L1, so the core must have held the line at the
    phase start or read it earlier in the phase.
    """
    nu = len(trace.uniq)
    # Reads in (core, line, time) order: a stable sort by core of the
    # (line, time) order; each (core, line)'s first read leads its run.
    reads = trace.by_line[~trace.write[trace.by_line]]
    reads = reads[_stable_order(trace.core[reads])]
    read_key = trace.core[reads] * nu + trace.lid[reads]
    first = np.ones(len(read_key), dtype=bool)
    np.not_equal(read_key[1:], read_key[:-1], out=first[1:])
    keys = read_key[first]
    first_read = reads[first]
    held = np.flatnonzero(store.l1_tag.ravel() >= 0)
    held_line = store.l1_tag.ravel()[held]
    p = np.minimum(np.searchsorted(trace.uniq, held_line), nu - 1)
    in_phase = trace.uniq[p] == held_line
    start = np.sort(held[in_phase] // (geom.l1_sets * geom.l1_ways) * nu
                    + p[in_phase])
    key = core * nu + trace.lid[at]
    p = np.searchsorted(keys, key)
    ok = p < len(keys)
    ok[ok] = keys[p[ok]] == key[ok]
    ok[ok] = first_read[p[ok]] < at[ok]
    p = np.searchsorted(start, key)
    at_start = p < len(start)
    at_start[at_start] = start[p[at_start]] == key[at_start]
    return ok | at_start


def _removals(geom: Geometry, trace: PhaseTrace,
              coh: Coherence) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L1 removals ``(core, access index, is_sibling)``: inclusion
    shootdowns hit every core above an invalidated L2, and a write also
    clears the writer's siblings."""
    cores: List[np.ndarray] = []
    at: List[np.ndarray] = []
    sib: List[np.ndarray] = []
    invalidating = np.flatnonzero(coh.inv_mask)
    masks = coh.inv_mask[invalidating]
    for h in range(geom.num_l2):
        hit = invalidating[(masks & geom.bit[h]) != 0]
        for c in geom.l2_cores[h] if len(hit) else ():
            cores.append(np.full(len(hit), c, dtype=np.int64))
            at.append(hit)
            sib.append(np.zeros(len(hit), dtype=bool))
    writes = np.flatnonzero(trace.write)
    write_dom = trace.dom[writes]
    for d, above in enumerate(geom.l2_cores):
        if len(above) < 2:
            continue
        mine = writes[write_dom == d]
        writer = trace.core[mine]
        for c in above:
            hit = mine[writer != c]
            if len(hit):
                cores.append(np.full(len(hit), c, dtype=np.int64))
                at.append(hit)
                sib.append(np.ones(len(hit), dtype=bool))
    if not cores:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=bool)
    return np.concatenate(cores), np.concatenate(at), np.concatenate(sib)


def resolve_l1(geom: Geometry, store: CacheArrays, trace: PhaseTrace,
               coh: Coherence, clocks: Sequence[int]) -> Lanes:
    """Step every ``(core, L1 set)`` lane through its events together."""
    n = len(trace.line)
    nsets, nc = geom.l1_sets, geom.num_cores
    rc, rk, rs = _removals(geom, trace, coh)
    # Events that can act: removals and writes only when the core may hold
    # the line (the rest find nothing: a write miss allocates no way).
    writes = np.flatnonzero(trace.write)
    held = _may_hold(geom, store, trace,
                     np.concatenate([rc, trace.core[writes]]),
                     np.concatenate([rk, writes]))
    keep_rm = held[:len(rk)]
    rc, rk, rs = rc[keep_rm], rk[keep_rm], rs[keep_rm]
    acts = ~trace.write
    acts[writes[held[len(keep_rm):]]] = True
    own = np.flatnonzero(acts)
    # Events: own accesses (kind 0 read, 1 write), then removals (kind 2).
    ev_at = np.concatenate([own, rk])
    ev_lane = (np.concatenate([trace.core[own], rc]) * nsets
               + trace.line[ev_at] % nsets)
    ev_kind = np.concatenate([trace.write[own].astype(np.int8),
                              np.full(len(rk), 2, dtype=np.int8)])
    # Order by (lane, time), then by rank within the lane: step s holds
    # the s-th event of every lane that has one.
    by_lane = _stable_order(ev_lane * (n + 1) + ev_at)
    lane_sorted = ev_lane[by_lane]
    counts = np.bincount(lane_sorted, minlength=nc * nsets)
    rank = np.arange(len(by_lane)) - (np.cumsum(counts) - counts)[lane_sorted]
    order = by_lane[_stable_order(rank)]
    s_lane = ev_lane[order]
    s_at = ev_at[order]
    s_kind = ev_kind[order]
    s_line = trace.line[s_at]
    s_read = s_kind == 0
    s_gone = s_kind == 2
    s_hit = np.zeros(len(order), dtype=bool)
    s_old = np.zeros(len(order), dtype=np.int64)

    # Each way is a (line, stamp) pair: one gather and one scatter per step.
    ways = np.stack([store.l1_tag, store.l1_stamp], axis=-1)
    # Surrogate stamps for this phase's touches: base + access index, above
    # every stamp already present and in the same order as the true clocks.
    base = int(max(clocks)) + 1
    s_stamp = base + s_at
    # What a hit leaves in its way: the line, touched — or nothing, for a
    # removal.  A read miss fills the LRU (or an empty) way with the line;
    # other misses leave the lane as it was.
    on_hit = np.stack([np.where(s_gone, -1, s_line),
                       np.where(s_gone, EMPTY, s_stamp)], axis=-1)
    on_fill = np.stack([s_line, s_stamp], axis=-1)
    s_read2 = s_read[:, None]
    row = np.arange(nc * nsets)
    a = 0
    for size in np.bincount(rank).tolist():
        b = a + size
        lane = s_lane[a:b]
        held = ways[lane]
        match = held[:, :, 0] == s_line[a:b, None]
        hit = match.any(axis=1)
        way = np.where(hit, match.argmax(axis=1), held[:, :, 1].argmin(axis=1))
        old = held[row[:size], way]
        ways[lane, way] = np.where(hit[:, None], on_hit[a:b],
                                   np.where(s_read2[a:b], on_fill[a:b], old))
        s_hit[a:b] = hit
        s_old[a:b] = old[:, 0]
        a = b
    s_evict = ~s_hit & s_read & (s_old >= 0)
    tag = ways[:, :, 0].copy()
    sur = ways[:, :, 1].copy()
    del ways, on_hit, on_fill

    s_own = s_kind < 2
    l1_hit = np.zeros(n, dtype=bool)
    l1_hit[s_at[s_own]] = s_hit[s_own]
    # True per-core clocks: a lookup ticks once, a read miss's refill once more.
    stamp = _running_clock(trace, [c for c, _, _ in trace.calls],
                           1 + (~trace.write & ~l1_hit), clocks)
    fresh = sur >= base
    sur[fresh] = stamp[sur[fresh] - base]
    removed = np.flatnonzero(~s_own & s_hit)
    return Lanes(
        l1_hit=l1_hit,
        evictions=np.bincount(s_lane[s_evict] // nsets, minlength=nc),
        removed=np.bincount(s_lane[removed] // nsets, minlength=nc),
        sibling_removed=int(np.count_nonzero(rs[order[removed] - len(own)])),
        l1_tag=tag,
        l1_stamp=sur,
    )


# -- stage 3: commit ------------------------------------------------------------------


def call_latencies(geom: Geometry, trace: PhaseTrace, coh: Coherence,
                   lanes: Lanes) -> List[int]:
    """Each ``access_batch`` call's latency sum."""
    reaches = trace.write | ~lanes.l1_hit
    latency = geom.l1_lat + np.where(reaches, coh.deep_lat, 0)
    return np.add.reduceat(latency, trace.bounds, dtype=np.int64).tolist()


def commit_phase(h: "MemoryHierarchy", geom: Geometry, store: CacheArrays,
                 trace: PhaseTrace, coh: Coherence, lanes: Lanes) -> None:
    """Fold the phase into the counters and the array state."""
    nd, nc = geom.num_l2, geom.num_cores
    write = trace.write
    dom = trace.dom
    core = trace.core
    reaches = write | ~lanes.l1_hit

    # L2 LRU: a reaching access ticks its L2's clock once, a miss's fill
    # once more; a line's stamp is its last reaching access's.
    tick2 = reaches * (2 - coh.has_line)
    l2s = h.l2s
    stamp2 = _running_clock(
        trace, [int(geom.core_to_l2[c]) for c, _, _ in trace.calls], tick2,
        [c._clock for c in l2s])
    # Reaching accesses in (L2, line, time) order: each (L2, line)'s last
    # one ends its run.
    nu = len(trace.uniq)
    reached = trace.by_line[reaches[trace.by_line]]
    reached = reached[_stable_order(dom[reached])]
    key = dom[reached].astype(np.int64) * nu + trace.lid[reached]
    last = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=last[:-1])
    last_key = key[last]
    last_stamp = stamp2[reached[last]]

    # The new array state, in place: the phase's lines are all in the table.
    occupancy = store.occupancy
    sets = trace.uniq % geom.l2_sets
    for d in range(nd):
        now = (coh.holders & geom.bit[d]) != 0
        was = (trace.start_holders & geom.bit[d]) != 0
        np.add.at(occupancy[d], sets[np.flatnonzero(now & ~was)], 1)
        np.subtract.at(occupancy[d], sets[np.flatnonzero(was & ~now)], 1)
    rows = trace.rows
    store.holders[rows] = coh.holders
    store.kind[rows] = coh.kind
    store.stamp[rows[last_key % nu], last_key // nu] = last_stamp
    store.l1_tag = lanes.l1_tag
    store.l1_stamp = lanes.l1_stamp

    # Per-cache counter deltas: L1s then L2s.  The precondition rules out
    # L2 evictions, and write-through L1s never hold a dirty line.
    l1_hits = np.bincount(core, weights=lanes.l1_hit, minlength=nc)
    l1_total = np.bincount(core, minlength=nc)
    l1_ticks = np.bincount(core, weights=1 + (~write & ~lanes.l1_hit),
                           minlength=nc)
    l2_hits = np.bincount(dom, weights=reaches & coh.has_line, minlength=nd)
    l2_ticks = np.bincount(dom, weights=tick2, minlength=nd)
    per_cache = (
        [(c, l1_hits[i], l1_total[i] - l1_hits[i], lanes.evictions[i], 0,
          lanes.removed[i], l1_ticks[i]) for i, c in enumerate(h.l1s)]
        + [(c, l2_hits[d], coh.l2_misses[d], 0, 0, coh.invalidated[d],
            l2_ticks[d]) for d, c in enumerate(l2s)]
    )
    for cache, hits, misses, evictions, writebacks, received, ticks in per_cache:
        cache_stats = cache.stats
        cache_stats.hits += int(hits)
        cache_stats.misses += int(misses)
        cache_stats.evictions += int(evictions)
        cache_stats.writebacks += int(writebacks)
        cache_stats.invalidations_received += int(received)
        cache._clock += int(ticks)

    bus_stats = h.bus.stats
    bus_stats.l2_misses += int(coh.l2_misses.sum())
    for d in range(nd):
        bus_stats.per_cache_misses[d] += int(coh.l2_misses[d])
    bus_stats.snoop_transactions += coh.snoops
    bus_stats.memory_fetches += coh.memory_fetches
    bus_stats.upgrades += coh.upgrades
    bus_stats.invalidations += int(coh.invalidated.sum())
    bus_stats.writebacks_to_memory += coh.writebacks
    h.l1_sibling_invalidations += lanes.sibling_removed

    ic_stats = h.bus.interconnect.stats
    ic_stats.intra_transactions += coh.transfers[0] + coh.invalidates[0]
    ic_stats.inter_transactions += coh.transfers[1] + coh.invalidates[1]
    ic_stats.intra_bytes += coh.transfers[0] * geom.line_size
    ic_stats.inter_bytes += coh.transfers[1] * geom.line_size
    by_kind = ic_stats.by_kind
    for name, (_, count) in sorted(coh.first_use.items(), key=lambda kv: kv[1]):
        by_kind[name] = by_kind.get(name, 0) + count
