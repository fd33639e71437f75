"""Set-associative cache tag store with MESI line states.

One :class:`Cache` instance models one physical cache (an L1 or an L2 slice
of the Harpertown-style hierarchy in Table II of the paper).  It is purely a
tag/state store with LRU replacement; the *protocol* (who gets invalidated
when, what counts as a snoop) lives in :mod:`repro.mem.coherence`, and the
level wiring in :mod:`repro.mem.hierarchy`.

Line states use the MESI lattice even for the write-through L1s (which only
ever hold SHARED lines); this keeps one code path and makes protocol
assertions uniform.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.util.validation import check_positive, check_power_of_two


class MESIState(enum.IntEnum):
    """MESI coherence states.  INVALID lines are not stored."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry and latency (paper Table II shapes the defaults).

    ``num_sets = size / (line_size * ways)`` need not be a power of two
    (6 MiB / 64 B / 8 ways = 12288 sets); the index is taken modulo the set
    count, trading a shift for a modulo — irrelevant at simulation speed.
    """

    size: int = 32 * 1024
    ways: int = 4
    line_size: int = 64
    latency: int = 2
    write_back: bool = False
    name: str = "L1"

    def __post_init__(self) -> None:
        check_positive("size", self.size)
        check_power_of_two("ways", self.ways)
        check_power_of_two("line_size", self.line_size)
        check_positive("latency", self.latency)
        if self.size % (self.line_size * self.ways) != 0:
            raise ValueError(
                f"{self.name}: size {self.size} not divisible by "
                f"line_size*ways = {self.line_size * self.ways}"
            )

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass
class CacheStats:
    """Per-cache counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations_received: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


#: The one empty dict every never-filled cache set shares.  Lookups,
#: probes and invalidations read it like any empty set; :meth:`Cache.insert`
#: gives a set its own dict before the first line goes in, and nothing
#: else may add to it.  (A plain dict: a subclass would make every set
#: dict call site polymorphic and slow the scalar path down.)
_VACANT: Dict[int, List[int]] = {}


class _DeferredSets:
    """Stands in for a cache's set list while an external store holds its
    contents: the first subscript has the store hand them back.

    Holds its cache weakly, so a dropped cache and its store are freed
    by reference counting alone.
    """

    __slots__ = ("_cache", "_materialize")

    def __init__(self, cache: "Cache", materialize: Callable[[], None]):
        self._cache = weakref.ref(cache)
        self._materialize = materialize

    def materialize(self) -> None:
        """Have the store hand the contents back."""
        self._materialize()

    def __getitem__(self, index: int) -> Dict[int, List[int]]:
        cache = self._cache()
        self._materialize()
        assert cache is not None and cache._sets is not self
        return cache._sets[index]


#: One resident line as the resolver and inspection see it:
#: ``(set index, line, [state, stamp])``.
Entry = Tuple[int, int, List[int]]


class Cache:
    """LRU set-associative tag store.

    Lines are identified by their *line number* (address >> log2(line_size));
    callers do the split once so multiple caches can share it.

    The contents may be *deferred*: while the bulk phase resolver
    (:mod:`repro.mem.resolver`) holds them in arrays, ``_sets`` is a
    stand-in whose first subscript rebuilds the dicts of every cache the
    resolver holds (:meth:`defer_contents`).  Stats and ``_clock`` are
    always current.
    """

    def __init__(self, config: CacheConfig, owner_id: int = 0):
        self.config = config
        self.owner_id = owner_id
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._clock = 0
        # One dict per set: line -> [state, stamp].  Dicts keep lookups O(1)
        # even for the 12288-set L2, and sets never exceed `ways` entries.
        # Every set starts as the shared vacant dict and gets its own on
        # its first insert (``_filled`` lists those), so building or
        # flushing a never-touched cache costs one list multiply.
        self._sets: List[Dict[int, List[int]]] = [_VACANT] * self._num_sets
        self._filled: List[int] = []

    def defer_contents(self, materialize: Callable[[], None]) -> None:
        """Hand the contents to an external store.

        ``materialize`` must put them back with :meth:`restore_contents`;
        it runs on the first touch of the contents.
        """
        self._sets = _DeferredSets(self, materialize)  # type: ignore[assignment]
        self._filled = []

    def _current_sets(self) -> List[Dict[int, List[int]]]:
        """The set list, brought back first if an external store holds it."""
        sets = self._sets
        if isinstance(sets, _DeferredSets):
            sets.materialize()
            sets = self._sets
        return sets

    def restore_contents(self, entries: Iterable[Entry]) -> None:
        """Install ``entries`` as the contents, each set's in LRU order
        (oldest first); ends a deferral."""
        sets: List[Dict[int, List[int]]] = [_VACANT] * self._num_sets
        filled = []
        for index, line, entry in entries:
            s = sets[index]
            if s is _VACANT:
                s = sets[index] = {}
                filled.append(index)
            s[line] = entry
        self._sets = sets
        self._filled = filled

    # -- lookup/fill ---------------------------------------------------------

    def set_index(self, line: int) -> int:
        """Set that ``line`` maps to."""
        return line % self._num_sets

    def lookup(self, line: int) -> int:
        """LRU-updating lookup; returns the line state (INVALID on miss).

        Hot path: returns the raw int value of the :class:`MESIState` —
        ``MESIState`` is an IntEnum, so ``== MESIState.SHARED`` comparisons
        work, without paying enum construction per access.

        A hit re-inserts the entry (move-to-end), maintaining the class
        invariant that each set dict iterates in ascending-stamp order —
        which is what lets :meth:`insert` evict ``next(iter(set))`` in
        O(1) instead of scanning stamps.  Stamps stay authoritative (and
        unique), so the chosen victim is identical either way.
        """
        self._clock += 1
        s = self._sets[line % self._num_sets]
        entry = s.pop(line, None)
        if entry is None:
            self.stats.misses += 1
            return 0  # MESIState.INVALID
        entry[1] = self._clock
        s[line] = entry
        self.stats.hits += 1
        return entry[0]

    def probe(self, line: int) -> int:
        """Non-destructive state query (snoop path: no LRU, no counters).

        Returns the raw int state like :meth:`lookup`.
        """
        entry = self._sets[line % self._num_sets].get(line)
        return entry[0] if entry is not None else 0

    def insert(self, line: int, state: MESIState) -> Optional[Tuple[int, MESIState]]:
        """Install ``line`` in ``state``; returns ``(victim, victim_state)``
        if an eviction was needed, else None.

        A MODIFIED victim is counted as a writeback here; the caller decides
        whether to charge memory traffic for it.
        """
        if state is MESIState.INVALID:
            raise ValueError("cannot insert a line in INVALID state")
        self._clock += 1
        s = self._sets[line % self._num_sets]
        existing = s.pop(line, None)
        if existing is not None:
            existing[0] = int(state)
            existing[1] = self._clock
            s[line] = existing
            return None
        victim = None
        if s is _VACANT:
            s = self._sets[line % self._num_sets] = {}
            self._filled.append(line % self._num_sets)
        elif len(s) >= self._ways:
            # Move-to-end on every stamp update keeps dict iteration order
            # == ascending-stamp order, so the LRU victim is simply the
            # first key — no scan (see lookup()).
            vline = next(iter(s))
            vstate = s.pop(vline)[0]
            self.stats.evictions += 1
            if vstate == MESIState.MODIFIED:
                self.stats.writebacks += 1
            victim = (vline, MESIState(vstate))
        s[line] = [int(state), self._clock]
        return victim

    def set_state(self, line: int, state: MESIState) -> None:
        """Change the state of a resident line (protocol transitions)."""
        entry = self._sets[line % self._num_sets].get(line)
        if entry is None:
            raise KeyError(f"line {line:#x} not resident in {self.config.name}")
        if state is MESIState.INVALID:
            raise ValueError("use invalidate() to drop a line")
        entry[0] = int(state)

    def invalidate(self, line: int) -> int:
        """Drop a line; returns its prior raw int state (0/INVALID if absent)."""
        s = self._sets[line % self._num_sets]
        entry = s.pop(line, None)
        if entry is None:
            return 0  # MESIState.INVALID
        self.stats.invalidations_received += 1
        return entry[0]

    def flush(self) -> int:
        """Drop everything; returns the number of MODIFIED lines dropped.

        Walks only the sets that were ever filled.
        """
        sets = self._current_sets()
        dirty = 0
        for index in self._filled:
            for entry in sets[index].values():
                if entry[0] == int(MESIState.MODIFIED):
                    dirty += 1
        self._sets = [_VACANT] * self._num_sets
        self._filled = []
        return dirty

    # -- content inspection ----------------------------------------------------

    def entries(self) -> Iterator[Entry]:
        """Every resident line as ``(set index, line, [state, stamp])``,
        by set index, each set in LRU order (oldest first)."""
        sets = self._current_sets()
        for index in sorted(self._filled):
            for line, entry in sets[index].items():
                yield index, line, entry

    def resident_lines(self) -> Iterator[Tuple[int, MESIState]]:
        """Iterate ``(line, state)`` over all resident lines, by set index."""
        for _, line, entry in self.entries():
            yield line, MESIState(entry[0])

    def occupancy(self) -> int:
        """Number of resident lines."""
        sets = self._current_sets()
        return sum(len(sets[index]) for index in self._filled)

    def __contains__(self, line: int) -> bool:
        return line in self._sets[line % self._num_sets]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.config
        return (
            f"Cache({c.name}#{self.owner_id}, {c.size // 1024}KiB/"
            f"{c.ways}w, occ={self.occupancy()})"
        )
