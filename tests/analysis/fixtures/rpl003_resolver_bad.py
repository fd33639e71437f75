"""Fixture: RPL003 must flag a bulk resolver that drops one counter.

The scalar reference ``access`` bumps ``hits`` and ``evictions``.  The
resolver's coherence stage computes both for the whole phase, but its
``commit_phase`` folds only ``hits`` into the stats — a counter lost
between the stages, which the rule reports against the batched engine.
"""


class FixtureResolverCache:
    def access(self, line: int) -> None:
        self.stats.hits += 1
        if line < 0:
            self.stats.evictions += 1


def resolve_coherence(lines: list) -> dict:
    return {"hits": len(lines), "evictions": sum(1 for x in lines if x < 0)}


def commit_phase(cache: FixtureResolverCache, outcome: dict) -> None:
    cache_stats = cache.stats
    cache_stats.hits += outcome["hits"]
