"""Self-time accounting around calls into the program's public functions.

The benchmark never edits the program: it replaces attributes (a class
method, a module-level name) with timing wrappers for the duration of a
traced run and puts the originals back afterwards.  A call's self time is
its duration minus the durations of wrapped calls made inside it.  The
current call lives in a context variable, so concurrent asyncio tasks keep
separate call stacks.

Per-call records ``(layer, start, end, self, size)`` are kept when
``keep_records`` is set; they carry ``time.perf_counter`` stamps, which on
Linux read the system-wide monotonic clock, so records from several
processes can be nested against each other afterwards.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class LayerTimer:
    """Accumulates self time and call counts per layer name."""

    def __init__(self, keep_records: bool = False):
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.keep_records = keep_records
        self.records: List[Tuple[str, float, float, float, int]] = []
        self._current: contextvars.ContextVar[Optional[_Frame]] = (
            contextvars.ContextVar("perfsuite_frame", default=None)
        )
        self._restore: List[Tuple[Any, str, Any]] = []
        #: Called after every outermost wrapped call (forked pool workers
        #: dump their records here, outside any timed call).
        self.after_call: Optional[Callable[[], None]] = None

    def reset_current(self) -> None:
        """Forget the call in progress (in a child forked inside one)."""
        self._current.set(None)

    # -- accounting ---------------------------------------------------------------

    def _enter(self) -> Tuple[Optional[_Frame], _Frame, contextvars.Token, float]:
        parent = self._current.get()
        frame = _Frame()
        token = self._current.set(frame)
        return parent, frame, token, _clock()

    def _exit(self, name: str, parent: Optional[_Frame], frame: _Frame,
              token: contextvars.Token, start: float, size: int) -> None:
        end = _clock()
        self._current.reset(token)
        duration = end - start
        own = duration - frame.child
        if parent is not None:
            parent.child += duration
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        self.calls[name] = self.calls.get(name, 0) + 1
        if self.keep_records:
            self.records.append((name, start, end, own, size))
        if parent is None and self.after_call is not None:
            self.after_call()

    # -- wrappers -----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        """Timing wrapper for a plain, coroutine or generator function."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def timed_async(*args: Any, **kwargs: Any) -> Any:
                parent, frame, token, start = self._enter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(name, parent, frame, token, start,
                               size(args) if size else 0)
            return timed_async
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def timed_gen(*args: Any, **kwargs: Any) -> Any:
                gen = fn(*args, **kwargs)
                while True:
                    parent, frame, token, start = self._enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, parent, frame, token, start, 0)
                    yield item
            return timed_gen

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            parent, frame, token, start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, parent, frame, token, start,
                           size(args) if size else 0)
        return timed

    def patch(self, owner: Any, attr: str, name: str,
              size: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper until ``restore``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot time descriptor {owner!r}.{attr}")
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, size))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class TimedHook:
    """A timed stand-in for a callback that still compares equal to it.

    Detectors register bound methods as TLB-miss hooks and later remove
    them by equality, so the wrapper must be equal to what it wraps.
    """

    def __init__(self, timer: LayerTimer, name: str, hook: Callable):
        self.hook = hook
        self._timed = timer.wrap(name, hook)

    def __call__(self, *args: Any) -> Any:
        return self._timed(*args)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TimedHook):
            return self.hook == other.hook
        return self.hook == other

    def __hash__(self) -> int:
        return hash(self.hook)
