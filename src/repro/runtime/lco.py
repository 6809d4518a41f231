"""Local control objects: futures and and-gates (HPX-5 LCO analogues).

LCOs synchronise parcel handlers with rank-local code: a handler sets a
future; the main program waits on it while pumping the runtime.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..sim.core import SimulationError

__all__ = ["Future", "AndGate", "ReduceLCO"]


class Future:
    """Single-assignment value (or error).

    A future settles exactly once, either with :meth:`set` (a value) or
    :meth:`fail` (an exception).  Readers of a failed future —
    :meth:`get` and :meth:`wait` — re-raise the stored exception; this is
    how remote invocation errors propagate back to the invoker
    (:mod:`repro.runtime.am`).
    """

    __slots__ = ("_value", "_set", "_error", "_callbacks")

    def __init__(self):
        self._value: Any = None
        self._set = False
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []

    @property
    def ready(self) -> bool:
        return self._set

    @property
    def failed(self) -> bool:
        return self._set and self._error is not None

    def set(self, value: Any = None) -> None:
        if self._set:
            raise SimulationError("future set twice")
        self._value = value
        self._set = True
        for fn in self._callbacks:
            fn(self)

    def fail(self, error: BaseException) -> None:
        """Settle the future with an exception instead of a value."""
        if self._set:
            raise SimulationError("future set twice")
        self._error = error
        self._set = True
        for fn in self._callbacks:
            fn(self)

    def on_settle(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(future)`` once the future settles (now, if it has)."""
        if self._set:
            fn(self)
        else:
            self._callbacks.append(fn)

    def get(self) -> Any:
        if not self._set:
            raise SimulationError("future read before set")
        if self._error is not None:
            raise self._error
        return self._value

    def wait(self, rt, timeout_ns: Optional[int] = None):
        """Pump the runtime until the future settles (generator → value).

        Raises the stored exception if the future failed.
        """
        ok = yield from rt.process_until(lambda: self._set, timeout_ns)
        if not ok:
            raise SimulationError("future wait timed out")
        if self._error is not None:
            raise self._error
        return self._value


class AndGate:
    """Counts down from N; ready when all inputs arrived."""

    __slots__ = ("_remaining",)

    def __init__(self, count: int):
        if count < 0:
            raise SimulationError("AndGate needs count >= 0")
        self._remaining = count

    @property
    def ready(self) -> bool:
        return self._remaining == 0

    @property
    def remaining(self) -> int:
        return self._remaining

    def arrive(self, n: int = 1) -> None:
        if self._remaining < n:
            raise SimulationError("AndGate over-arrived")
        self._remaining -= n

    def wait(self, rt, timeout_ns: Optional[int] = None):
        """Pump the runtime until all inputs arrived (generator)."""
        ok = yield from rt.process_until(lambda: self._remaining == 0,
                                         timeout_ns)
        if not ok:
            raise SimulationError("AndGate wait timed out")


class ReduceLCO:
    """Accumulates N contributions with a binary operator."""

    __slots__ = ("_remaining", "_op", "_value")

    def __init__(self, count: int, op, initial: Any):
        if count < 1:
            raise SimulationError("ReduceLCO needs count >= 1")
        self._remaining = count
        self._op = op
        self._value = initial

    @property
    def ready(self) -> bool:
        return self._remaining == 0

    def contribute(self, value: Any) -> None:
        if self._remaining == 0:
            raise SimulationError("ReduceLCO over-contributed")
        self._value = self._op(self._value, value)
        self._remaining -= 1

    def wait(self, rt, timeout_ns: Optional[int] = None):
        """Pump the runtime until reduced (generator → value)."""
        ok = yield from rt.process_until(lambda: self._remaining == 0,
                                         timeout_ns)
        if not ok:
            raise SimulationError("ReduceLCO wait timed out")
        return self._value
