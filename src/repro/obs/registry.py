"""Hierarchical metrics registry with per-rank scoping.

This is the observability core the rest of the stack hangs off
(``photon_get_dev_stats`` analogue, grown into a real subsystem):

- **Counters** are written through :class:`ScopedCounters` — one per
  rank plus one ``fabric`` scope for hardware shared between ranks (links,
  switches).  The scopes are the only counter store: the cluster-wide
  :class:`AggregateView` (``cluster.counters``) is derived from them on
  every read — the sum over scopes, or the max for ``set_max`` names —
  so it cannot drift from them, and it is read-only, so nothing can
  write around them.
- **Gauges** are last-value-wins per scope (queue depths, occupancy).
- **Histograms** are fixed-bucket (power-of-two upper bounds), so memory
  is bounded no matter how many values are observed.
- **Spans** are start/end op records keyed to the *simulated* clock
  (pwc/gwc/eager/rendezvous/retry), carrying peer and byte counts.  They
  are pure host-side bookkeeping: recording a span never advances the
  simulation, consumes RNG, or reorders events, so enabling them cannot
  perturb golden traces.  Completed spans live in a bounded ring
  (:attr:`MetricsRegistry.max_spans`, oldest dropped first) and feed both
  the per-op latency histograms and the JSONL trace export.

Everything here is disabled-cheap: with ``spans_enabled`` off (the
default) ``scope.span(...)`` is one attribute load and a ``return None``,
and ``observe``/``set_gauge`` are a dict update at most.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, List, Optional

from ..sim.trace import Counters

__all__ = ["MetricsRegistry", "ScopedCounters", "AggregateView",
           "Histogram", "Span", "FABRIC_SCOPE", "DEFAULT_SPAN_CAP"]

#: scope label for non-rank-attributable hardware (links, switch ports)
FABRIC_SCOPE = "fabric"

#: default completed-span ring capacity (bounded memory for long runs)
DEFAULT_SPAN_CAP = 65_536

#: histogram bucket upper bounds: powers of two, 64 ns .. ~1.1 s, plus +inf
_BUCKET_BOUNDS = tuple(1 << k for k in range(6, 31))


class Histogram:
    """Fixed-bucket histogram (power-of-two upper bounds, ns-oriented)."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self):
        self.counts = [0] * (len(_BUCKET_BOUNDS) + 1)  # +1 = overflow
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        v = int(value)
        # bucket index via bit_length: first bound >= v (bounds start at 2^6)
        idx = max(0, (v - 1).bit_length() - 6) if v > 0 else 0
        if idx > len(_BUCKET_BOUNDS):
            idx = len(_BUCKET_BOUNDS)
        self.counts[idx] += 1
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def quantile(self, q: float) -> Optional[float]:
        """Approximate quantile: the upper bound of the bucket holding the
        q-th observation, clamped to the observed ``[min, max]`` (exact
        raw values come from span records)."""
        if not self.count:
            return None
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts[:-1]):
            seen += n
            if seen >= target:
                return float(min(max(_BUCKET_BOUNDS[i], self.min), self.max))
        return float(self.max)  # the overflow bucket

    def snapshot(self) -> Dict[str, object]:
        buckets = {str(_BUCKET_BOUNDS[i]): n
                   for i, n in enumerate(self.counts[:-1]) if n}
        if self.counts[-1]:
            buckets["+inf"] = self.counts[-1]
        return {"count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max, "buckets": buckets}


class Span:
    """One timed operation (open until :meth:`end` is called)."""

    __slots__ = ("name", "scope", "peer", "nbytes", "t_start", "t_end",
                 "status", "extra")

    def __init__(self, name: str, scope: "ScopedCounters", t_start: int,
                 peer: Optional[int], nbytes: int):
        self.name = name
        self.scope = scope
        self.peer = peer
        self.nbytes = nbytes
        self.t_start = t_start
        self.t_end: Optional[int] = None
        self.status = "open"
        self.extra: Optional[Dict[str, object]] = None

    @property
    def duration_ns(self) -> Optional[int]:
        return None if self.t_end is None else self.t_end - self.t_start

    def end(self, t_end: int, status: str = "ok", **extra: object) -> None:
        """Close the span (idempotent; the first close wins)."""
        if self.t_end is not None:
            return
        self.t_end = t_end
        self.status = status
        if extra:
            self.extra = extra
        self.scope._close_span(self)

    def as_dict(self) -> Dict[str, object]:
        d = {"span": self.name, "rank": self.scope.label, "peer": self.peer,
             "bytes": self.nbytes, "t_start": self.t_start,
             "t_end": self.t_end, "duration_ns": self.duration_ns,
             "status": self.status}
        if self.extra:
            d.update(self.extra)
        return d


class ScopedCounters(Counters):
    """Per-scope counter store (one per rank, one for the fabric).

    API-compatible with :class:`~repro.sim.trace.Counters` (components
    take either), plus live gauge/histogram/span recording.
    """

    def __init__(self, registry: "MetricsRegistry", label: object):
        super().__init__(values=Counter())
        self.registry = registry
        #: rank number, or :data:`FABRIC_SCOPE`
        self.label = label
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------- counters
    def set_max(self, name: str, value: int) -> None:
        # the aggregate takes the max over scopes for these names, not the sum
        self.registry._max_names.add(name)
        super().set_max(name, value)

    # ------------------------------------------------------------- gauges
    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # ------------------------------------------------------------- histograms
    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------- spans
    def span(self, name: str, t_start: int, peer: Optional[int] = None,
             nbytes: int = 0) -> Optional[Span]:
        """Open a span, or return None when span recording is disabled."""
        if not self.registry.spans_enabled:
            return None
        return Span(name, self, t_start, peer, nbytes)

    def _close_span(self, span: Span) -> None:
        self.observe(f"{span.name}.latency_ns", span.duration_ns)
        self.registry._record_span(span)

    # ------------------------------------------------------------- snapshots
    def metrics_snapshot(self) -> Dict[str, object]:
        """JSON-serializable view of this scope's metrics."""
        return {
            "counters": dict(self.values),
            "gauges": dict(self.gauges),
            "histograms": {name: h.snapshot()
                           for name, h in sorted(self.histograms.items())},
        }


class AggregateView:
    """Read-only cluster-wide counters, derived from the scopes on read.

    Each name is the sum over all rank scopes plus the fabric scope, or
    the max over them for names written with ``set_max``.  ``values``
    and ``snapshot()`` build a fresh copy on every call; there is no
    ``add`` or ``set_max`` — counters are written through a scope.
    """

    __slots__ = ("_registry",)

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry

    @property
    def values(self) -> Counter:
        scopes = self._registry._scopes()
        total: Counter = Counter()
        for scope in scopes:
            total.update(scope.values)
        for name in self._registry._max_names:
            peaks = [s.values[name] for s in scopes if name in s.values]
            if peaks:
                total[name] = max(peaks)
        return total

    def get(self, name: str) -> int:
        return self.values.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        return dict(self.values)


class MetricsRegistry:
    """One registry per cluster: rank scopes, a fabric scope, the derived
    aggregate, and the bounded completed-span ring."""

    def __init__(self, n_ranks: int, spans_enabled: bool = False,
                 max_spans: int = DEFAULT_SPAN_CAP):
        if n_ranks < 1:
            raise ValueError("registry needs at least one rank")
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.n_ranks = n_ranks
        self.spans_enabled = spans_enabled
        self.max_spans = max_spans
        #: cluster-wide totals over every scope (read-only, derived)
        self.aggregate = AggregateView(self)
        self.ranks: List[ScopedCounters] = [
            ScopedCounters(self, r) for r in range(n_ranks)]
        self.fabric = ScopedCounters(self, FABRIC_SCOPE)
        self.spans: Deque[Span] = deque()
        #: completed spans evicted from the full ring (oldest-first)
        self.spans_dropped = 0
        #: names with high-water-mark (max) semantics: the aggregate is the
        #: max over scopes, not the sum
        self._max_names: set = set()

    # ------------------------------------------------------------- scopes
    def scope(self, rank: Optional[int] = None) -> ScopedCounters:
        """The counter scope for ``rank`` (None → the fabric scope)."""
        return self.fabric if rank is None else self.ranks[rank]

    def _scopes(self) -> List[ScopedCounters]:
        return self.ranks + [self.fabric]

    # ------------------------------------------------------------- spans
    def enable_spans(self) -> None:
        self.spans_enabled = True

    def _record_span(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.spans.popleft()
            self.spans_dropped += 1
        self.spans.append(span)

    def span_durations(self, name: Optional[str] = None,
                       rank: Optional[int] = None) -> List[int]:
        """Raw durations of completed spans, filtered by name/rank — feed
        these to :func:`repro.util.stats.percentile` for exact latency
        percentiles."""
        return [s.duration_ns for s in self.spans
                if (name is None or s.name == name)
                and (rank is None or s.scope.label == rank)]

    # ------------------------------------------------------------- snapshots
    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable registry-wide snapshot."""
        return {
            "aggregate": self.aggregate.snapshot(),
            "ranks": {str(s.label): s.metrics_snapshot()
                      for s in self.ranks},
            "fabric": self.fabric.metrics_snapshot(),
            "spans": {"recorded": len(self.spans),
                      "dropped": self.spans_dropped,
                      "enabled": self.spans_enabled},
        }
