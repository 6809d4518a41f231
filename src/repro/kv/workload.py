"""Load generators for the KV store: Zipf keys, closed/open loops.

Key popularity follows a Zipf(theta) distribution over a fixed key
population — the standard skew model for KV serving benchmarks (theta 0
is uniform, 0.99 is the YCSB default, higher concentrates traffic on the
hot shard's leader).  Sampling inverts a precomputed CDF with one
uniform draw from a named deterministic stream, so workloads replay
bit-identically.

Two drivers:

* :func:`closed_loop` — each simulated client keeps exactly one op in
  flight; throughput is an *output* (classic closed-loop latency
  measurement, no coordinated-omission correction needed).
* :func:`open_loop` — ops arrive on a Poisson (or fixed-rate) schedule
  regardless of completions; latency under overload includes queueing,
  which is the honest tail-latency number for a serving system.

Latencies are recorded per op class both in a :class:`WorkloadStats`
(exact samples → exact percentiles via :func:`repro.util.stats
.percentile`) and as ``kv.op.get`` / ``kv.op.put`` spans in the rank's
obs scope, so ``repro.obs`` snapshots and JSONL exports see them too.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import numpy as np

from ..util.stats import percentile
from .client import KVClient
from .shard import ST_CAS_FAIL, ST_MISS, ST_OK

__all__ = ["ZipfKeys", "WorkloadStats", "closed_loop", "open_loop",
           "value_for"]


class ZipfKeys:
    """Zipf-skewed sampler over ``kv:00000000``-style keys."""

    def __init__(self, n_keys: int, theta: float, rng: np.random.Generator):
        if n_keys < 1:
            raise ValueError("need at least one key")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.n_keys = n_keys
        self.theta = theta
        self._rng = rng
        self.keys = [f"kv:{i:08d}".encode() for i in range(n_keys)]
        ranks = np.arange(1, n_keys + 1, dtype=np.float64)
        weights = ranks ** (-theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self) -> bytes:
        u = self._rng.random()
        return self.keys[int(np.searchsorted(self._cdf, u, side="left"))]


def value_for(client_id: int, seq: int, size: int) -> bytes:
    """Deterministic per-write value: self-describing so the failover
    checker can match survivors to the ack that produced them."""
    tag = f"c{client_id}:s{seq}:".encode()
    if len(tag) >= size:
        return tag[:size]
    return tag + b"x" * (size - len(tag))


class WorkloadStats:
    """Exact latency samples + outcome counts for one driver run."""

    def __init__(self):
        self.latency_ns: Dict[str, List[int]] = {"get": [], "put": []}
        self.ok = 0
        self.miss = 0
        self.cas_fail = 0
        self.failed = 0
        self.t_first: Optional[int] = None
        self.t_last: Optional[int] = None

    def record(self, op: str, t0: int, t1: int, status: int) -> None:
        if self.t_first is None:
            self.t_first = t0
        self.t_last = t1
        if status == ST_OK:
            self.ok += 1
        elif status == ST_MISS:
            self.miss += 1
        elif status == ST_CAS_FAIL:
            self.cas_fail += 1
        else:
            self.failed += 1
            return  # a timed-out op's latency is not a service time
        self.latency_ns[op].append(t1 - t0)

    def merge(self, other: "WorkloadStats") -> None:
        for op, xs in other.latency_ns.items():
            self.latency_ns[op].extend(xs)
        self.ok += other.ok
        self.miss += other.miss
        self.cas_fail += other.cas_fail
        self.failed += other.failed
        for attr in ("t_first", "t_last"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if theirs is not None:
                pick = min if attr == "t_first" else max
                setattr(self, attr,
                        theirs if mine is None else pick(mine, theirs))

    @property
    def completed(self) -> int:
        return self.ok + self.miss + self.cas_fail

    def ops_per_sec(self) -> float:
        if self.t_first is None or self.t_last is None \
                or self.t_last <= self.t_first:
            return 0.0
        return self.completed / ((self.t_last - self.t_first) / 1e9)

    def pct_us(self, op: str, p: float) -> float:
        xs = self.latency_ns.get(op, [])
        return percentile(xs, p) / 1e3 if xs else 0.0


def _one_op(env, client: KVClient, zipf: ZipfKeys, rng: np.random.Generator,
            get_ratio: float, value_size: int, stats: WorkloadStats,
            scope=None, t_arrival: Optional[int] = None):
    """Issue a single mixed-workload op and record it (generator).

    ``t_arrival`` (open-loop drivers) backdates the measured start so
    queueing delay counts against the op's latency.
    """
    key = zipf.sample()
    do_get = rng.random() < get_ratio
    op = "get" if do_get else "put"
    t0 = env.now if t_arrival is None else t_arrival
    span = scope.span(f"kv.op.{op}", t0) if scope is not None else None
    if do_get:
        status, _value = yield from client.get(key)
    else:
        status = yield from client.put(
            key, value_for(client.client_id, client.seq + 1, value_size))
    t1 = env.now
    if span is not None:
        span.end(t1, status="ok" if status == ST_OK else f"st{status}")
    stats.record(op, t0, t1, status)


def closed_loop(env, client: KVClient, zipf: ZipfKeys,
                rng: np.random.Generator, n_ops: int, stats: WorkloadStats,
                get_ratio: float = 0.5, value_size: int = 64,
                scope=None, think_ns: int = 0):
    """One-in-flight driver: ``n_ops`` sequential ops (generator)."""
    for _ in range(n_ops):
        yield from _one_op(env, client, zipf, rng, get_ratio, value_size,
                           stats, scope)
        if think_ns:
            yield env.timeout(think_ns)


def open_loop(env, client_pool: List[KVClient], zipf: ZipfKeys,
              rng: np.random.Generator, rate_ops_s: float, duration_ns: int,
              stats: WorkloadStats, get_ratio: float = 0.5,
              value_size: int = 64, scope=None, poisson: bool = True):
    """Arrival-driven driver (generator).

    Ops are injected at ``rate_ops_s`` (exponential or fixed gaps) into a
    single shared arrival FIFO; whichever client session goes idle first
    pops the next arrival, so one slow op (a failover stall, a snapshot
    install) delays only its own session instead of every op that was
    round-robined behind it.  In-flight concurrency is bounded by the
    pool size while the *schedule* stays open-loop, so queueing delay
    shows up in the recorded latency instead of being silently
    coordinated away.  Idle sessions park on a wake event the injector
    triggers on each arrival — no polling, so an idle pool costs zero
    sim events and the event order (hence the trace) is identical
    whether or not sessions outnumber arrivals.
    """
    gap_ns = 1e9 / rate_ops_s
    arrivals: deque = deque()
    state = {"closed": False, "wake": env.event()}

    def _wake():
        if not state["wake"].triggered:
            state["wake"].succeed()

    def session(client: KVClient):
        while True:
            if arrivals:
                t_arrival = arrivals.popleft()
                yield from _one_op(env, client, zipf, rng, get_ratio,
                                   value_size, stats, scope,
                                   t_arrival=t_arrival)
            elif state["closed"]:
                return
            else:
                # first parker after a trigger re-arms the shared event;
                # later parkers in the same step reuse the fresh one, so
                # one arrival wakes every idle session (deterministically,
                # in parking order) and exactly one of them pops it.
                if state["wake"].triggered:
                    state["wake"] = env.event()
                yield state["wake"]

    procs = [env.process(session(c), name=f"kv.open.{i}")
             for i, c in enumerate(client_pool)]
    t_end = env.now + duration_ns
    while env.now < t_end:
        arrivals.append(env.now)
        _wake()
        wait = rng.exponential(gap_ns) if poisson else gap_ns
        yield env.timeout(max(1, int(wait)))
    state["closed"] = True
    _wake()
    for p in procs:
        if p.is_alive:
            yield p
