"""Host-side tracing for the benchmark's traced and profiled runs.

Everything here wraps the program from outside, at class level, and is
removed again by :meth:`Tracer.uninstall`; the measured runs never load
it.  Three instruments:

* **Spans** around public entry points of each layer.  A span records
  its name, host and simulated start and end, the host time spent
  inside the call (generator calls are timed per resume, so time spent
  suspended in the simulator is not counted) and its parent: the
  enclosing wrapped call in the same simulated process.
* **Counts**: ``Environment.timeout`` calls by the calling package (the
  timeout census) and ``ScopedCounters.add`` / ``ScopedCounters.span``
  calls.
* **Self-time by package** from a cProfile run (:func:`package_self_time`),
  with C builtins and other code outside the program charged to the
  package that called them.
"""

from __future__ import annotations

import json
import os
import sys
import types
from collections import Counter
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

import repro.sim.core as sim_core
from repro.kv.client import KVClient
from repro.minimpi.comm import Comm
from repro.obs.registry import ScopedCounters
from repro.photon.api import Photon
from repro.runtime.lco import Future
from repro.runtime.scheduler import Runtime
from repro.verbs.qp import QueuePair

#: the layers of the stack, named after their ``repro`` packages
LAYERS = ("sim", "fabric", "verbs", "photon", "minimpi", "runtime", "kv",
          "obs")
#: census / self-time buckets: the layers, the benchmark's own workload
#: code, and everything else (cluster assembly, util, stdlib roots)
BUCKETS = LAYERS + ("bench", "other")

#: (class, method, span name) of every wrapped entry point
ENTRY_POINTS = (
    (KVClient, "get", "kv.get"),
    (KVClient, "put", "kv.put"),
    (Runtime, "invoke", "runtime.invoke"),
    (Future, "wait", "runtime.wait"),
    (Photon, "put_pwc", "photon.put_pwc"),
    (Photon, "get_pwc", "photon.get_pwc"),
    (Photon, "send_pwc", "photon.send_pwc"),
    (Photon, "probe_completion", "photon.probe_completion"),
    (Photon, "wait_completion", "photon.wait_completion"),
    (Comm, "isend", "minimpi.isend"),
    (Comm, "irecv", "minimpi.irecv"),
    (Comm, "wait", "minimpi.wait"),
    (Comm, "waitall", "minimpi.waitall"),
    (QueuePair, "post_send", "verbs.post_send"),
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def bucket_of_module(module: str) -> str:
    """Census bucket of a module name (``repro.fabric.link`` → fabric)."""
    parts = module.split(".")
    if parts[0] == "repro":
        return parts[1] if len(parts) > 1 and parts[1] in LAYERS else "other"
    if module in ("workloads", "run", "checks", "tracing", "__main__"):
        return "bench"
    return "other"


def bucket_of_file(filename: str) -> Optional[str]:
    """Self-time bucket of a source file, or None for code outside the
    program and the benchmark (builtins, stdlib, numpy)."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    i = path.rfind(marker)
    if i >= 0 and "/src/repro/" in path[:i + len(marker)]:
        sub = path[i + len(marker):].split("/")
        return sub[0] if len(sub) > 1 and sub[0] in LAYERS else "other"
    if os.path.dirname(os.path.abspath(filename)) == _BENCH_DIR:
        return "bench"
    return None


class SpanRecord:
    """One wrapped call."""

    __slots__ = ("sid", "parent", "name", "proc", "sim_start", "sim_end",
                 "host_start", "host_end", "inside_ns", "child_ns", "error")

    def __init__(self, sid, parent, name, proc, sim_start, host_start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.proc = proc
        self.sim_start = sim_start
        self.sim_end = None
        self.host_start = host_start
        self.host_end = None
        self.inside_ns = 0
        self.child_ns = 0
        self.error = False

    def as_dict(self) -> Dict[str, object]:
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "proc": self.proc, "sim_start": self.sim_start,
                "sim_end": self.sim_end, "host_start_ns": self.host_start,
                "host_end_ns": self.host_end, "host_inside_ns":
                self.inside_ns, "host_self_ns": self.inside_ns
                - self.child_ns, "error": self.error}


class Tracer:
    """Installs the span wrappers and counting hooks (see module doc).

    Install before the cluster is built, so components that bind
    ``env.timeout`` or ``counters.add`` at construction bind the hooks;
    call :meth:`activate` with the environment once set-up is done, so
    only the measured phase is recorded.
    """

    def __init__(self):
        self.env = None
        self.active = False
        self.spans: List[SpanRecord] = []
        self.census: Counter = Counter()
        self.counter_adds = 0
        self.obs_spans = 0
        #: process (or None for callbacks) -> stack of open spans
        self._stacks: Dict[object, List[SpanRecord]] = {}
        self._saved: List[Tuple[type, str, object, bool]] = []
        self._t0 = perf_counter_ns()

    # ------------------------------------------------------------- install
    def install(self) -> None:
        for cls, meth, name in ENTRY_POINTS:
            self._patch(cls, meth, self._wrap(getattr(cls, meth), name))
        tracer = self
        env_timeout = sim_core.Environment.timeout
        getframe = sys._getframe

        def timeout(env, delay, value=None):
            if tracer.active:
                tracer.census[getframe(1).f_globals.get("__name__", "")] += 1
            return env_timeout(env, delay, value)

        scoped_add = ScopedCounters.add
        scoped_span = ScopedCounters.span

        def add(counters, name, amount=1):
            if tracer.active:
                tracer.counter_adds += 1
            scoped_add(counters, name, amount)

        def span(counters, *args, **kwargs):
            result = scoped_span(counters, *args, **kwargs)
            if tracer.active and result is not None:
                tracer.obs_spans += 1
            return result

        self._patch(sim_core.Environment, "timeout", timeout)
        self._patch(ScopedCounters, "add", add)
        self._patch(ScopedCounters, "span", span)

    def _patch(self, cls, meth, fn) -> None:
        self._saved.append((cls, meth, cls.__dict__.get(meth),
                            meth in cls.__dict__))
        setattr(cls, meth, fn)

    def uninstall(self) -> None:
        for cls, meth, orig, own in reversed(self._saved):
            if own:
                setattr(cls, meth, orig)
            else:
                delattr(cls, meth)
        self._saved.clear()
        self.active = False

    def activate(self, env) -> None:
        self.env = env
        self.active = True

    def deactivate(self) -> None:
        self.active = False

    # ------------------------------------------------------------- spans
    def _open(self, name: str) -> Tuple[SpanRecord, List[SpanRecord]]:
        env = self.env
        proc = env.active_process
        stack = self._stacks.get(proc)
        if stack is None:
            stack = self._stacks[proc] = []
        rec = SpanRecord(len(self.spans), stack[-1].sid if stack else None,
                         name, proc, env.now, perf_counter_ns() - self._t0)
        self.spans.append(rec)
        return rec, stack

    def _close(self, rec: SpanRecord, stack: List[SpanRecord]) -> None:
        rec.sim_end = self.env.now
        rec.host_end = perf_counter_ns() - self._t0
        if stack:
            stack[-1].child_ns += rec.inside_ns
        else:
            # outermost span of its process: drop the stack, and keep
            # the process's name rather than the process itself
            self._stacks.pop(rec.proc, None)
        rec.proc = getattr(rec.proc, "name", None)

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec, stack = tracer._open(name)
            stack.append(rec)
            t = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.error = True
                rec.inside_ns += perf_counter_ns() - t
                stack.pop()
                tracer._close(rec, stack)
                raise
            rec.inside_ns += perf_counter_ns() - t
            stack.pop()
            if isinstance(result, types.GeneratorType):
                return tracer._drive(rec, stack, result)
            tracer._close(rec, stack)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _drive(self, rec: SpanRecord, stack: List[SpanRecord], gen):
        """Delegate to ``gen`` like ``yield from``, timing each resume."""
        send, exc = None, None
        while True:
            stack.append(rec)
            t = perf_counter_ns()
            try:
                if exc is not None:
                    exc, pending = None, exc
                    event = gen.throw(pending)
                else:
                    event = gen.send(send)
            except StopIteration as stop:
                rec.inside_ns += perf_counter_ns() - t
                stack.pop()
                self._close(rec, stack)
                return stop.value
            except BaseException:
                rec.inside_ns += perf_counter_ns() - t
                rec.error = True
                stack.pop()
                self._close(rec, stack)
                raise
            rec.inside_ns += perf_counter_ns() - t
            stack.pop()
            try:
                send = yield event
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # re-thrown into gen on resume
                send, exc = None, e
            del event

    # ------------------------------------------------------------- output
    def span_stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, mean host µs inside, total self ns."""
        calls: Counter = Counter()
        inside: Counter = Counter()
        self_ns: Counter = Counter()
        for s in self.spans:
            calls[s.name] += 1
            inside[s.name] += s.inside_ns
            self_ns[s.name] += s.inside_ns - s.child_ns
        return {n: {"calls": calls[n], "host_us": inside[n] / calls[n] / 1e3,
                    "self_ns": self_ns[n]} for n in calls}

    def census_by_bucket(self) -> Counter:
        out: Counter = Counter()
        for module, n in self.census.items():
            out[bucket_of_module(module)] += n
        return out

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.as_dict(), separators=(",", ":")))
                f.write("\n")


def package_self_time(stats: Dict) -> Tuple[Dict[str, float], float]:
    """Charge cProfile self-time (``pstats.Stats.stats``) to buckets.

    Functions in the program or the benchmark keep their own self-time.
    Anything else — C builtins, the stdlib, numpy — is charged to its
    callers in proportion to the time each call edge accounts for,
    recursively, so the buckets sum to the profiled total.  Returns
    ``(seconds per bucket, profiled total seconds)``.
    """
    memo: Dict[Tuple, Dict[str, float]] = {}

    def share(func, depth=0) -> Dict[str, float]:
        """Fractions of ``func``'s self-time per bucket."""
        if func in memo:
            return memo[func]
        own = bucket_of_file(func[0])
        if own is not None:
            return {own: 1.0}
        callers = stats[func][4] if func in stats else {}
        if not callers or depth > 16:
            return {"other": 1.0}
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = dict.fromkeys(callers, 1.0)
            total = float(len(callers))
        memo[func] = {"other": 1.0}  # ends call cycles through foreign code
        out: Dict[str, float] = {}
        for caller, w in weights.items():
            for bucket, frac in share(caller, depth + 1).items():
                out[bucket] = out.get(bucket, 0.0) + frac * w / total
        memo[func] = out
        return out

    buckets = {b: 0.0 for b in BUCKETS}
    grand = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        grand += tt
        for bucket, frac in share(func).items():
            buckets[bucket] += tt * frac
    return buckets, grand
