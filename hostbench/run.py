"""Host-time benchmark of the simulated Photon stack.

Usage, from the repository root::

    python3 hostbench/run.py --workload kv-zipf --seed 1 --seconds 10 --trace 0

Workloads: kv-zipf, am-lossy, pwc-bulk, mpi-bulk (see ``workloads.py``
and ``README.md``).  A run repeats set-up + measured phase + checks
until ``--seconds`` of host time have passed (at least three
repetitions), verifies that every repetition reproduces the first one's
simulated-output digest, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (host time, tracing off).
``--trace 1`` runs the same untraced repetitions, then one traced and
one profiled repetition, and reports the per-layer metrics; the spans
go to ``.hostbench_out/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import pstats
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".hostbench_out")

WORKLOAD_NAMES = ("kv-zipf", "am-lossy", "pwc-bulk", "mpi-bulk")
MIN_REPS = 3
MIN_SETUPS = 30
#: host-time cap on the extra set-up-only samples
SETUP_EXTRA_S = 1.5


def calibrate(iters: int = 200_000, rounds: int = 5) -> float:
    """ns per iteration of a fixed pure-Python loop (imports nothing
    from the program, so it tracks the machine, not the code)."""
    samples = []
    for _ in range(rounds):
        t = time.perf_counter_ns()
        x = 0
        for i in range(iters):
            x = (x * 31 + i) & 0xFFFF
        samples.append((time.perf_counter_ns() - t) / iters)
    return statistics.median(samples)


def percentile(xs, p: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return float(xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)])


def one_rep(workload, tracer=None, profiler=None):
    """Set up, measure and finish one repetition.

    Returns ``(setup_s, measure_s, result)``; ``result.counter_delta``
    holds the counters the measured phase and drain added.
    """
    gc.collect()
    t0 = time.perf_counter()
    run = workload.setup()
    t1 = time.perf_counter()
    before = dict(run["cl"].counters.values)
    if tracer is not None:
        tracer.activate(run["cl"].env)
    if profiler is not None:
        profiler.enable()
    t2 = time.perf_counter()
    workload.measure(run)
    t3 = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    if tracer is not None:
        tracer.deactivate()
    result = workload.finish(run)
    result.counter_delta = {k: v - before.get(k, 0)
                            for k, v in result.counters.items()}
    del run
    return t1 - t0, t3 - t2, result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def per_layer(res, host_us_per_op, measure_s, shares, tracer, traced_s,
              calib_ns):
    """The per-layer metric dict (see README.md for the map)."""
    import tracing
    ops = res.attempted
    d = res.counter_delta
    lat = res.lat
    spans = tracer.span_stats()
    census = tracer.census_by_bucket()

    def per_op(x):
        return x / ops

    def host_us(name):
        return spans.get(name, {}).get("host_us", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def sim_pct(name, p):
        return percentile(lat.get(name, []), p) / 1e3

    m = {
        "sim.events_per_op": per_op(res.events),
        "sim.host_ns_per_event": measure_s / res.events * 1e9,
    }
    for layer in ("sim", "fabric", "verbs", "photon", "minimpi", "runtime",
                  "kv", "obs"):
        m[f"{layer}.self_us_per_op"] = shares[layer] * host_us_per_op
    for bucket in tracing.BUCKETS:
        m[f"sim.timeouts.{bucket}_per_op"] = per_op(census.get(bucket, 0))
    wire = d.get("link.bytes", 0) + d.get("link.retrans_bytes", 0) \
        + d.get("link.lost_bytes", 0)
    gets = res.extra.get("gets", 0)
    puts = res.extra.get("puts", 0)
    m.update({
        "fabric.chunks_per_op": per_op(d.get("link.chunks", 0)),
        "fabric.goodput_ratio": ratio(res.goodput_bytes, wire),
        "fabric.drops_per_op": per_op(d.get("link.drops", 0)),
        "verbs.post_send.host_us": host_us("verbs.post_send"),
        "verbs.wrs_per_op": per_op(d.get("verbs.post_send", 0)),
        "verbs.reg_mr_per_op": per_op(d.get("verbs.reg_mr", 0)),
        "photon.put_pwc.host_us": host_us("photon.put_pwc"),
        "photon.get_pwc.host_us": host_us("photon.get_pwc"),
        "photon.send_pwc.host_us": host_us("photon.send_pwc"),
        "photon.wait_completion.host_us": host_us("photon.wait_completion"),
        "photon.put_pwc.sim_p50_us": sim_pct("photon.put_pwc", 50),
        "photon.put_pwc.sim_p99_us": sim_pct("photon.put_pwc", 99),
        "photon.polls_per_op": per_op(d.get("photon.progress_passes", 0)),
        "photon.rcache.hit_ratio": ratio(
            d.get("photon.rcache.hits", 0),
            d.get("photon.rcache.hits", 0) + d.get("photon.rcache.misses", 0)),
        "photon.resends_per_op": per_op(d.get("photon.op_retries", 0)
                                        + d.get("photon.entry_resends", 0)),
        "minimpi.isend.host_us": host_us("minimpi.isend"),
        "minimpi.irecv.host_us": host_us("minimpi.irecv"),
        "minimpi.wait.host_us": host_us("minimpi.wait"),
        "minimpi.xfer.sim_p50_us": sim_pct("minimpi.xfer", 50),
        "minimpi.xfer.sim_p99_us": sim_pct("minimpi.xfer", 99),
        "minimpi.unexpected_ratio": ratio(
            d.get("mpi.unexpected", 0) + d.get("mpi.unexpected_rts", 0),
            d.get("mpi.isends", 0)),
        "minimpi.rndv_per_op": per_op(d.get("mpi.rndv_sends", 0)),
        "runtime.invoke.host_us": host_us("runtime.invoke"),
        "runtime.wait.host_us": host_us("runtime.wait"),
        "runtime.invoke.sim_p50_us": sim_pct("runtime.invoke", 50),
        "runtime.invoke.sim_p99_us": sim_pct("runtime.invoke", 99),
        "runtime.parcels_per_batch": ratio(d.get("rt.parcels_sent", 0),
                                           d.get("coalesce.batches_sent", 0)),
        "runtime.dup_request_ratio": ratio(
            d.get("am.duplicate_requests", 0),
            d.get("am.requests_served", 0)
            + d.get("am.duplicate_requests", 0)),
        "runtime.credit_wait_sim_us": ratio(
            sum(lat.get("runtime.in_invoke", [])),
            len(lat.get("runtime.in_invoke", []))) / 1e3,
        "kv.get.host_us": host_us("kv.get"),
        "kv.put.host_us": host_us("kv.put"),
        "kv.get.sim_p50_us": sim_pct("kv.get", 50),
        "kv.get.sim_p99_us": sim_pct("kv.get", 99),
        "kv.put.sim_p50_us": sim_pct("kv.put", 50),
        "kv.put.sim_p99_us": sim_pct("kv.put", 99),
        "kv.ops_per_sim_s": (ratio(res.completed, res.sim_ns) * 1e9
                             if "kv.get" in lat else 0.0),
        "kv.rpc_attempts_per_op": per_op(d.get("kv.requests", 0)),
        "kv.onesided_ratio": ratio(res.extra.get("onesided_reads", 0), gets),
        "kv.raft_msgs_per_put": ratio(d.get("kv.raft_msgs", 0), puts),
        "kv.snapshots_per_kop": per_op(d.get("kv.snapshots_taken", 0)) * 1e3,
        "obs.counter_adds_per_op": per_op(tracer.counter_adds),
        "obs.spans_per_op": per_op(tracer.obs_spans),
        "trace.overhead_frac": traced_s / measure_s - 1.0,
        "calib.ns_per_iter": calib_ns,
    })
    return m


E2E_UNITS = {"host_us_per_op": "us", "setup_s": "s", "peak_rss_mb": "MB",
             "ok_frac": "ratio"}
UNITS = {"host_us": "us", "sim_p50_us": "us", "sim_p99_us": "us",
         "self_us_per_op": "us", "credit_wait_sim_us": "us",
         "host_ns_per_event": "ns", "ns_per_iter": "ns",
         "ops_per_sim_s": "1/s", "snapshots_per_kop": "count"}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"hostbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    calib_ns = calibrate()
    print(f"calib.ns_per_iter {calib_ns:.3f}")
    workload = workloads.WORKLOADS[args.workload](args.seed)

    setups, measures, per_op_us, results = [], [], [], []
    t_end = time.perf_counter() + args.seconds
    while len(results) < MIN_REPS or time.perf_counter() < t_end:
        s, m, res = one_rep(workload)
        setups.append(s)
        measures.append(m)
        per_op_us.append(m / max(1, res.completed) * 1e6)
        results.append(res)
    # set-up alone is short for most workloads: add set-up-only samples
    # so its median rests on at least MIN_SETUPS of them
    t_stop = time.perf_counter() + SETUP_EXTRA_S
    while len(setups) < MIN_SETUPS and time.perf_counter() < t_stop:
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    ref = results[0]
    problems = [v for r in results for v in r.violations]
    digests = [r.digest() for r in results]
    if len(set(digests)) != 1:
        problems.append(f"repetitions disagree on the simulated digest: "
                        f"{digests}")

    attempted = sum(r.attempted for r in results)
    completed = sum(r.completed for r in results)
    q1, med, q3 = quartiles(per_op_us)
    print(f"{args.workload} seed {args.seed}: {len(results)} repetitions of "
          f"{ref.attempted} ops, digest {digests[0]}")
    print(f"host_us_per_op median {med:.2f} q1 {q1:.2f} q3 {q3:.2f} "
          f"(n={len(per_op_us)}); setup_s median "
          f"{statistics.median(setups):.4f} (n={len(setups)})")

    if args.trace == 0:
        metrics = {
            "host_us_per_op": med,
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": completed / attempted,
        }
    else:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _s, traced_s, traced = one_rep(workload, tracer=tracer)
        finally:
            tracer.uninstall()
        profiler = cProfile.Profile()
        _s, _m, profiled = one_rep(workload, profiler=profiler)
        for label, r in (("traced", traced), ("profiled", profiled)):
            problems += r.violations
            if r.digest() != digests[0]:
                problems.append(f"{label} repetition changed the simulated "
                                f"digest: {r.digest()} != {digests[0]}")
        buckets, total = tracing.package_self_time(
            pstats.Stats(profiler).stats)
        shares = {b: t / total for b, t in buckets.items()}
        print("self-time share by package (cProfile): " + ", ".join(
            f"{b} {100 * shares[b]:.1f}%" for b in tracing.BUCKETS))
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                     f".spans.jsonl")
        tracer.write_jsonl(path)
        print(f"{len(tracer.spans)} spans written to {path}")
        metrics = per_layer(ref, med, statistics.median(measures), shares,
                            tracer, traced_s, calib_ns)
        attempted += traced.attempted + profiled.attempted
        completed += traced.completed + profiled.completed

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
