"""The tracer on tiny scripted runs: span parentage and simulated times,
timeout census attribution, self-time accounting, and the traced run's
report."""

import cProfile
import io
import json
import os
import pstats
from contextlib import redirect_stdout

import pytest

import run as bench_run
import tracing
import workloads
from repro.cluster import build_cluster
from repro.photon import photon_init
from repro.sim.core import Environment, SimulationError
from repro.verbs.qp import QueuePair

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _two_ranks():
    cl = build_cluster(2, "ib-fdr", seed=1)
    ph = photon_init(cl)
    dst = ph[1].buffer(4096)
    src = ph[0].buffer(4096)
    return cl, ph, src, dst


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_uninstall_restores_the_program(tracer):
    assert hasattr(QueuePair.post_send, "__wrapped__")
    tracer.uninstall()
    for cls, meth, _name in tracing.ENTRY_POINTS:
        assert not hasattr(getattr(cls, meth), "__wrapped__"), (cls, meth)
    assert Environment.timeout.__module__ == "repro.sim.core"


def test_span_parentage_and_sim_times(tracer):
    cl, ph, src, dst = _two_ranks()
    env = cl.env
    seen = {}

    def prog(env):
        seen["t0"] = env.now
        yield from ph[0].put_pwc(1, src.addr, 64, dst.addr, dst.rkey,
                                 local_cid=7)
        seen["t1"] = env.now
        c = yield from ph[0].wait_completion("local")
        seen["t2"] = env.now
        seen["cid"] = c.cid

    tracer.activate(env)
    env.run(until=env.process(prog(env), name="prog"))
    tracer.deactivate()
    assert seen["cid"] == 7
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    put, = by_name["photon.put_pwc"]
    wait, = by_name["photon.wait_completion"]
    assert (put.sim_start, put.sim_end) == (seen["t0"], seen["t1"])
    assert (wait.sim_start, wait.sim_end) == (seen["t1"], seen["t2"])
    assert put.parent is None and wait.parent is None
    assert put.proc == wait.proc == "prog"
    # the WR post happens inside put_pwc, in the same process
    posts = [s for s in by_name["verbs.post_send"] if s.proc == "prog"]
    assert posts and all(s.parent == put.sid for s in posts)
    # a parent's inside time covers its children's
    assert put.inside_ns >= sum(s.inside_ns for s in posts)
    assert put.child_ns == sum(s.inside_ns for s in posts)


def test_nested_generator_spans_in_one_process(tracer):
    cl, ph, src, dst = _two_ranks()
    env = cl.env

    def prog(env):
        for i in range(3):
            yield from ph[0].put_pwc(1, src.addr, 64, dst.addr, dst.rkey,
                                     local_cid=i)
            yield from ph[0].wait_completion("local")

    tracer.activate(env)
    env.run(until=env.process(prog(env), name="prog"))
    names = [s.name for s in tracer.spans if s.parent is None
             and s.proc == "prog"]
    assert names == ["photon.put_pwc", "photon.wait_completion"] * 3
    ids = {s.sid for s in tracer.spans}
    assert all(s.parent is None or s.parent in ids for s in tracer.spans)
    assert all(s.sim_end >= s.sim_start for s in tracer.spans)


def test_failed_call_closes_its_span(tracer):
    cl, ph, src, dst = _two_ranks()
    env = cl.env
    errors = []

    def prog(env):
        try:
            yield from ph[0].put_pwc(1, src.addr, -1, dst.addr, dst.rkey)
        except SimulationError as exc:
            errors.append(exc)
        yield from ph[0].put_pwc(1, src.addr, 64, dst.addr, dst.rkey,
                                 local_cid=1)

    tracer.activate(env)
    env.run(until=env.process(prog(env), name="prog"))
    assert len(errors) == 1
    bad, good = [s for s in tracer.spans if s.name == "photon.put_pwc"]
    assert bad.error and bad.sim_end == bad.sim_start
    assert not good.error and good.parent is None


def test_census_attributes_timeouts_to_their_caller(tracer):
    cl, ph, src, dst = _two_ranks()
    env = cl.env

    def prog(env):
        for _ in range(5):
            yield env.timeout(10)
        yield from ph[0].put_pwc(1, src.addr, 64, dst.addr, dst.rkey,
                                 local_cid=1)
        yield from ph[0].wait_completion("local")

    tracer.activate(env)
    env.run(until=env.process(prog(env)))
    assert tracer.census[__name__] == 5
    # verbs posts one doorbell timer per WR; the put's first WR posts it
    posts = sum(1 for s in tracer.spans if s.name == "verbs.post_send")
    assert tracer.census["repro.verbs.qp"] >= posts >= 1
    buckets = tracer.census_by_bucket()
    assert buckets["verbs"] == tracer.census["repro.verbs.qp"]
    assert buckets["fabric"] > 0
    assert sum(buckets.values()) == sum(tracer.census.values())
    # nothing is counted while the tracer is inactive
    tracer.deactivate()
    before = sum(tracer.census.values())
    env.run(until=env.process(prog(env)))
    assert sum(tracer.census.values()) == before


def test_bucket_mapping():
    assert tracing.bucket_of_module("repro.fabric.link") == "fabric"
    assert tracing.bucket_of_module("repro.kv.store") == "kv"
    assert tracing.bucket_of_module("repro.cluster") == "other"
    assert tracing.bucket_of_module("workloads") == "bench"
    assert tracing.bucket_of_module("numpy.random") == "other"
    src = os.path.join(ROOT, "src", "repro")
    assert tracing.bucket_of_file(os.path.join(src, "sim", "core.py")) \
        == "sim"
    assert tracing.bucket_of_file(os.path.join(src, "cluster.py")) \
        == "other"
    assert tracing.bucket_of_file(tracing.__file__) == "bench"
    assert tracing.bucket_of_file("~") is None
    assert tracing.bucket_of_file("/usr/lib/python3/heapq.py") is None


def test_builtins_are_charged_to_their_callers():
    src = os.path.join(ROOT, "src", "repro")
    fab = (os.path.join(src, "fabric", "link.py"), 1, "f")
    kv = (os.path.join(src, "kv", "store.py"), 1, "g")
    builtin = ("~", 0, "<built-in method len>")
    stdlib = ("/usr/lib/python3.11/heapq.py", 1, "h")
    stats = {
        fab: (1, 1, 0.5, 1.0, {}),
        kv: (1, 1, 0.25, 0.5, {}),
        # len: 0.3 s from fabric, 0.1 s from the stdlib helper
        builtin: (4, 4, 0.4, 0.4, {fab: (3, 3, 0.3, 0.3),
                                   stdlib: (1, 1, 0.1, 0.1)}),
        # the stdlib helper is called by kv only
        stdlib: (1, 1, 0.2, 0.3, {kv: (1, 1, 0.2, 0.3)}),
    }
    buckets, total = tracing.package_self_time(stats)
    assert total == pytest.approx(1.35)
    assert buckets["fabric"] == pytest.approx(0.5 + 0.3)
    assert buckets["kv"] == pytest.approx(0.25 + 0.1 + 0.2)
    assert sum(buckets.values()) == pytest.approx(total)


def test_self_times_sum_to_the_profiled_total():
    cl, ph, src, dst = _two_ranks()
    env = cl.env

    def prog(env):
        for i in range(20):
            yield from ph[0].put_pwc(1, src.addr, 512, dst.addr, dst.rkey,
                                     local_cid=i)
            yield from ph[0].wait_completion("local")

    prof = cProfile.Profile()
    prof.enable()
    env.run(until=env.process(prog(env)))
    prof.disable()
    buckets, total = tracing.package_self_time(pstats.Stats(prof).stats)
    assert total > 0
    assert sum(buckets.values()) == pytest.approx(total, rel=1e-9)
    assert buckets["sim"] > 0 and buckets["photon"] > 0
    assert buckets["kv"] == 0 and buckets["minimpi"] == 0


def test_traced_run_reports_every_per_layer_metric(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(bench_run, "MIN_REPS", 1)
    monkeypatch.setattr(bench_run, "MIN_SETUPS", 1)

    class Tiny(workloads.MpiBulk):
        MSGS_PER_RANK = 16

    monkeypatch.setitem(workloads.WORKLOADS, "mpi-bulk", Tiny)
    out = io.StringIO()
    with redirect_stdout(out):
        assert bench_run.main(["--workload", "mpi-bulk", "--seed", "2",
                               "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(result["metrics"]) == set(names)
    for name, m in result["metrics"].items():
        assert m["unit"] == names[name], name
    assert "trace.overhead_frac" in result["metrics"]
    assert result["metrics"]["minimpi.self_us_per_op"]["value"] > 0
    assert result["metrics"]["kv.self_us_per_op"]["value"] == 0
    spans = (tmp_path / "mpi-bulk-seed2.spans.jsonl").read_text()
    assert "minimpi.isend" in spans


def test_untraced_run_reports_the_end_to_end_metrics(monkeypatch):
    monkeypatch.setattr(bench_run, "MIN_REPS", 2)
    monkeypatch.setattr(bench_run, "MIN_SETUPS", 2)

    class Tiny(workloads.PwcBulk):
        PUTS_PER_RANK = 8

    monkeypatch.setitem(workloads.WORKLOADS, "pwc-bulk", Tiny)
    out = io.StringIO()
    with redirect_stdout(out):
        bench_run.main(["--workload", "pwc-bulk", "--seed", "2",
                        "--seconds", "0", "--trace", "0"])
    result = json.loads(out.getvalue().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_digest_disagreement_fails_the_run(monkeypatch):
    monkeypatch.setattr(bench_run, "MIN_REPS", 2)
    monkeypatch.setattr(bench_run, "MIN_SETUPS", 2)
    reps = []

    class Drifting(workloads.PwcBulk):
        PUTS_PER_RANK = 4

        def finish(self, run):
            res = super().finish(run)
            reps.append(res)
            res.events += len(reps)  # a model that does not repeat
            return res

    monkeypatch.setitem(workloads.WORKLOADS, "pwc-bulk", Drifting)
    out = io.StringIO()
    with redirect_stdout(out):
        bench_run.main(["--workload", "pwc-bulk", "--seed", "2",
                        "--seconds", "0", "--trace", "0"])
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1])["correct"] is False
    assert any("disagree on the simulated digest" in line for line in lines)

