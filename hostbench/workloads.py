"""The four benchmark workloads.

Each workload draws all of its inputs from the seed in ``__init__``
(outside any timed phase) and then runs repetitions of three steps:

* ``setup()`` builds the cluster and stack and drives the simulation to
  the first measured op (for kv-zipf: leader election and preload);
* ``measure(run)`` drives the measured ops to completion — the only
  step whose host time counts towards ``host_us_per_op``;
* ``finish(run)`` drains, checks the outputs and returns a
  :class:`RepResult` whose :meth:`~RepResult.digest` covers every
  simulated output, so a repeated repetition must reproduce it exactly.

Op granularity: kv-zipf one KV get/put, am-lossy one invocation,
pwc-bulk one ``put_pwc``, mpi-bulk one message (isend + matching recv).
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cluster import build_cluster
from repro.kv import KVClient, KVConfig, build_kv
from repro.kv.shard import ST_OK
from repro.kv.workload import value_for
from repro.minimpi import ANY_SOURCE, mpi_init
from repro.photon import photon_init
from repro.runtime import ActionRegistry, AmConfig, build_runtime
from repro.runtime.health import HealthConfig, build_health
from repro.sim.core import SimulationError

import checks

KiB = 1024
#: simulated-time limit on any single wait (a stuck op fails, not hangs)
WAIT_NS = 50_000_000


@dataclass
class RepResult:
    """Outputs of one repetition."""

    attempted: int
    completed: int
    #: simulated events fired during the measured phase
    events: int
    #: simulated ns the measured phase spanned
    sim_ns: int
    #: per op class: simulated latencies (ns) in completion order
    lat: Dict[str, List[int]]
    #: aggregate cluster counters after the drain
    counters: Dict[str, int]
    #: application payload bytes the measured ops moved
    goodput_bytes: int
    #: workload-specific deterministic counts
    extra: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: counters added by the measured phase and the drain (set by the
    #: harness, which snapshots them after set-up)
    counter_delta: Dict[str, int] = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps([self.attempted, self.completed, self.events,
                           self.sim_ns, self.lat,
                           sorted(self.counters.items()), self.goodput_bytes,
                           sorted(self.extra.items())], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _strata(rng, n: int) -> np.ndarray:
    """``n`` uniforms in [0, 1), one from each of ``n`` equal strata, in
    seed-drawn order.  Seeds then differ in the order and interleaving
    of the inputs, not in their mix, which keeps the work per op — and
    so the host time — from drifting between seeds."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _zipf(rng, n_items: int, theta: float, n: int) -> List[int]:
    cdf = np.cumsum(np.arange(1, n_items + 1, dtype=np.float64) ** -theta)
    cdf /= cdf[-1]
    return [int(i) for i in np.searchsorted(cdf, _strata(rng, n))]


def _log_uniform(rng, lo: int, hi: int, n: int) -> List[int]:
    u = _strata(rng, n)
    return [int(x) for x in np.exp(np.log(lo) + u * np.log(hi / lo))]


def _bernoulli(rng, p: float, n: int) -> List[bool]:
    return [bool(x) for x in _strata(rng, n) < p]


# ====================================================================== kv
class KvZipf:
    """Open-loop Zipf KV traffic on 6 ranks, 2 Raft groups at rf=3."""

    name = "kv-zipf"
    N_RANKS = 6
    N_GROUPS = 2
    N_KEYS = 256
    THETA = 0.99
    GET_RATIO = 0.7
    VALUE_SIZE = 64
    #: Poisson arrival rate, ops per simulated second (about half of
    #: what a 4-client closed loop sustains on this store)
    RATE = 150_000
    OPS = 2000
    #: sessions per replica-free rank; odd sessions read one-sided
    SESSIONS_PER_RANK = 8
    HB_PERIOD = 50_000
    DRAIN_NS = 20 * HB_PERIOD

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.keys = [f"kv:{i:08d}".encode() for i in range(self.N_KEYS)]
        self.op_key = [self.keys[i] for i in
                       _zipf(rng, self.N_KEYS, self.THETA, self.OPS)]
        self.op_get = _bernoulli(rng, self.GET_RATIO, self.OPS)
        # Poisson arrivals: exponential gaps by inverse transform
        gaps = -np.log1p(-_strata(rng, self.OPS)) * (1e9 / self.RATE)
        self.op_gap = [max(1, int(g)) for g in gaps]

    def setup(self):
        cl = build_cluster(self.N_RANKS, "ib-fdr", seed=self.seed, spans=True)
        ph = photon_init(cl)
        monitors = build_health(cl, HealthConfig(period_ns=self.HB_PERIOD,
                                                 phi_dead=6.0))
        nodes = build_kv(cl, ph, KVConfig(n_groups=self.N_GROUPS, rf=3),
                         monitors=monitors)
        smap = nodes[0].shard_map
        free = [r for r in range(self.N_RANKS) if not smap.groups_on(r)]
        env = cl.env
        run = {"cl": cl, "nodes": nodes, "writes": {}, "loaders": []}

        def leaders_ready():
            return all(any(n.is_leader(g) for n in nodes)
                       for g in range(self.N_GROUPS))

        def loader(c, keys):
            for key in keys:
                value = value_for(c.client_id, c.seq + 1, self.VALUE_SIZE)
                t0 = env.now
                status = yield from c.put(key, value)
                run["writes"][value] = (key, t0, env.now
                                        if status == ST_OK else None)

        def preload(env):
            while not leaders_ready():
                yield env.timeout(self.HB_PERIOD)
            clients = [KVClient(nodes[free[i % len(free)]], client_id=1000 + i)
                       for i in range(4)]
            run["loaders"] = clients
            yield env.all_of([env.process(loader(c, self.keys[i::4]))
                              for i, c in enumerate(clients)])

        env.run(until=env.process(preload(env)))
        run["sessions"] = [
            KVClient(nodes[free[s % len(free)]], client_id=s + 1,
                     read_mode="onesided" if s % 2 else "rpc")
            for s in range(self.SESSIONS_PER_RANK * len(free))]
        return run

    def measure(self, run):
        cl = run["cl"]
        env = cl.env
        writes = run["writes"]
        reads, lat_get, lat_put = [], [], []
        failed = [0]
        arrivals = deque()
        state = {"closed": False, "wake": env.event()}
        op_key, op_get = self.op_key, self.op_get

        def session(idx, c):
            while True:
                if arrivals:
                    i, t_due = arrivals.popleft()
                    key = op_key[i]
                    t0 = env.now
                    if op_get[i]:
                        status, value = yield from c.get(key)
                        if status == ST_OK:
                            lat_get.append(env.now - t_due)
                            reads.append((idx, key, value, t0, env.now))
                        else:
                            failed[0] += 1
                    else:
                        value = value_for(c.client_id, c.seq + 1,
                                          self.VALUE_SIZE)
                        writes[value] = (key, t0, None)
                        status = yield from c.put(key, value)
                        if status == ST_OK:
                            lat_put.append(env.now - t_due)
                            writes[value] = (key, t0, env.now)
                        else:
                            failed[0] += 1
                elif state["closed"]:
                    return
                else:
                    if state["wake"].triggered:
                        state["wake"] = env.event()
                    yield state["wake"]

        def wake():
            if not state["wake"].triggered:
                state["wake"].succeed()

        def generator(env):
            procs = [env.process(session(i, c), name=f"kv.session.{i}")
                     for i, c in enumerate(run["sessions"])]
            for i, gap in enumerate(self.op_gap):
                arrivals.append((i, env.now))
                wake()
                yield env.timeout(gap)
            state["closed"] = True
            wake()
            yield env.all_of(procs)

        run["t0"], run["ev0"] = env.now, env.events_processed
        env.run(until=env.process(generator(env), name="kv.generator"))
        run["t1"], run["ev1"] = env.now, env.events_processed
        run.update(reads=reads, lat_get=lat_get, lat_put=lat_put,
                   failed=failed[0])

    def finish(self, run) -> RepResult:
        cl, nodes = run["cl"], run["nodes"]
        cl.env.run(until=cl.env.now + self.DRAIN_NS)
        smap = nodes[0].shard_map
        acked = []
        for c in run["loaders"] + run["sessions"]:
            for client, seq, _op, key, _v in c.acked:
                acked.append((client, seq, smap.group_of(key)))
        applied = {(r, g): nodes[r].machines[g].applied_uids
                   for g in range(self.N_GROUPS) for r in smap.replicas(g)}
        violations = (checks.check_kv_reads(run["writes"], run["reads"])
                      + checks.check_kv_replicas(acked, applied))
        stats = Counter()
        for c in run["sessions"]:
            stats.update(c.stats.as_dict())
        gets = sum(self.op_get)
        completed = self.OPS - run["failed"]
        return RepResult(
            attempted=self.OPS, completed=completed,
            events=run["ev1"] - run["ev0"], sim_ns=run["t1"] - run["t0"],
            lat={"kv.get": run["lat_get"], "kv.put": run["lat_put"]},
            counters=dict(cl.counters.values),
            goodput_bytes=self.VALUE_SIZE * completed,
            extra={"gets": gets, "puts": self.OPS - gets,
                   "onesided_reads": stats["onesided_reads"]},
            violations=violations)


# ====================================================================== am
XOR_TABLE = bytes(b ^ 0x5A for b in range(256))


def am_transform(payload: bytes) -> bytes:
    """The benchmark action's reply: payload reversed, XORed with 0x5A."""
    return payload[::-1].translate(XOR_TABLE)


class AmLossy:
    """Closed-loop coalesced invocations on a 2%-lossy fabric."""

    name = "am-lossy"
    N_RANKS = 4
    OPS_PER_RANK = 5000
    CREDITS = 8
    DROP_RATE = 0.02

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.seed = seed
        n, m = self.N_RANKS, self.OPS_PER_RANK
        # every rank invokes each other rank equally often
        self.dst = [[(r + 1 + int(o)) % n
                     for o in rng.permutation(np.arange(m) % (n - 1))]
                    for r in range(n)]
        self.payload = []
        for r in range(n):
            sizes = _log_uniform(rng, 16, 257, m)
            blob = rng.bytes(sum(sizes))
            off, mine = 0, []
            for k, size in enumerate(sizes):
                mine.append(struct.pack("<I", k) + blob[off + 4:off + size])
                off += size
            self.payload.append(mine)

    def setup(self):
        cl = build_cluster(self.N_RANKS, "ib-fdr", seed=self.seed, spans=True,
                           link__loss_mode="lossy",
                           link__drop_rate=self.DROP_RATE,
                           nic__transport_retries=0)
        runs = Counter()

        def action(rt, src, payload):
            runs[(src, struct.unpack_from("<I", payload)[0])] += 1
            return am_transform(payload)

        reg = ActionRegistry()
        reg.register("xf", action)
        rts = build_runtime(cl, reg, "photon", photon=photon_init(cl),
                            am=True,
                            am_config=AmConfig(credits_per_dest=self.CREDITS))
        return {"cl": cl, "rts": rts, "handler_runs": runs}

    def measure(self, run):
        cl, rts = run["cl"], run["rts"]
        env = cl.env
        replies = {}
        lat, in_invoke = [], []
        done = [0]

        def client(r):
            rt = rts[r]
            dsts, payloads = self.dst[r], self.payload[r]
            pending = []
            for k in range(self.OPS_PER_RANK):
                t0 = env.now
                fut = yield from rt.invoke(dsts[k], "xf", payloads[k])
                in_invoke.append(env.now - t0)
                pending.append((k, fut, t0))
                if any(p[1].ready for p in pending):
                    still = []
                    for p in pending:
                        if not p[1].ready:
                            still.append(p)
                        elif not p[1].failed:  # failures count by absence
                            replies[(r, p[0])] = p[1].get()
                            lat.append(env.now - p[2])
                    pending = still
            for k, fut, t0 in pending:
                try:
                    replies[(r, k)] = yield from fut.wait(rt, WAIT_NS)
                    lat.append(env.now - t0)
                except SimulationError:
                    pass  # counted by its missing reply
            done[0] += 1
            # keep serving the other ranks until every client finished
            yield from rt.process_until(lambda: done[0] == self.N_RANKS,
                                        WAIT_NS)

        procs = [env.process(client(r), name=f"am.client.{r}")
                 for r in range(self.N_RANKS)]
        run["t0"], run["ev0"] = env.now, env.events_processed
        env.run(until=env.all_of(procs))
        run["t1"], run["ev1"] = env.now, env.events_processed
        run.update(replies=replies, lat=lat, in_invoke=in_invoke)

    def finish(self, run) -> RepResult:
        cl = run["cl"]
        expected = {(r, k): am_transform(p)
                    for r in range(self.N_RANKS)
                    for k, p in enumerate(self.payload[r])}
        violations = checks.check_am(expected, run["replies"],
                                     run["handler_runs"])
        good = [key for key, reply in run["replies"].items()
                if reply == expected[key]]
        # request and reply payloads are the same length
        goodput = sum(2 * len(self.payload[r][k]) for r, k in good)
        return RepResult(
            attempted=self.N_RANKS * self.OPS_PER_RANK, completed=len(good),
            events=run["ev1"] - run["ev0"], sim_ns=run["t1"] - run["t0"],
            lat={"runtime.invoke": run["lat"],
                 "runtime.in_invoke": run["in_invoke"]},
            counters=dict(cl.counters.values), goodput_bytes=goodput,
            violations=violations)


# ====================================================================== pwc
class PwcBulk:
    """Ring of windowed ``put_pwc`` streams with remote completions."""

    name = "pwc-bulk"
    N_RANKS = 4
    PUTS_PER_RANK = 300
    WINDOW = 8
    MIN_SIZE, MAX_SIZE = 16 * KiB, 256 * KiB
    #: source buffers per rank: more than the 128-entry registration
    #: cache, so Zipf-skewed picks give both hits and evicting misses
    POOL = 192
    POOL_THETA = 0.7
    #: bytes of seed data at the head of each source buffer; the rest
    #: stays zero, which keeps the pool's resident memory at 6 MiB per
    #: rank instead of 48 MiB
    FILL = 32 * KiB
    #: landing slots per sender at the target (reused round-robin)
    SLOTS = 32
    PATTERN = 512 * KiB

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        n, m = self.N_RANKS, self.PUTS_PER_RANK
        self.pattern = rng.bytes(self.PATTERN)
        self.pool_off = [[int(x) for x in
                          rng.integers(0, self.PATTERN - self.FILL,
                                       self.POOL)] for _ in range(n)]
        self.buf = [_zipf(rng, self.POOL, self.POOL_THETA, m)
                    for _ in range(n)]
        self.size = [_log_uniform(rng, self.MIN_SIZE, self.MAX_SIZE + 1, m)
                     for _ in range(n)]
        zeros = bytes(self.MAX_SIZE)
        self.crc = {}
        for r in range(n):
            for i in range(m):
                off, size = self.pool_off[r][self.buf[r][i]], self.size[r][i]
                head = min(size, self.FILL)
                self.crc[(r, i)] = zlib.crc32(
                    zeros[:size - head],
                    zlib.crc32(self.pattern[off:off + head]))

    def setup(self):
        cl = build_cluster(self.N_RANKS, "ib-fdr", seed=self.seed, spans=True,
                           mem_size=96 * 1024 * KiB)
        ph = photon_init(cl)
        pools, landing = [], []
        for r in range(self.N_RANKS):
            mem = cl[r].memory
            addrs = []
            for off in self.pool_off[r]:
                # a page of gap keeps neighbouring buffers from merging
                # into one registration
                addr = mem.alloc(self.MAX_SIZE + 4 * KiB, 4 * KiB)
                mem.write(addr, self.pattern[off:off + self.FILL])
                addrs.append(addr)
            pools.append(addrs)
            landing.append(ph[r].buffer(self.SLOTS * self.MAX_SIZE))
        return {"cl": cl, "ph": ph, "pools": pools, "landing": landing}

    def measure(self, run):
        cl, ph = run["cl"], run["ph"]
        env = cl.env
        n, m = self.N_RANKS, self.PUTS_PER_RANK
        t_issue: Dict = {}
        local_seen, remote_seen, lat = [], [], []

        def rank(r):
            ep, mem = ph[r], cl[r].memory
            dst = (r + 1) % n
            target = run["landing"][dst]
            mine = run["landing"][r]
            pool, bufs, sizes = run["pools"][r], self.buf[r], self.size[r]
            issued = inflight = local_done = recv_done = 0
            while local_done < m or recv_done < m:
                while issued < m and inflight < self.WINDOW:
                    i = issued
                    t_issue[(r, i)] = env.now
                    yield from ep.put_pwc(
                        dst, pool[bufs[i]], sizes[i],
                        target.addr + (i % self.SLOTS) * self.MAX_SIZE,
                        target.rkey, local_cid=i, remote_cid=(r << 20) | i)
                    issued += 1
                    inflight += 1
                c = yield from ep.wait_completion("any", timeout_ns=WAIT_NS)
                if c is None:
                    return  # stalled: the missing completions fail the check
                if c.kind == "local":
                    local_seen.append((r, c.cid, c.ok))
                    inflight -= 1
                    local_done += 1
                else:
                    src, i = c.cid >> 20, c.cid & 0xFFFFF
                    size = self.size[src][i]
                    addr = mine.addr + (i % self.SLOTS) * self.MAX_SIZE
                    remote_seen.append((src, i,
                                        zlib.crc32(mem.read(addr, size))))
                    lat.append(env.now - t_issue[(src, i)])
                    recv_done += 1

        procs = [env.process(rank(r), name=f"pwc.rank.{r}") for r in range(n)]
        run["t0"], run["ev0"] = env.now, env.events_processed
        env.run(until=env.all_of(procs))
        run["t1"], run["ev1"] = env.now, env.events_processed
        run.update(local_seen=local_seen, remote_seen=remote_seen, lat=lat)

    def finish(self, run) -> RepResult:
        cl = run["cl"]
        violations = checks.check_pwc(self.crc, run["local_seen"],
                                      run["remote_seen"])
        good = {(s, i) for s, i, crc in run["remote_seen"]
                if crc == self.crc.get((s, i))}
        return RepResult(
            attempted=self.N_RANKS * self.PUTS_PER_RANK,
            completed=len(good),
            events=run["ev1"] - run["ev0"], sim_ns=run["t1"] - run["t0"],
            lat={"photon.put_pwc": run["lat"]},
            counters=dict(cl.counters.values),
            goodput_bytes=sum(self.size[s][i] for s, i in good),
            violations=violations)


# ====================================================================== mpi
class MpiBulk:
    """minimpi isend/irecv ring exchange straddling the eager threshold."""

    name = "mpi-bulk"
    N_RANKS = 4
    MSGS_PER_RANK = 800
    #: messages per exchange round (the closed-loop window)
    BATCH = 8
    MIN_SIZE, MAX_SIZE = 1 * KiB, 64 * KiB
    LATE_FRAC = 0.25
    ANY_FRAC = 0.25
    #: how long a late receive is held back (simulated ns) — long
    #: enough for the matching message or RTS to arrive unexpected
    LATE_NS = 20_000
    PATTERN = 1024 * KiB

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.seed = seed
        n, m = self.N_RANKS, self.MSGS_PER_RANK
        self.pattern = rng.bytes(self.PATTERN)
        self.size = [_log_uniform(rng, self.MIN_SIZE, self.MAX_SIZE + 1, m)
                     for _ in range(n)]
        self.off = [[int(x) for x in rng.integers(
            0, self.PATTERN - self.MAX_SIZE, m)] for _ in range(n)]
        # receive-side properties of each message (indexed by sender)
        self.late = [_bernoulli(rng, self.LATE_FRAC, m) for _ in range(n)]
        self.anysrc = [_bernoulli(rng, self.ANY_FRAC, m) for _ in range(n)]
        self.expected = {}
        for r in range(n):
            for j in range(m):
                data = self.pattern[self.off[r][j]:
                                    self.off[r][j] + self.size[r][j]]
                self.expected[(r, j)] = (len(data), zlib.crc32(data))

    def setup(self):
        cl = build_cluster(self.N_RANKS, "ib-fdr", seed=self.seed, spans=True)
        comms = mpi_init(cl)
        src, slots = [], []
        for r in range(self.N_RANKS):
            mem = cl[r].memory
            addr = mem.alloc(self.PATTERN)
            mem.write(addr, self.pattern)
            src.append(addr)
            slots.append(mem.alloc(self.BATCH * self.MAX_SIZE))
        return {"cl": cl, "comms": comms, "src": src, "slots": slots}

    def measure(self, run):
        cl, comms = run["cl"], run["comms"]
        env = cl.env
        n, m, batch = self.N_RANKS, self.MSGS_PER_RANK, self.BATCH
        t_send: Dict = {}
        received, lat = [], []

        def rank(r):
            comm, mem = comms[r], cl[r].memory
            right, left = (r + 1) % n, (r - 1) % n
            late, anysrc = self.late[left], self.anysrc[left]
            slot0 = run["slots"][r]
            for j0 in range(0, m, batch):
                js = range(j0, min(m, j0 + batch))
                recvs = {}

                def post(j):
                    req = yield from comm.irecv(
                        slot0 + (j - j0) * self.MAX_SIZE, self.MAX_SIZE,
                        ANY_SOURCE if anysrc[j] else left, tag=j)
                    recvs[j] = req

                for j in js:
                    if not late[j]:
                        yield from post(j)
                sends = []
                for j in js:
                    t_send[(r, j)] = env.now
                    sends.append((yield from comm.isend(
                        run["src"][r] + self.off[r][j], self.size[r][j],
                        right, tag=j)))
                if any(late[j] for j in js):
                    yield env.timeout(self.LATE_NS)
                    for j in js:
                        if late[j]:
                            yield from post(j)
                for j in js:
                    if not (yield from comm.wait(recvs[j], WAIT_NS)):
                        continue  # unmatched: fails the check
                    st = recvs[j].status
                    data = mem.read(slot0 + (j - j0) * self.MAX_SIZE,
                                    st.count)
                    received.append((left, j, st.source, st.tag, st.count,
                                     zlib.crc32(data)))
                    lat.append(env.now - t_send[(left, j)])
                yield from comm.waitall(sends, WAIT_NS)

        procs = [env.process(rank(r), name=f"mpi.rank.{r}") for r in range(n)]
        run["t0"], run["ev0"] = env.now, env.events_processed
        env.run(until=env.all_of(procs))
        run["t1"], run["ev1"] = env.now, env.events_processed
        run.update(received=received, lat=lat)

    def finish(self, run) -> RepResult:
        cl = run["cl"]
        violations = checks.check_mpi(self.expected, run["received"])
        good = [x for x in run["received"]
                if (x[0], x[1]) == (x[2], x[3])
                and self.expected.get((x[2], x[3])) == (x[4], x[5])]
        return RepResult(
            attempted=self.N_RANKS * self.MSGS_PER_RANK,
            completed=len(good),
            events=run["ev1"] - run["ev0"], sim_ns=run["t1"] - run["t0"],
            lat={"minimpi.xfer": run["lat"]},
            counters=dict(cl.counters.values),
            goodput_bytes=sum(x[4] for x in good),
            violations=violations)


WORKLOADS = {w.name: w for w in (KvZipf, AmLossy, PwcBulk, MpiBulk)}
