"""R21 — snapshots under chaos: compaction, crash-restart rejoin, a
live shard move.

The closing piece of the repro.kv story: PR 7 left the store with
unbounded Raft logs behind any laggard, no way to readmit a restarted
replica, and a static key ring.  This experiment drives all three new
mechanisms through one sustained write run and audits the contract:

1. **Bounded logs** — writes run continuously with a small
   ``compact_threshold``; a follower is partitioned long enough for the
   leaders to trim *past* it.  A sampler records the worst retained
   applied suffix ever seen on any live replica; it must stay within
   ``compact_threshold + compact_margin`` (plus an in-flight batch of
   slack mid-run, exactly zero slack at quiescence).
2. **Crash-restart rejoin** — chaos crashes the group-0 leader mid
   burst and restarts it in place; the reseeded replica (empty log, no
   machine) must converge through the InstallSnapshot stream, never by
   replaying a trimmed prefix.  The healed partitioned follower must
   also catch up via a snapshot, since the leader compacted past it.
3. **Live shard move** — while the writers are still running, group 1's
   whole key range is sealed, copied and flipped into group 0
   (:func:`repro.kv.move.move_group`).  In-flight clients see
   ``WRONG_EPOCH``, refetch the ring and retry with the same session
   uids, so the move is invisible in the ack ledger.
4. **Zero acked-write loss** — every acknowledged write uid must be
   present in the state machine of *every* replica of the key's final
   owner group, crash, partition and move notwithstanding.
"""

from __future__ import annotations

from typing import Optional

from ...chaos import (ChaosController, CrashRank, FaultSchedule, HealEvent,
                      PartitionEvent, RestartRank)
from ...chaos.invariants import (InvariantViolation, check_log_bounded,
                                 check_membership_monotonic)
from ...cluster import build_cluster
from ...kv import KVClient, KVConfig, RaftConfig, build_kv, move_group
from ...kv.shard import ST_OK
from ...kv.workload import value_for
from ...photon import photon_init
from ...runtime.health import HealthConfig, build_health
from ..result import ExperimentResult

HB_PERIOD = 50_000
PHI_DEAD = 6.0

N_RANKS = 6
N_GROUPS = 2
RF = 3
VALUE_SIZE = 64
#: small on purpose: trimming must fire many times inside the run
COMPACT_THRESHOLD = 16
COMPACT_MARGIN = 4
#: shorter than the phi-dead budget (~690 us) so the partitioned
#: follower is SUSPECT, never sticky-DEAD — the cut is a gray event the
#: log bound has to survive, not a membership change
PARTITION_NS = 500_000
#: applies can land in one server-loop batch before the snapshot tick
#: fires; the mid-run sampler grants that much grace, quiescence none
SAMPLER_SLACK = 32
#: simulated-time budget per issued write (a healthy run needs ~17 us):
#: a wedged store fails the "finished" check instead of spinning
SIM_NS_PER_WRITE = 40_000


def _build(seed: int):
    cl = build_cluster(N_RANKS, "ib-fdr", seed=seed, spans=True)
    ph = photon_init(cl)
    monitors = build_health(cl, HealthConfig(period_ns=HB_PERIOD,
                                             phi_dead=PHI_DEAD))
    cfg = KVConfig(n_groups=N_GROUPS, rf=RF,
                   raft=RaftConfig(compact_threshold=COMPACT_THRESHOLD,
                                   compact_margin=COMPACT_MARGIN))
    nodes = build_kv(cl, ph, cfg, monitors=monitors)
    return cl, ph, monitors, nodes


def _leaders_ready(nodes) -> bool:
    return all(any(n.is_leader(g) for n in nodes) for g in range(N_GROUPS))


def run_chaos_move(quick: bool = True, seed: int = 404,
                   crash: str = "leader") -> dict:
    """Sustained writes + partition + crash/restart + one live move.

    ``crash`` picks the victim: the group-0 ``"leader"`` at schedule
    time, or a ``"follower"`` of group 0 — both must rejoin through a
    snapshot install after restart.
    """
    n_ops = 700 if quick else 1600
    think_ns = 1_000
    cl, ph, monitors, nodes = _build(seed)
    env = cl.env
    # ranks with no replica host the clients (writes always cross the
    # wire, like R20's serving arms)
    free = [r for r in range(N_RANKS)
            if not nodes[r].shard_map.groups_on(r)]
    writers = [KVClient(nodes[free[c % len(free)]], client_id=c + 1)
               for c in range(2)]
    lagger = max(nodes[0].shard_map.replicas(1))   # group-1-only replica
    out = {"victim": None, "move": None, "max_retained": 0}

    def writer(client, wid):
        keys = [f"r21:w{wid}:{i:04d}".encode() for i in range(40)]
        for i in range(n_ops):
            v = value_for(client.client_id, client.seq + 1, VALUE_SIZE)
            yield from client.put(keys[i % len(keys)], v)
            yield env.timeout(think_ns)

    def chaos(env):
        while not _leaders_ready(nodes):
            yield env.timeout(HB_PERIOD)
        t0 = env.now
        group0 = nodes[0].shard_map.replicas(0)
        leader0 = next(n.rank for n in nodes if n.is_leader(0))
        victim = leader0 if crash == "leader" else \
            next(r for r in group0 if r != leader0 and r != lagger)
        out["victim"] = victim
        others = tuple(r for r in range(N_RANKS) if r != lagger)
        sched = FaultSchedule([
            PartitionEvent(t0 + 300_000, (lagger,), others),
            HealEvent(t0 + 300_000 + PARTITION_NS),
            CrashRank(t0 + 1_200_000, victim),
            RestartRank(t0 + 3_600_000, victim),
        ])
        ctrl = ChaosController(cl, sched, photon=ph, monitors=monitors,
                               kv=nodes)
        ctrl.arm()
        out["ctrl"] = ctrl
        out["t0"] = t0

    def sampler(env):
        # worst applied suffix ever retained on any live replica
        while not out.get("writers_done"):
            for node in nodes:
                for g, rn in node.raft.items():
                    if rn.snapshot_fn is None:
                        continue
                    out["max_retained"] = max(
                        out["max_retained"], rn.last_applied - rn.base_index)
            yield env.timeout(HB_PERIOD)

    def mover(env):
        # flip mid-stream, but only after the restart has happened so
        # the move also exercises a freshly rejoined replica
        total = 2 * n_ops
        while (sum(len(c.acked) for c in writers) < (6 * total) // 10
               or out["victim"] is None
               or env.now < out.get("t0", 0) + 4_200_000):
            yield env.timeout(2 * HB_PERIOD)
        out["move"] = yield from move_group(nodes, 1, 0, via_rank=free[0])

    def post_move_probe(env):
        # fresh traffic after the flip must be served by the new owner
        probe = KVClient(nodes[free[-1]], client_id=77)
        ok = 0
        for i in range(20):
            key = f"r21:post:{i:03d}".encode()
            st = yield from probe.put(key, b"post-move-" + bytes([i]))
            st2, val = yield from probe.get(key)
            ok += (st == ST_OK and st2 == ST_OK
                   and val == b"post-move-" + bytes([i]))
        out["post_move_ok"] = ok
        out["probe"] = probe

    def driver(env):
        yield env.process(chaos(env), name="r21.chaos")
        wprocs = [env.process(writer(c, i), name=f"r21.w{i}")
                  for i, c in enumerate(writers)]
        env.process(sampler(env), name="r21.sampler")
        mproc = env.process(mover(env), name="r21.mover")
        yield env.all_of(wprocs)
        out["writers_done"] = True
        yield mproc
        yield from post_move_probe(env)
        # let follower apply loops and the rejoined replica drain
        yield env.timeout(40 * HB_PERIOD)

    done = env.process(driver(env), name="r21.driver")
    env.run(until=env.any_of(
        [done, env.timeout(2 * n_ops * SIM_NS_PER_WRITE)]))

    victim = out["victim"]
    probe = [out["probe"]] if "probe" in out else []
    acked = [t for c in writers + probe for t in c.acked]
    owners = {}   # final owner group per key (post-flip ring)
    lost = {}
    smap = nodes[0].shard_map
    for (c, s, _op, k, _v) in acked:
        owners.setdefault(k, smap.group_of(k))
    for rank in smap.replicas(0):
        sm = nodes[rank].machines.get(0)  # None: crashed, never back
        applied = sm.applied_uids if sm is not None else set()
        lost[rank] = sorted(
            (c, s) for (c, s, _op, k, _v) in acked
            if owners[k] == 0 and (c, s) not in applied)
    # per-replica apply lag behind its group's most advanced replica
    # (None: the replica holds no state — it never came back)
    lag = {}
    for g in range(N_GROUPS):
        applied = {rk: nodes[rk].raft[g].last_applied
                   for rk in smap.replicas(g) if g in nodes[rk].raft}
        top = max(applied.values(), default=0)
        lag[g] = {rk: top - applied[rk] if rk in applied else None
                  for rk in smap.replicas(g)}
    victim_installs = (0 if victim is None else
                       sum(rn.snapshot_installs
                           for rn in nodes[victim].raft.values()))
    lagger_installs = nodes[lagger].raft[1].snapshot_installs
    log_bounded_final = True
    try:
        check_log_bounded(nodes, slack=0)
    except InvariantViolation:
        log_bounded_final = False
    out.update({
        "finished": done.triggered,
        "replica_lag": lag,
        "cluster": cl, "nodes": nodes, "monitors": monitors,
        "writers": writers, "n_ops": 2 * n_ops,
        "acked": len({(c, s) for (c, s, *_r) in acked}),
        "lost_per_replica": lost,
        "victim_installs": victim_installs,
        "lagger_installs": lagger_installs,
        "log_bounded_final": log_bounded_final,
        "wrong_epoch": sum(c.stats.wrong_epoch for c in writers),
        "map_refreshes": sum(c.stats.map_refreshes for c in writers),
        "snapshot_bytes": sum(
            cl.scope(r).values.get("kv.raft.snapshot_bytes", 0)
            for r in range(N_RANKS)),
        "install_spans": cl.metrics.span_durations("kv.raft.install"),
    })
    return out


def run(quick: bool = True, scenario: Optional[dict] = None) \
        -> ExperimentResult:
    r = scenario if scenario is not None else run_chaos_move(quick)
    move = r["move"] or {}
    bound = COMPACT_THRESHOLD + COMPACT_MARGIN
    installs = r["install_spans"]
    rows = [
        ["writes", r["acked"], f"{r['n_ops']} issued", "-"],
        ["log bound", r["max_retained"],
         f"limit {bound}+{SAMPLER_SLACK} slack", r["log_bounded_final"]],
        ["restart rejoin", r["victim_installs"],
         f"victim r{r['victim']}", "-"],
        ["partition catch-up", r["lagger_installs"], "snapshot installs",
         "-"],
        ["move", move.get("moved_bytes", 0),
         f"epoch {move.get('epoch', 0)}, "
         f"{r['wrong_epoch']} wrong-epoch bounces",
         r.get("post_move_ok", 0)],
        ["install spans", len(installs),
         f"max {max(installs) / 1000.0:.0f}us" if installs else "-", "-"],
        ["replica lag", max(v or 0 for lags in r["replica_lag"].values()
                            for v in lags.values()),
         "; ".join(f"g{g} " + " ".join(f"r{rk}:{'-' if v is None else v}"
                                       for rk, v in lags.items())
                   for g, lags in r["replica_lag"].items()), "-"],
    ]
    checks = {
        "run finished inside its simulated-time budget": r["finished"],
        "every issued write was eventually acked exactly once":
            r["acked"] == r["n_ops"] + 20,  # writers + post-move probes
        "zero acked-write loss on every final-owner replica":
            all(v == [] for v in r["lost_per_replica"].values())
            and len(r["lost_per_replica"]) == RF,
        "restarted replica rejoined via snapshot install":
            r["victim_installs"] >= 1,
        "partitioned follower caught up via snapshot install":
            r["lagger_installs"] >= 1,
        "retained log bounded mid-run (threshold+margin+slack)":
            0 < r["max_retained"] <= bound + SAMPLER_SLACK,
        "retained log bounded at quiescence (no slack)":
            r["log_bounded_final"],
        "live move completed and bumped the epoch":
            move.get("epoch") == 1 and move.get("moved_bytes", 0) > 0,
        "in-flight clients crossed the epoch flip":
            r["wrong_epoch"] >= 1 and r["map_refreshes"] >= 1,
        "post-move traffic serves from the new owner":
            r.get("post_move_ok", 0) == 20,
        "membership stayed monotonic on every monitor":
            _membership_ok(r["monitors"]),
    }
    fo_note = (f"victim r{r['victim']} rejoined with "
               f"{r['victim_installs']} install(s); lagger installs "
               f"{r['lagger_installs']}; move {move.get('moved_bytes', 0)}B "
               f"at epoch {move.get('epoch')}; worst retained log "
               f"{r['max_retained']} (bound {bound})")
    return ExperimentResult(
        exp_id="R21",
        title="repro.kv snapshots under chaos: bounded logs, "
              "crash-restart rejoin via InstallSnapshot, live shard move",
        headers=["phase", "count", "detail", "ok"],
        rows=rows,
        checks=checks,
        notes=fo_note)


def _membership_ok(monitors) -> bool:
    try:
        for mon in monitors:
            check_membership_monotonic(mon)
        return True
    except AssertionError:
        return False
