"""Each output check passes on a real (small) repetition and fires on a
violation planted into that repetition's records."""

import copy
from collections import Counter

import pytest

import checks
import workloads


class SmallKv(workloads.KvZipf):
    OPS = 150


class SmallAm(workloads.AmLossy):
    OPS_PER_RANK = 150


class SmallPwc(workloads.PwcBulk):
    PUTS_PER_RANK = 12


class SmallMpi(workloads.MpiBulk):
    MSGS_PER_RANK = 24


def _rep(cls, seed=3):
    w = cls(seed)
    run = w.setup()
    w.measure(run)
    res = w.finish(run)
    assert res.violations == []
    assert res.completed == res.attempted
    return w, run, res


@pytest.fixture(scope="module")
def kv():
    return _rep(SmallKv)


@pytest.fixture(scope="module")
def am():
    return _rep(SmallAm)


@pytest.fixture(scope="module")
def pwc():
    return _rep(SmallPwc)


@pytest.fixture(scope="module")
def mpi():
    return _rep(SmallMpi)


# ------------------------------------------------------------------ kv-zipf
def test_kv_read_of_unwritten_value_fires(kv):
    _w, run, _res = kv
    reads = list(run["reads"])
    session, key, _value, t0, t1 = reads[0]
    reads[0] = (session, key, b"c999:s1:never-written", t0, t1)
    assert checks.check_kv_reads(run["writes"], run["reads"]) == []
    assert "no put wrote" in checks.check_kv_reads(run["writes"], reads)[0]


def test_kv_read_of_value_written_to_another_key_fires(kv):
    _w, run, _res = kv
    reads = list(run["reads"])
    session, key, value, t0, t1 = reads[0]
    other = next(v for v, (k, _a, _b) in run["writes"].items() if k != key)
    reads[0] = (session, key, other, t0, t1)
    assert checks.check_kv_reads(run["writes"], reads)


def test_kv_non_monotonic_session_read_fires(kv):
    _w, run, _res = kv
    key = b"kv:planted"
    writes = dict(run["writes"])
    writes[b"old"] = (key, 100, 200)
    writes[b"new"] = (key, 300, 400)
    ok = [(1, key, b"old", 500, 510), (1, key, b"new", 520, 530)]
    assert checks.check_kv_reads(writes, ok) == []
    bad = [(1, key, b"new", 500, 510), (1, key, b"old", 520, 530)]
    assert "after the newer" in checks.check_kv_reads(writes, bad)[0]
    # another session may still see the older write: no violation
    other = [(1, key, b"new", 500, 510), (2, key, b"old", 520, 530)]
    assert checks.check_kv_reads(writes, other) == []


def test_kv_missing_replica_apply_fires(kv):
    w, run, _res = kv
    nodes = run["nodes"]
    smap = nodes[0].shard_map
    acked = [(c, s, smap.group_of(k)) for cl in run["sessions"]
             for (c, s, _op, k, _v) in cl.acked]
    assert acked
    applied = {(r, g): set(nodes[r].machines[g].applied_uids)
               for g in range(w.N_GROUPS) for r in smap.replicas(g)}
    assert checks.check_kv_replicas(acked, applied) == []
    client, seq, group = acked[0]
    victim = smap.replicas(group)[-1]
    applied[(victim, group)].discard((client, seq))
    out = checks.check_kv_replicas(acked, applied)
    assert out and f"replica {victim}" in out[0]


# ------------------------------------------------------------------ am-lossy
def _am_expected(w):
    return {(r, k): workloads.am_transform(p)
            for r in range(w.N_RANKS) for k, p in enumerate(w.payload[r])}


def test_am_wrong_reply_fires(am):
    w, run, _res = am
    expected = _am_expected(w)
    replies = dict(run["replies"])
    key = next(iter(replies))
    replies[key] = replies[key][:-1] + b"?"
    assert "replied" in checks.check_am(expected, replies,
                                        run["handler_runs"])[0]


def test_am_handler_run_twice_fires(am):
    w, run, _res = am
    runs = Counter(run["handler_runs"])
    key = next(iter(run["replies"]))
    runs[key] += 1
    assert "2 times" in checks.check_am(_am_expected(w), run["replies"],
                                        runs)[0]


def test_am_handler_never_ran_fires(am):
    w, run, _res = am
    runs = Counter(run["handler_runs"])
    del runs[next(iter(run["replies"]))]
    assert checks.check_am(_am_expected(w), run["replies"], runs)


# ------------------------------------------------------------------ pwc-bulk
def test_pwc_duplicate_remote_completion_fires(pwc):
    w, run, _res = pwc
    remote = list(run["remote_seen"]) + [run["remote_seen"][0]]
    assert "2 times" in checks.check_pwc(w.crc, run["local_seen"], remote)[0]


def test_pwc_missing_local_completion_fires(pwc):
    w, run, _res = pwc
    assert checks.check_pwc(w.crc, run["local_seen"][1:], run["remote_seen"])


def test_pwc_corrupt_landing_fires(pwc):
    w, run, _res = pwc
    remote = copy.copy(run["remote_seen"])
    s, i, crc = remote[3]
    remote[3] = (s, i, crc ^ 1)
    assert "landed bytes" in checks.check_pwc(w.crc, run["local_seen"],
                                              remote)[0]


# ------------------------------------------------------------------ mpi-bulk
def test_mpi_corrupt_bytes_fire(mpi):
    w, run, _res = mpi
    received = list(run["received"])
    a, b, c, d, count, crc = received[5]
    received[5] = (a, b, c, d, count, crc ^ 1)
    assert "expected" in checks.check_mpi(w.expected, received)[0]


def test_mpi_double_match_fires(mpi):
    w, run, _res = mpi
    received = list(run["received"]) + [run["received"][0]]
    assert "matched 2 times" in checks.check_mpi(w.expected, received)[0]


def test_mpi_wrong_match_fires(mpi):
    w, run, _res = mpi
    received = list(run["received"])
    a, b, _c, d, count, crc = received[0]
    received[0] = (a, b, (a + 1) % w.N_RANKS, d, count, crc)
    assert checks.check_mpi(w.expected, received)


def test_digest_covers_simulated_outputs(mpi):
    _w, _run, res = mpi
    other = copy.deepcopy(res)
    other.lat["minimpi.xfer"][0] += 1
    assert other.digest() != res.digest()
    other = copy.deepcopy(res)
    other.events += 1
    assert other.digest() != res.digest()
