"""Output checks run on every repetition, after its timed phase.

Each check takes plain records (tuples, dicts) that the workload code
collects while it runs, and returns a list of violation strings; an
empty list means the outputs are correct.  Keeping them free of cluster
objects lets the tests plant a violation and watch each check fire.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

#: cap on violations reported per check (the first few explain a failure)
MAX_REPORTED = 8


def _capped(violations: List[str]) -> List[str]:
    if len(violations) > MAX_REPORTED:
        extra = len(violations) - MAX_REPORTED
        return violations[:MAX_REPORTED] + [f"... and {extra} more"]
    return violations


# ------------------------------------------------------------------ kv-zipf
def check_kv_reads(writes: Dict[bytes, Tuple[bytes, int, int]],
                   reads: Sequence[Tuple[int, bytes, bytes, int, int]]
                   ) -> List[str]:
    """Every read returns a value some put wrote to that key, and each
    session's reads of one key never go back in time.

    ``writes`` maps each written value to ``(key, t_invoke, t_ack)``
    (simulated ns; ``t_ack`` is None for a put that was never
    acknowledged).  ``reads`` holds ``(session, key, value, t_invoke,
    t_done)`` in each session's issue order.  Values are unique per
    write, so a value names its write.  "Back in time" uses the
    real-time order only: write A precedes write B when A was
    acknowledged before B was invoked.  A session that has seen B and
    then reads A violates per-key monotonic reads.
    """
    out: List[str] = []
    last: Dict[Tuple[int, bytes], bytes] = {}
    for session, key, value, _t0, _t1 in reads:
        w = writes.get(value)
        if w is None or w[0] != key:
            out.append(f"session {session} read {value[:24]!r} for {key!r}"
                       f", which no put wrote to that key")
            continue
        prev = last.get((session, key))
        if prev is not None and prev != value:
            p = writes[prev]
            if w[2] is not None and w[2] < p[1]:
                out.append(f"session {session} read {value[:24]!r} after "
                           f"the newer {prev[:24]!r} for {key!r}")
                continue
        last[(session, key)] = value
    return _capped(out)


def check_kv_replicas(acked: Iterable[Tuple[int, int, int]],
                      applied: Dict[Tuple[int, int], set]) -> List[str]:
    """After a drain, every acknowledged put is applied on every replica
    of its group.

    ``acked`` holds ``(client, seq, group)``; ``applied`` maps
    ``(rank, group)`` to that replica's applied ``(client, seq)`` uids
    and lists every replica of every group.
    """
    out = []
    replicas: Dict[int, List[int]] = {}
    for rank, group in sorted(applied):
        replicas.setdefault(group, []).append(rank)
    for client, seq, group in acked:
        for rank in replicas.get(group, []):
            if (client, seq) not in applied[(rank, group)]:
                out.append(f"acked put c{client}:s{seq} missing on replica "
                           f"{rank} of group {group}")
    return _capped(out)


# ------------------------------------------------------------------ am-lossy
def check_am(expected: Dict[Tuple[int, int], bytes],
             replies: Dict[Tuple[int, int], bytes],
             handler_runs: Counter) -> List[str]:
    """Every reply equals its expected transform, and each (source,
    invocation) ran its handler exactly once.

    ``expected`` lists every attempted invocation; ``replies`` those that
    completed.  A failed invocation may have run its handler at most
    once; no handler may run for an invocation nobody made.
    """
    out = []
    for key, reply in replies.items():
        if reply != expected.get(key):
            out.append(f"invocation {key} replied {reply[:16]!r}, expected "
                       f"{expected.get(key, b'')[:16]!r}")
    for key in expected:
        runs = handler_runs.get(key, 0)
        if key in replies and runs != 1:
            out.append(f"invocation {key} ran its handler {runs} times")
        elif runs > 1:
            out.append(f"failed invocation {key} ran its handler {runs} "
                       f"times")
    for key in handler_runs:
        if key not in expected:
            out.append(f"handler ran for unknown invocation {key}")
    return _capped(out)


# ------------------------------------------------------------------ pwc-bulk
def check_pwc(expected_crc: Dict[Tuple[int, int], int],
              local_seen: Sequence[Tuple[int, int, bool]],
              remote_seen: Sequence[Tuple[int, int, int]]) -> List[str]:
    """Each completion id surfaces exactly once, and the landed bytes
    match.

    ``expected_crc`` maps every put ``(src, i)`` to the CRC-32 of its
    source bytes.  ``local_seen`` holds ``(src, i, ok)`` per local
    completion; ``remote_seen`` holds ``(src, i, crc)`` per remote
    completion, the CRC taken over the landing slot when the target saw
    the completion.
    """
    out = []
    local = Counter((s, i) for s, i, _ok in local_seen)
    remote = Counter((s, i) for s, i, _crc in remote_seen)
    for key in expected_crc:
        if local.get(key, 0) != 1:
            out.append(f"put {key}: local completion surfaced "
                       f"{local.get(key, 0)} times")
        if remote.get(key, 0) != 1:
            out.append(f"put {key}: remote completion surfaced "
                       f"{remote.get(key, 0)} times")
    for s, i, ok in local_seen:
        if not ok:
            out.append(f"put {(s, i)}: local completion reports an error")
    for s, i, crc in remote_seen:
        if (s, i) not in expected_crc:
            out.append(f"unknown remote completion {(s, i)}")
        elif crc != expected_crc[(s, i)]:
            out.append(f"put {(s, i)}: landed bytes differ from the source")
    return _capped(out)


# ------------------------------------------------------------------ mpi-bulk
def check_mpi(expected: Dict[Tuple[int, int], Tuple[int, int]],
              received: Sequence[Tuple[int, int, int, int, int, int]]
              ) -> List[str]:
    """Received bytes match, and each message is matched once.

    ``expected`` maps each message ``(src, tag)`` to ``(size, crc)``.
    ``received`` holds one ``(want_src, want_tag, status_source,
    status_tag, count, crc)`` per completed receive.
    """
    out = []
    matched = Counter()
    for want_src, want_tag, src, tag, count, crc in received:
        if (src, tag) != (want_src, want_tag):
            out.append(f"receive for {(want_src, want_tag)} matched "
                       f"{(src, tag)}")
        matched[(src, tag)] += 1
        exp = expected.get((src, tag))
        if exp is None:
            out.append(f"received unknown message {(src, tag)}")
        elif (count, crc) != exp:
            out.append(f"message {(src, tag)}: {count} B with crc {crc:#x},"
                       f" expected {exp[0]} B with crc {exp[1]:#x}")
    for key in expected:
        if matched.get(key, 0) != 1:
            out.append(f"message {key} matched {matched.get(key, 0)} times")
    return _capped(out)
