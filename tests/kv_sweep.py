"""R21 seed sweep: every check, over seeds 1-12 x {leader, follower}.

Not collected by the default ``tests/`` run (the file name has no
``test_`` prefix); run it explicitly::

    PYTHONPATH=src python -m pytest -q tests/kv_sweep.py

Each run is bounded in simulated time (``SIM_NS_PER_WRITE`` in
:mod:`repro.bench.experiments.r21_snapshots`), so a wedged store fails
the "finished" check instead of spinning.  Runs that still fail are
strict ``xfail`` naming their defect: the day one passes, the marker
has to go.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import r21_snapshots

#: acked writes to keys that lived in group 1 before the live move are
#: missing from every group-0 replica's uid set after the merge (the
#: keys themselves hold later values): uid state is lost across
#: OP_MERGE and snapshots.  ROADMAP item 3.
MERGE_UID_LOSS = ("merge-uid residual: acked uids of pre-move group-1 keys "
                  "are lost across OP_MERGE/snapshots (ROADMAP item 3)")

KNOWN = {(1, "follower"): MERGE_UID_LOSS, (3, "leader"): MERGE_UID_LOSS,
         (6, "follower"): MERGE_UID_LOSS}


def _cases():
    for seed in range(1, 13):
        for crash in ("leader", "follower"):
            marks = ()
            if (seed, crash) in KNOWN:
                marks = pytest.mark.xfail(reason=KNOWN[(seed, crash)],
                                          strict=True)
            yield pytest.param(seed, crash, marks=marks,
                               id=f"seed{seed}-{crash}")


@pytest.mark.parametrize("seed,crash", list(_cases()))
def test_r21_passes_every_check(seed, crash):
    scenario = r21_snapshots.run_chaos_move(quick=True, seed=seed,
                                            crash=crash)
    result = r21_snapshots.run(quick=True, scenario=scenario)
    failed = [name for name, ok in result.checks.items() if not ok]
    assert failed == [], f"seed {seed} crash={crash}: {failed}"
