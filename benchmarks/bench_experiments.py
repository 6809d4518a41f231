"""Benchmarks R1–R23 — regenerate every experiment table (DESIGN.md §4).

Each item runs one registered experiment in quick mode under
pytest-benchmark and asserts its qualitative shape checks.  The
benchmark clock measures host wall time of the simulation; the tables
report simulated-time metrics, except R18 and R22, whose tables are
themselves host wall-clock measurements (loose machine-independent
floors; exact numbers come from ``python -m repro.bench --timing``).
"""

import pytest

from repro.bench.experiments import ALL


@pytest.mark.parametrize("module", list(ALL.values()), ids=list(ALL))
def test_experiment(benchmark, module):
    result = benchmark.pedantic(module.run, kwargs={"quick": True},
                                rounds=1, iterations=1)
    print()
    print(result.render())
    assert result.all_checks_pass, \
        f"shape checks failed: {result.failed_checks()}"
