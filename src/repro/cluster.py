"""Cluster assembly: wire N simulated ranks together.

This is the shared bootstrap used by tests, examples and every benchmark:
it builds the event loop, topology, per-rank memory/NIC/verbs context, and
offers helpers for running one program per rank SPMD-style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from .fabric.memory import Memory
from .fabric.nic import Nic
from .fabric.params import FabricParams, preset
from .fabric.topology import Topology, make_topology
from .obs.registry import MetricsRegistry
from .sim.core import Environment, Process
from .sim.rng import RngRegistry
from .sim.trace import DEFAULT_TRACE_CAP, Tracer
from .util.units import MiB
from .verbs.device import Context, Directory

__all__ = ["RankNode", "Cluster", "build_cluster"]


@dataclass
class RankNode:
    """Everything one simulated rank owns."""

    rank: int
    memory: Memory
    nic: Nic
    context: Context


class Cluster:
    """N ranks on a shared fabric (see :func:`build_cluster`)."""

    def __init__(self, env: Environment, params: FabricParams,
                 topology: Topology, ranks: List[RankNode],
                 directory: Directory, tracer: Tracer, rng: RngRegistry,
                 metrics: Optional[MetricsRegistry] = None):
        self.env = env
        self.params = params
        self.topology = topology
        self.ranks = ranks
        self.directory = directory
        self.tracer = tracer
        self.rng = rng
        #: per-rank metrics registry (scoped counters, histograms, spans)
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry(len(ranks))
        #: cluster-wide counter totals, derived read-only from the scopes
        self.counters = self.metrics.aggregate

    def scope(self, rank: int):
        """The per-rank counter scope (see :class:`repro.obs.registry`)."""
        return self.metrics.scope(rank)

    @property
    def n(self) -> int:
        return len(self.ranks)

    def __getitem__(self, rank: int) -> RankNode:
        return self.ranks[rank]

    def spawn(self, rank: int, generator, name: Optional[str] = None) -> Process:
        """Run a generator as a process attributed to ``rank``."""
        return self.env.process(generator, name=name or f"rank{rank}")

    def run_spmd(self, program: Callable[..., object], *args,
                 until: Optional[int] = None) -> List:
        """Run ``program(cluster, rank, *args)`` on every rank; returns the
        per-rank results once all complete."""
        procs = [self.spawn(r, program(self, r, *args)) for r in range(self.n)]
        done = self.env.all_of(procs)
        self.env.run(until=done if until is None else until)
        return [p.value for p in procs]


def build_cluster(n: int,
                  params: Union[str, FabricParams] = "ib-fdr",
                  topology: Optional[str] = None,
                  mem_size: int = 64 * MiB,
                  seed: int = 0,
                  trace: bool = False,
                  spans: bool = False,
                  trace_max_records: int = DEFAULT_TRACE_CAP,
                  **overrides) -> Cluster:
    """Assemble a cluster of ``n`` ranks.

    Parameters
    ----------
    params:
        A preset name (``"ib-fdr"``, ``"ib-edr"``, ``"gemini"``, ``"roce"``,
        ``"eth-10g"``) or a :class:`FabricParams` instance.
    topology:
        Override the preset's topology ("star" or "torus2d").
    spans:
        Record per-op latency spans in the metrics registry (host-side
        only; cannot perturb simulated time).
    trace_max_records:
        Ring capacity of the tracer's record store.
    overrides:
        Nested parameter overrides, e.g. ``link__mtu=1024``.
    """
    if isinstance(params, str):
        params = preset(params)
    if overrides:
        params = params.with_overrides(**overrides)
    env = Environment()
    metrics = MetricsRegistry(n, spans_enabled=spans)
    tracer = Tracer(enabled=trace, max_records=trace_max_records)
    rng = RngRegistry(seed)
    topo = make_topology(topology or params.topology, env, n,
                         params.link, metrics.fabric, rng=rng)
    directory = Directory()
    ranks: List[RankNode] = []
    for r in range(n):
        scope = metrics.scope(r)
        memory = Memory(mem_size, params.host, rank=r)
        nic = Nic(env, r, params, memory, topo, scope, tracer)
        context = Context(env, r, nic, memory, params, directory, scope)
        ranks.append(RankNode(rank=r, memory=memory, nic=nic, context=context))
    return Cluster(env, params, topo, ranks, directory, tracer, rng,
                   metrics=metrics)
