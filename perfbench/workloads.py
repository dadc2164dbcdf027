"""The benchmark's workloads: what each one runs, and why it was chosen.

Every workload is a tiny-scale run (30 simulated seconds, the paper's
timeline compressed 20x) driven through the public ``Experiment`` API.
The seed is the only input the benchmark varies; it reaches the program
only as ``Experiment(seed=...)``.

Each ``why`` says why the workload was chosen and where its layer
metrics should and should not show; ``README.md`` has the full table.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 2009

#: Each invocation runs this many experiments, each with its own seed
#: derived from the benchmark seed; their pooled outcomes are steadier
#: than any single seed's.
SUBSEEDS = 8


def subseeds(seed: int):
    """The experiment seeds one benchmark seed stands for; the first is
    the benchmark seed itself."""
    return [seed + i * 1_000_003 for i in range(SUBSEEDS)]


@dataclass(frozen=True)
class Workload:
    name: str
    crash: bool       # injects one replica crash with watchdog recovery
    sharded: bool     # runs repro.shard (router + 2PC)
    open_loop: bool   # arrivals from repro.load instead of RBE processes
    why: str

    def experiment(self, seed: int):
        """The configured ``Experiment`` for this workload and seed."""
        from repro.harness import Experiment
        from repro.harness.config import tiny_scale

        if self.name == "browse-closed":
            return (Experiment(scale=tiny_scale(), seed=seed, replicas=5)
                    .load("closed", wips=1900, mix="browsing")
                    .baseline())
        if self.name == "order-open-crash":
            return (Experiment(scale=tiny_scale(), seed=seed, replicas=5)
                    .load("open", wips=1000, population=1_000_000,
                          mix="ordering")
                    .one_crash())
        if self.name == "shop-sharded-crash":
            return (Experiment(scale=tiny_scale(), seed=seed, replicas=3)
                    .shards(2)
                    .load("closed", wips=1900, mix="shopping")
                    .one_crash())
        raise ValueError(f"unknown workload {self.name!r}")


WORKLOADS = {w.name: w for w in (
    Workload(
        "browse-closed", crash=False, sharded=False, open_loop=False,
        why="No-fault control: 5 replicas, closed loop, browsing mix; local "
            "reads, so kernel/net/web/TPC-W reads carry it; paxos and disk "
            "flat, shard.*, load.open_* and recovery.* 0"),
    Workload(
        "order-open-crash", crash=True, sharded=False, open_loop=True,
        why="5 replicas, open loop of 1M users at 1000 WIPS, ordering mix, "
            "1 crash: half are ordered writes, so paxos, disk, treplica and "
            "recovery.* show; shard.* 0"),
    Workload(
        "shop-sharded-crash", crash=True, sharded=True, open_loop=False,
        why="2 shards x 3 replicas, closed loop, shopping mix, 1 crash: the "
            "only run of repro.shard (router, 2PC, sharded fault plumbing), "
            "so shard.* shows; load.open_* 0"),
)}
