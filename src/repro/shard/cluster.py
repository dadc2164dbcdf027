"""What a partitioned deployment adds to the paper's.

:class:`~repro.harness.cluster.RobustStoreCluster` builds one
:class:`~repro.harness.cluster.ReplicaGroup` per shard (generalizing
Figure 2 of the paper):

* ``s<g>.replica0..n`` -- shard ``g``'s replica tier: a full
  Paxos+Treplica group, booted from the same cloned population as every
  other group but *owning* only its key ranges
  (:class:`~repro.shard.partition.Partitioner`);
* ``proxy`` -- one :class:`~repro.shard.router.ShardRouter` mapping each
  interaction to its home shard and balancing inside that group only;
* ``client0..m`` -- the unchanged RBE fleet.

Recovery stays **per group**: each shard has its own watchdogs,
checkpoints, and recovery-event log entries (tagged with the shard id),
and a crash in one group never stalls the others' pipelines -- that
independence is exactly the scaling argument the shard benchmarks
measure.

:class:`ShardWiring` holds the pieces only a sharded deployment has: the
partitioner, the 2PC endpoints and shard-aware facade of every replica,
and the router.
"""

from __future__ import annotations

from repro.shard.database import ShardedTPCWDatabase
from repro.shard.partition import Partitioner
from repro.shard.router import ShardRouter
from repro.shard.txn import TxnCoordinator, TxnParticipant
# Not called here: perfbench's traced sharded run patches this name.
from repro.tpcw.population import populate  # noqa: F401


class ShardWiring:
    """The k > 1 parts of one :class:`RobustStoreCluster`."""

    def __init__(self, cluster):
        self._cluster = cluster
        self.partitioner = Partitioner.for_population(
            cluster.config.shards, cluster.population_params)

    def make_database(self, group, index: int, node,
                      runtime) -> ShardedTPCWDatabase:
        """Build the shard-aware facade plus its 2PC endpoints for one
        replica (and re-build them on every reboot/incarnation)."""
        cluster = self._cluster
        config = cluster.config
        coordinator = TxnCoordinator(
            node, group.shard, cluster.group_names,
            timeout_s=config.txn_timeout_s,
            max_retries=config.txn_max_retries)
        coordinator.start()
        TxnParticipant(
            node, runtime, group.shard,
            group_names=cluster.group_names,
            resolve_timeout_s=config.txn_timeout_s,
            resolve_retries=config.txn_max_retries,
            orphan_timeout_s=config.txn_orphan_timeout_s).start()
        return ShardedTPCWDatabase(
            runtime, clock=lambda: cluster.sim.now,
            rng=group.seed.fork_random(f"db-{index}-{node.incarnation}"),
            partitioner=self.partitioner, shard=group.shard,
            coordinator=coordinator)

    def make_router(self) -> ShardRouter:
        cluster = self._cluster
        return ShardRouter(cluster.proxy_node, cluster.group_names,
                           self.partitioner, cluster.config.proxy_params())
