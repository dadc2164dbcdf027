"""Partitioned RobustStore: multi-group Paxos sharding.

The paper runs one consensus group for the whole bookstore, so total
order is the throughput ceiling no matter how many replicas are added.
This package adds the standard way past that cap (Spinnaker-style
key-range partitioning across independent Paxos cohorts):

* :class:`~repro.shard.partition.Partitioner` -- deterministic key-range
  partitioning of the TPC-W entity space (customers own carts/orders;
  items are partitioned for stock ownership);
* :mod:`~repro.shard.cluster` -- the shard wiring with which
  :class:`~repro.harness.cluster.RobustStoreCluster` builds one
  independent Paxos+Treplica group per shard behind a single
  shard-aware router;
* :class:`~repro.shard.router.ShardRouter` -- maps every interaction to
  its home shard via the session's customer id;
* :mod:`~repro.shard.txn` -- a deterministic two-phase commit
  coordinator, ordered through the participating groups' own logs, for
  the few cross-shard writes (buy-confirms touching foreign stock).

Entry point: ``Experiment(...).shards(k)`` or ``repro run --shards k``.
"""

from repro.shard.partition import Partitioner
from repro.shard.router import ShardRouter

__all__ = ["Partitioner", "ShardRouter"]
