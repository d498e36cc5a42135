"""Sharded, multi-core violation detection.

* :mod:`repro.parallel.partition` — the single-pass partition planner
  (primary-key selection, local vs. summary fragment split, replication
  accounting) and deterministic hash partitioning of relations;
* :mod:`repro.parallel.summary` — the coordinator-side merge of the
  cross-shard ``(cid, xv, yv-multiset)`` group summaries emitted by the
  detectors' ``fd_group_summary`` hooks;
* :mod:`repro.parallel.sharded` — the ``"sharded"`` engine backend, which
  runs any delegate detector on shared-nothing shards held by stateful
  lanes (inline, thread, process or remote) and merges per-shard flags and
  summaries exactly, plus the one implementation of every shard op;
* :mod:`repro.parallel.repair` — the ``"sharded"`` repair strategy: fix
  deltas routed through the partition plan to the owning shards' INCDETECT
  lanes, cross-shard embedded-FD group fixes elected directly from the
  coordinator's merged summary store;
* :mod:`repro.parallel.transport` / :mod:`repro.parallel.worker` /
  :mod:`repro.parallel.remote` — the remote shard fabric
  (``executor="remote"``): a length-prefixed asyncio RPC transport, the
  standalone worker process hosting lane-pinned shard states
  (``python -m repro.parallel.worker``), and the coordinator-side worker
  pool with lane pinning, retry/backoff and lost-lane recovery;
* :mod:`repro.parallel.chaos` — a frame-aware fault-injection proxy for
  testing the fabric (drop / delay / duplicate / sever on frame
  boundaries, from a seeded deterministic plan).
"""

from repro.parallel.chaos import ChaosProxy, scripted_plan, start_proxies

from repro.parallel.partition import (
    PartitionCluster,
    PartitionPlan,
    extract_partition_plan,
    partition_rows,
    plan_partitions,
    route_delta,
    shard_index,
)
from repro.parallel.remote import (
    LocalWorkerHandle,
    RemoteWorkerPool,
    parse_address,
    spawn_local_workers,
)
from repro.parallel.repair import ShardedRepairStrategy
from repro.parallel.sharded import DEFAULT_EXECUTOR, ShardedBackend
from repro.parallel.summary import SummaryStore, summary_nbytes
from repro.parallel.transport import RetryPolicy, RpcConnection

__all__ = [
    "ChaosProxy",
    "DEFAULT_EXECUTOR",
    "LocalWorkerHandle",
    "PartitionCluster",
    "PartitionPlan",
    "RemoteWorkerPool",
    "RetryPolicy",
    "RpcConnection",
    "ShardedBackend",
    "ShardedRepairStrategy",
    "SummaryStore",
    "extract_partition_plan",
    "parse_address",
    "partition_rows",
    "plan_partitions",
    "route_delta",
    "scripted_plan",
    "shard_index",
    "spawn_local_workers",
    "start_proxies",
    "summary_nbytes",
]
