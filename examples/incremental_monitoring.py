"""Incremental violation monitoring of a live table (Section V-B in action).

A customer table receives batches of insertions and deletions; the engine's
incremental backend maintains the violation set across the updates with
INCDETECT, never re-scanning the whole database.  After each batch the
script reports the violation counts and, at the end, cross-checks the
maintained state against a from-scratch run on the batch backend — same
façade, different backend string.

The second half scales the monitor out: with ``workers=4`` the engine keeps
a persistent INCDETECT state *per shard* and routes each batch only to the
shards its tuples hash to (``last_update_trace`` shows how many), while
``shard_stats()`` reports where the maintained Aux(D) memory lives.

Run with::

    python examples/incremental_monitoring.py
"""

from repro import DataQualityEngine, cust_ext_schema
from repro.datagen import DatasetGenerator, UpdateGenerator, paper_workload


def main() -> None:
    schema = cust_ext_schema()
    sigma = paper_workload(schema)
    rows = DatasetGenerator(seed=7).generate_rows(5_000, noise_percent=5.0)

    monitor = DataQualityEngine(schema, sigma, backend="incremental")
    monitor.load(rows)

    initial = monitor.detect()
    print(f"Initial batch run over {initial.tuple_count} tuples "
          f"({initial.seconds:.2f}s): {initial.dirty_count} dirty tuples")

    updates = UpdateGenerator(DatasetGenerator(seed=8), seed=9)
    for round_number in range(1, 6):
        batch = updates.make_batch(
            existing_tids=monitor.tids(),
            insert_count=250,
            delete_count=250,
            noise_percent=5.0,
        )
        current = monitor.apply_update(batch)
        print(f"update {round_number}: -{batch.delete_count}/+{batch.insert_count} tuples "
              f"in {current.seconds:.3f}s -> SV={current.sv_count} MV={current.mv_count} "
              f"dirty={current.dirty_count} (incremental: {current.incremental})")

    # Cross-check: rebuild the final state from scratch on the batch backend.
    with DataQualityEngine(schema, sigma, backend="batch") as reference:
        reference.load(monitor.to_relation())
        recomputed = reference.detect()
    print(f"\nFrom-scratch BATCHDETECT on the final table: {recomputed.seconds:.3f}s")
    print(f"Incremental state matches the recomputation: "
          f"{current.violations == recomputed.violations}")
    monitor.close()

    # ------------------------------------------------------------------
    # Scale the monitor out: sharded INCDETECT with per-shard state.
    # ------------------------------------------------------------------
    sharded = DataQualityEngine(schema, sigma, backend="incremental", workers=4)
    sharded.load(rows)
    updates = UpdateGenerator(DatasetGenerator(seed=8), seed=9)  # same stream
    for batch in updates.make_workload(
        sharded.tids(), batches=3, insert_count=250, delete_count=250, noise_percent=5.0
    ):
        current = sharded.apply_update(batch)
        trace = sharded.backend.last_update_trace
        print(f"sharded update: dirty={current.dirty_count} in {current.seconds:.3f}s, "
              f"shards touched {trace['shards_touched']}/{trace['shards_total']}")
    print("per-shard maintained state (Aux(D) groups = violating groups held):")
    for shard in sharded.shard_stats():
        print(f"  shard {shard['shard']} "
              f"key={shard['key'] or '(round-robin)'}: "
              f"{shard['tuples']} tuples, {shard['aux_groups']} aux groups, "
              f"{shard['macro_rows']} macro rows")
    plan = sharded.partition_stats()
    print(f"plan: key={plan['key']}, {plan['local_fragments']} local + "
          f"{plan['summary_fragments']} summary fragments, "
          f"replication {plan['replication_factor']:.1f}x, "
          f"summary store {plan['summary_groups']} groups")
    sharded.close()


if __name__ == "__main__":
    main()
