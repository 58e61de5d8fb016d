"""Fleet-of-fleets scaling bench: shard order independence and merge cost.

Runs the same base configuration as a fleet of N ∈ {1, 2, 4, 8}
regional shards, once in sorted order through
:func:`~repro.sim.engine.run_partitioned` and once in reverse order.
Claims checked:

* every region's digest is the same in both orders, so no shard's
  result depends on which shards ran before it (the CI half of
  ``tests/test_fleet.py::TestShardIsolation``);
* every N produces a non-empty merged digest, and the per-N digests
  are mutually distinct (regions really change the partition);
* sessions complete at every N (the shards do real scheduling work).

``BENCH_fleet.json`` (the CI ``fleet-smoke`` artifact) records, per N,
the run and merge wall times and the merge input size (regions × games
folded).  Wall times are reported, never gated.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.fleet import FleetOfFleets, RegionSpec
from repro.sim import run_partitioned
from repro.trace.harness import RunConfig, build_profiles

SEED = 11
SHARD_COUNTS = (1, 2, 4, 8)

CONFIG = RunConfig(
    games=("contra", "dota2"),
    nodes=2,
    horizon=900,
    rate_per_minute=6.0,
    seed=SEED,
    players=2,
    sessions=2,
    gateway=False,
)


def measure(n: int, profiles: dict) -> dict:
    """One fleet at N shards: sorted run and merge timed, then a
    reverse-order run of freshly built shards for the digest check."""
    regions = [RegionSpec(f"r{i}") for i in range(n)]
    fleet = FleetOfFleets(CONFIG, regions, profiles=profiles)
    shards = fleet.build_shards()
    t0 = time.perf_counter()
    outcomes = run_partitioned(
        {name: shards[name].run for name in sorted(shards)}
    )
    run_seconds = time.perf_counter() - t0
    t1 = time.perf_counter()
    result = fleet.merge(outcomes)
    merge_seconds = time.perf_counter() - t1
    reverse_shards = FleetOfFleets(
        CONFIG, regions, profiles=profiles
    ).build_shards()
    reverse = {
        name: reverse_shards[name].run().digest
        for name in sorted(reverse_shards, reverse=True)
    }
    return {
        "regions": n,
        "sessions": sum(result.completed_runs.values()),
        "requests": sum(result.requests_routed.values()),
        "run_seconds": round(run_seconds, 4),
        "merge_seconds": round(merge_seconds, 6),
        "merge_input": sum(
            len(outcome.result.completed_runs)
            for outcome in outcomes.values()
        ),
        "merged_digest": result.merged_digest,
        "region_digests": result.region_digests,
        "reverse_region_digests": dict(sorted(reverse.items())),
    }


def test_fleet_shard_scaling():
    profiles = build_profiles(CONFIG)  # training kept out of timings
    rows = [measure(n, profiles) for n in SHARD_COUNTS]

    stats = {
        "config": CONFIG.to_dict(),
        "shards": [
            {k: v for k, v in row.items() if k != "reverse_region_digests"}
            for row in rows
        ],
    }
    Path("BENCH_fleet.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n"
    )

    header = (f"{'N':>2} {'requests':>8} {'sessions':>8} "
              f"{'run s':>7} {'merge s':>8} {'merge in':>8}")
    print("\n" + header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['regions']:>2} {row['requests']:>8} "
              f"{row['sessions']:>8} {row['run_seconds']:>7.2f} "
              f"{row['merge_seconds']:>8.4f} {row['merge_input']:>8}")

    for row in rows:
        assert row["reverse_region_digests"] == row["region_digests"], (
            f"N={row['regions']}: a region's digest depends on shard order"
        )
        assert row["merged_digest"]
        assert row["sessions"] > 0, f"N={row['regions']}: nothing completed"
    digests = [row["merged_digest"] for row in rows]
    assert len(set(digests)) == len(digests), (
        "different shard counts must partition the fleet differently"
    )
