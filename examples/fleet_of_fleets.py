#!/usr/bin/env python3
"""Fleet-of-fleets: regional shards behind the consistent-hash router.

The whole fleet-of-fleets story in one script:

1. run N regional shards — each an independent event stream with its
   own cluster and region-namespaced RNG — behind the session router;
2. merge the regional digests into one canonical cross-shard digest;
3. at N=1, prove the reduction guarantee: the merged digest equals the
   classic single-:class:`FleetExperiment` digest byte for byte;
4. with ``--check-determinism``, run everything twice and fail unless
   the merged digests come back identical.

Run:  python examples/fleet_of_fleets.py [--regions N]
                                         [--check-determinism]
"""

import argparse
import sys

from repro.cluster.experiment import FleetExperiment
from repro.fleet import FleetOfFleets, RegionSpec
from repro.games.catalog import build_catalog
from repro.trace.harness import RunConfig, build_cluster, build_profiles

SEED = 19

CONFIG = RunConfig(
    games=("contra", "dota2"),
    nodes=2,
    horizon=600,
    rate_per_minute=6.0,
    seed=SEED,
    players=2,
    sessions=2,
    gateway=False,
)


def run_fleet(regions: int):
    fleet = FleetOfFleets(
        CONFIG, [RegionSpec(f"r{i}") for i in range(regions)]
    )
    return fleet.run()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regions", type=int, default=4)
    parser.add_argument("--check-determinism", action="store_true",
                        help="run twice; fail unless merged digests match")
    args = parser.parse_args(argv)

    # 1+2. The sharded run.
    result = run_fleet(args.regions)
    print(f"\n{args.regions} regions x {CONFIG.nodes} nodes, "
          f"{CONFIG.horizon}s horizon")
    print(f"{'region':8} {'routed':>6} {'completed':>9}  digest")
    for name in sorted(result.regions):
        outcome = result.regions[name]
        print(f"  {name:8} {result.requests_routed[name]:>4} "
              f"{sum(outcome.result.completed_runs.values()):>9}  "
              f"{outcome.digest[:16]}…")
    print(f"completed runs: {result.completed_runs}")
    print(f"merged digest:  {result.merged_digest}")

    # 3. The reduction guarantee, asserted live at N=1.
    if args.regions == 1:
        catalog = build_catalog()
        profiles = build_profiles(CONFIG, catalog)
        baseline = FleetExperiment(
            build_cluster(CONFIG, profiles),
            [catalog[g] for g in CONFIG.games],
            horizon=CONFIG.horizon,
            rate_per_minute=CONFIG.rate_per_minute,
            seed=CONFIG.seed,
            detect_interval=CONFIG.detect_interval,
        ).run()
        if result.merged_digest != baseline.telemetry_digest:
            print("FAIL: N=1 merged digest != single-fleet digest",
                  file=sys.stderr)
            return 1
        print("reduction guarantee holds: N=1 merged digest == "
              "single-fleet digest")

    # 4. Double-run byte-identity.
    if args.check_determinism:
        again = run_fleet(args.regions)
        same = again.merged_digest == result.merged_digest
        print(f"merged digests identical across runs: {same}")
        if not same:
            print("FAIL: fleet-of-fleets run is not deterministic",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
