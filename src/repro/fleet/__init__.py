"""Fleet-of-fleets: regional shards behind a consistent-hash router.

The top layer of the stack: a :class:`FleetOfFleets` owns N regional
shards — each a fully independent partition with its own event stream,
cluster, provisioner, and :func:`~repro.util.rng.region_seed`-spaced
randomness — fronted by a :class:`SessionRouter` that consistent-hashes
players onto regions over a :class:`HashRing`.  Regional streams
execute independently and meet only in :meth:`FleetOfFleets.merge`,
which folds them into one canonical cross-shard digest; at N=1 the
whole construction reduces byte-for-byte to the classic single
:class:`~repro.cluster.experiment.FleetExperiment`.  Independence is
checked by running shards apart: every region's digest is the same in
sorted order, in reverse order, and alone in a fresh interpreter
(``tests/test_fleet.py::TestShardIsolation``).  See ``docs/FLEET.md``.
"""

from repro.fleet.controller import (
    FleetOfFleets,
    FleetOfFleetsResult,
    RegionOutcome,
    RegionShard,
    RegionSpec,
)
from repro.fleet.plans import region_node_id, region_outage_plan
from repro.fleet.ring import HashRing, ring_point
from repro.fleet.router import RoutedArrivals, SessionRouter

__all__ = [
    "HashRing",
    "ring_point",
    "SessionRouter",
    "RoutedArrivals",
    "RegionSpec",
    "RegionShard",
    "RegionOutcome",
    "FleetOfFleets",
    "FleetOfFleetsResult",
    "region_outage_plan",
    "region_node_id",
]
