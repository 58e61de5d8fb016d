"""Command-line interface.

Four subcommands cover the operator workflow the paper describes:

* ``cocg catalog`` — list the evaluated games and their structure;
* ``cocg profile GAME -o FILE`` — run the offline pipeline once and
  persist the artifact (frame clustering + stage library + trained
  predictors);
* ``cocg colocate GAME [GAME …]`` — run a co-location experiment under a
  chosen strategy and print throughput/QoS;
* ``cocg fleet GAME [GAME …]`` — dispatch Poisson arrivals over a small
  (optionally heterogeneous) fleet; ``--regions N`` splits it into N
  independent regional shards behind the consistent-hash session
  router, merged into one cross-shard digest (``docs/FLEET.md``);
* ``cocg serve GAME [GAME …]`` — the fleet behind the serve-layer
  admission gateway: bounded queues, rate limiting, micro-batched
  Algorithm-1 dispatch, per-category SLO report (``docs/SERVE.md``);
* ``cocg chaos GAME [GAME …]`` — the fleet experiment under an injected
  fault plan, reported against the fault-free run (``docs/FAULTS.md``);
* ``cocg obs GAME [GAME …]`` — run a gateway-fronted experiment with the
  deterministic observability pipeline attached and export
  ``metrics.prom`` + ``trace.json`` (``docs/OBSERVABILITY.md``);
  ``--check-determinism`` runs twice and verifies the artifacts are
  byte-identical;
* ``cocg record GAME [GAME …] -o FILE`` — run a gateway-fronted fleet
  experiment with a trace recorder attached and persist the run as a
  versioned ``.cgtrace`` file (``docs/TRACE.md``);
* ``cocg replay TRACE`` — rebuild the fleet from a trace's header and
  replay its recorded workload; non-zero exit unless the replayed fleet
  telemetry digest matches the recorded one byte-for-byte;
* ``cocg corpus list|generate`` — list the shipped workload scenarios or
  regenerate their ``.cgtrace`` files under ``corpus/``;
* ``cocg lint [PATH …]`` — run the CoCG invariant checker
  (:mod:`repro.lint`, per-file rules CG001–CG009 plus the
  whole-program rules CG010–CG014 and the effect system
  CG015–CG018) over the codebase.

Every run subcommand (``fleet``, ``serve``, ``chaos``, ``obs``,
``record``) is the same four steps: its flags become a
:class:`~repro.trace.harness.RunConfig`, the :mod:`repro.trace.harness`
builders assemble the fleet from it, the run executes, and the report is
printed.

Diagnostics (bad plans, unknown games/scenarios, digest mismatches) go
to stderr; stdout carries only the requested report, so piping
``cocg … | tee`` captures clean output.  Every subcommand shares one
exit-code contract:

* ``0`` — ok;
* ``1`` — the run or a check failed (a replay diverged, a fault plan
  failed ``--validate``, lint found problems, the session ledger or a
  determinism check did not balance);
* ``2`` — bad input: an unknown flag or game, a value the run
  configuration rejects (one ``cocg <cmd>: error: …`` stderr line,
  checked before anything runs), or an unreadable fault plan or trace.

When stdout is a pipe whose reader has gone away (``cocg … | head -1``),
the report cannot be delivered: the command exits ``1`` quietly, with no
``BrokenPipeError`` traceback.

Run ``python -m repro.cli --help`` (or the installed ``cocg`` script).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, TypeVar

import numpy as np

__all__ = [
    "main",
    "build_parser",
    "cmd_catalog",
    "cmd_profile",
    "cmd_colocate",
    "cmd_fleet",
    "cmd_serve",
    "cmd_chaos",
    "cmd_obs",
    "cmd_record",
    "cmd_replay",
    "cmd_corpus",
    "cmd_lint",
]

_Number = TypeVar("_Number", int, float)


def _positive(kind: Callable[[str], _Number]) -> Callable[[str], _Number]:
    """An argparse ``type=`` parsing ``kind`` and rejecting values <= 0."""
    def parse(text: str) -> _Number:
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


_POSITIVE_INT = _positive(int)
_POSITIVE_FLOAT = _positive(float)


class _Parser(argparse.ArgumentParser):
    """Bad input is one stderr line and exit code 2, without the usage dump.

    ``lazy_flags``, when set, installs the parser's flags on its first
    parse, so a subcommand can defer an expensive import until it runs.
    """

    lazy_flags: Optional[Callable[[argparse.ArgumentParser], object]] = None

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        if self.lazy_flags is not None:
            install, self.lazy_flags = self.lazy_flags, None
            install(self)
        return super().parse_known_args(args, namespace)


class _BadInput(Exception):
    """Input rejected before anything runs; :func:`main` exits 2."""


def _err(message: str) -> None:
    """Print an error diagnostic to stderr (stdout stays report-only)."""
    print(message, file=sys.stderr)


def _check_games(games: Sequence[str]) -> Dict:
    """The catalog, once every name in ``games`` is known to it."""
    from repro.games.catalog import build_catalog

    catalog = build_catalog()
    unknown = [g for g in games if g not in catalog]
    if unknown:
        raise _BadInput(
            f"unknown game(s) {unknown}; available: {', '.join(sorted(catalog))}"
        )
    return catalog


#: Run flag (argparse dest) -> the RunConfig field it sets.
_CONFIG_FLAGS = {
    "nodes": "nodes",
    "policy": "policy",
    "strategy": "strategy",
    "horizon": "horizon",
    "rate": "rate_per_minute",
    "seed": "seed",
    "players": "players",
    "sessions": "sessions",
    "heterogeneous": "heterogeneous",
    "queue_capacity": "queue_capacity",
    "rate_limit": "rate_limit",
    "burst": "burst",
    "max_queue_seconds": "max_queue_seconds",
    "warm_pool": "warm_pool",
}


def _run_config(args, **fields):
    """The run's :class:`~repro.trace.harness.RunConfig`, checked.

    Takes every run flag the subcommand defines, then ``fields`` on top.
    Live runs train every predictor backend.  An unknown game or a value
    the config rejects raises :class:`_BadInput`, before anything runs.
    """
    from repro.core.predictor import BACKENDS
    from repro.trace.harness import RunConfig

    _check_games(args.games)
    values = {
        field: getattr(args, flag)
        for flag, field in _CONFIG_FLAGS.items()
        if hasattr(args, flag)
    }
    values["backends"] = BACKENDS
    values.update(fields)
    try:
        return RunConfig(games=tuple(args.games), **values)
    except ValueError as exc:
        raise _BadInput(str(exc)) from None


def _load_plan(path: str):
    """Read a fault-plan JSON file; an unreadable plan is bad input."""
    import json
    from pathlib import Path

    from repro.faults import FaultPlan

    try:
        return FaultPlan.from_dict(json.loads(Path(path).read_text()))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise _BadInput(
            f"{path}: bad fault plan: {exc} (`cocg chaos --validate "
            f"--plan {path}` lists every problem)"
        ) from None


def _load_or_build_profiles(config, profiles_dir: Optional[str]) -> Dict:
    """The config's game profiles, loaded from or saved to ``profiles_dir``."""
    from pathlib import Path

    from repro.core.pipeline import GameProfile
    from repro.games.catalog import build_catalog

    catalog = build_catalog()
    profiles = {}
    for game in config.games:
        path = Path(profiles_dir) / f"{game}.profile.json" if profiles_dir else None
        if path is not None and path.exists():
            profiles[game] = GameProfile.load(path, catalog[game])
            print(f"loaded profile: {path}")
        else:
            print(f"profiling {game} (no saved profile)…")
            profiles[game] = GameProfile.build(
                catalog[game],
                n_players=config.players,
                sessions_per_player=config.sessions,
                seed=config.seed,
                backends=config.backends,
            )
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                profiles[game].save(path)
                print(f"saved profile: {path}")
    return profiles


def _write_obs(obs, out: str, label: str) -> None:
    metrics_path, trace_path = obs.write(out)
    print(f"{label} {metrics_path} + {trace_path} "
          f"(trace digest {obs.trace_digest()[:16]}…)")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_catalog(args) -> int:
    """``cocg catalog``: list the evaluated games and their structure."""
    from repro.games.catalog import build_catalog

    catalog = build_catalog()
    print(f"{'game':14} {'category':8} {'K':>2} {'lock':>5} {'length':7} scripts")
    print("-" * 70)
    for name, spec in sorted(catalog.items()):
        lock = f"{spec.frame_lock:.0f}" if spec.frame_lock else "-"
        length = "long" if spec.long_term else "short"
        scripts = ", ".join(s.name for s in spec.scripts)
        print(
            f"{name:14} {spec.category.value:8} {len(spec.clusters):>2} "
            f"{lock:>5} {length:7} {scripts}"
        )
    return 0


def cmd_profile(args) -> int:
    """``cocg profile``: run the offline pipeline, optionally persist."""
    from repro.core.pipeline import GameProfile

    catalog = _check_games([args.game])
    profile = GameProfile.build(
        catalog[args.game],
        n_players=args.players,
        sessions_per_player=args.sessions,
        seed=args.seed,
    )
    print(profile.library.summary())
    for backend, predictor in sorted(profile.predictors.items()):
        print(f"{backend}: next-stage accuracy {predictor.accuracy_:.1%}")
    if args.output:
        profile.save(args.output)
        print(f"saved: {args.output}")
    return 0


def cmd_colocate(args) -> int:
    """``cocg colocate``: run one co-location experiment and report."""
    from repro.trace.harness import make_strategy
    from repro.workloads.experiment import ColocationExperiment

    config = _run_config(args)
    profiles = _load_or_build_profiles(config, args.profiles_dir)
    result = ColocationExperiment(
        profiles, make_strategy(config.strategy),
        horizon=config.horizon, seed=config.seed,
    ).run()
    print(f"\nstrategy:           {result.strategy}")
    print(f"throughput (Eq 2):  {result.throughput:,.0f} game-seconds")
    print(f"completed runs:     {result.completed_runs}")
    print(f"co-located seconds: {result.colocated_seconds}/{result.horizon}")
    print(f"peak usage:         {np.round(result.peak_total_usage, 1)} (cap 95)")
    print(f"over-cap seconds:   {result.over_cap_seconds}")
    for game in sorted(profiles):
        fob = result.fraction_of_best[game]
        if not np.isnan(fob):
            print(f"  {game:14} {fob:.0%} of best FPS")
    return 0


def cmd_fleet(args) -> int:
    """``cocg fleet``: Poisson arrivals over a (possibly heterogeneous)
    fleet of CoCG- or baseline-scheduled nodes, split into ``--regions``
    shards (one by default: the plain single fleet)."""
    from repro.fleet import FleetOfFleets, RegionSpec

    config = _run_config(args, gateway=False)
    profiles = _load_or_build_profiles(config, args.profiles_dir)
    regions = [RegionSpec(f"r{i}") for i in range(args.regions)]
    fleet = FleetOfFleets(config, regions, profiles=profiles).run()
    if args.regions == 1:
        (outcome,) = fleet.regions.values()
        result = outcome.result
        print(f"\nfleet of {config.nodes} nodes, policy={config.policy}")
        print(f"throughput (Eq 2):  {result.throughput:,.0f} game-seconds")
        print(f"completed runs:     {result.completed_runs}")
        print(f"mean wait:          {result.mean_wait_seconds:.1f}s "
              f"({result.deferrals} deferrals, {result.waiting} still queued)")
        print(f"fraction of best:   {result.fraction_of_best:.0%}")
        for node_id, gpu in sorted(result.per_node_mean_gpu.items()):
            print(f"  {node_id:8} mean GPU {gpu:5.1f} %  "
                  f"runs {result.per_node_completed.get(node_id, {})}")
        return 0
    print(f"\nfleet-of-fleets: {args.regions} regions x {config.nodes} "
          f"nodes, policy={config.policy}")
    print(f"throughput (Eq 2):  {fleet.throughput:,.0f} game-seconds")
    print(f"completed runs:     {fleet.completed_runs}")
    print(f"{'region':8} {'routed':>7} {'completed':>10} digest")
    for name in sorted(fleet.regions):
        outcome = fleet.regions[name]
        print(f"  {name:8} {fleet.requests_routed.get(name, 0):>5} "
              f"{sum(outcome.result.completed_runs.values()):>10} "
              f"{outcome.digest[:16]}…")
    print(f"merged digest:      {fleet.merged_digest}")
    return 0


def cmd_serve(args) -> int:
    """``cocg serve``: the fleet behind the admission gateway."""
    from repro.obs import Observer
    from repro.trace.harness import build_experiment

    config = _run_config(args, micro_batching=not args.no_batching)
    profiles = _load_or_build_profiles(config, args.profiles_dir)
    obs = Observer() if args.obs_out else None
    experiment = build_experiment(config, profiles, obs=obs)
    result = experiment.run()
    gateway = experiment.cluster.gateway
    stats = gateway.stats()
    print(f"\nfleet of {config.nodes} nodes behind the gateway "
          f"(policy={config.policy}, "
          f"batching={'on' if config.micro_batching else 'off'})")
    print(f"throughput (Eq 2):  {result.throughput:,.0f} game-seconds")
    print(f"completed runs:     {result.completed_runs}")
    print(f"gateway outcomes:   queued={stats['queued']} "
          f"admitted={stats['admitted']} shed={stats['shed']} "
          f"dead-lettered={stats['dead_lettered']}")
    print(f"still queued:       {stats['depth']} "
          f"({stats['throttled_rounds']} throttled rounds)")
    if config.micro_batching:
        b = gateway.batcher.stats()
        print(f"micro-batching:     {b['evaluations']} shared evaluations, "
              f"{b['prescreen_rejects']} pre-screen rejects")
    print("per-category SLO (time in queue):")
    for line in gateway.slo.summary_lines():
        print(f"  {line}")
    print(f"telemetry digest:   {result.telemetry_digest}")
    if obs is not None:
        _write_obs(obs, args.obs_out, "observability:     ")
    return 0


def cmd_chaos(args) -> int:
    """``cocg chaos``: the fleet run with vs. without injected faults.

    ``--validate`` parses and checks ``--plan`` without running anything
    (exit 1 on any problem); ``--scenario reclaim-storm`` runs the
    elastic-capacity storm with a provisioner attached.
    """
    import json
    from pathlib import Path

    from repro.faults import (
        FaultPlan,
        default_plan,
        reclaim_storm_plan,
        run_chaos,
        validate_plan_payload,
    )
    from repro.games.catalog import build_catalog
    from repro.obs import Observer
    from repro.trace.harness import build_cluster, make_provisioner_factory

    if args.validate:
        if not args.plan:
            raise _BadInput("--validate needs --plan <plan.json>")
        try:
            payload = json.loads(Path(args.plan).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            _err(f"{args.plan}: cannot read plan: {exc}")
            return 1
        errors = validate_plan_payload(payload)
        if errors:
            _err(f"{args.plan}: {len(errors)} problem(s)")
            for error in errors:
                _err(f"  {error}")
            return 1
        plan = FaultPlan.from_dict(payload)
        print(f"{args.plan}: ok ({len(plan)} faults, seed {plan.seed})")
        return 0

    if not args.games:
        raise _BadInput("at least one GAME is required (unless --validate)")
    warm_pool = args.warm_pool
    if warm_pool is None and args.scenario == "reclaim-storm":
        warm_pool = 1
    config = _run_config(args, gateway=False, warm_pool=warm_pool)
    loaded = _load_plan(args.plan) if args.plan else None
    catalog = build_catalog()
    profiles = _load_or_build_profiles(config, args.profiles_dir)
    if loaded is not None:
        plan = loaded
        print(f"loaded fault plan: {args.plan} ({len(plan)} faults)")
    elif args.scenario == "reclaim-storm":
        plan = reclaim_storm_plan(
            config.horizon,
            seed=config.seed,
            nodes=tuple(f"node-{i}" for i in range(config.nodes)),
        )
        print(f"scenario: reclaim-storm ({len(plan)} faults)")
    else:
        plan = default_plan(
            config.horizon, seed=config.seed,
            crash_node=f"node-{config.nodes - 1}",
        )

    obs = Observer() if args.obs_out else None
    report = run_chaos(
        lambda: build_cluster(config, profiles),
        [catalog[g] for g in config.games],
        plan=plan,
        horizon=config.horizon,
        rate_per_minute=config.rate_per_minute,
        seed=config.seed,
        detect_interval=config.detect_interval,
        make_provisioner=make_provisioner_factory(config, profiles),
        obs=obs,
    )
    print()
    for line in report.summary_lines():
        print(line)
    print(f"\ntelemetry digest (faulted): {report.faulted.telemetry_digest}")
    if obs is not None:
        _write_obs(obs, args.obs_out, "observability (faulted run):")
    if report.faulted.unaccounted_sessions:
        _err(
            f"WARNING: {report.faulted.unaccounted_sessions} unaccounted "
            "sessions — the robustness ledger does not balance"
        )
        return 1
    return 0


def cmd_obs(args) -> int:
    """``cocg obs``: run one observed experiment, export the artifacts.

    Runs the gateway-fronted fleet with the observability pipeline
    attached and writes ``metrics.prom`` (Prometheus text exposition)
    and ``trace.json`` (Chrome trace events — load it in Perfetto) under
    ``--out``.  ``--check-determinism`` repeats the run from the same
    seeds and fails unless both artifacts come back byte-identical —
    the same property CI asserts.
    """
    from repro.faults import default_plan
    from repro.obs import Observer
    from repro.serve import GatewayConfig
    from repro.trace.harness import build_experiment

    # The observed gateway runs at GatewayConfig's defaults, not the
    # tighter bounds `cocg serve`/`record` default to.
    config = _run_config(
        args,
        queue_capacity=GatewayConfig.queue_capacity,
        rate_limit=GatewayConfig.rate_per_second,
        burst=GatewayConfig.burst,
        max_queue_seconds=GatewayConfig.max_queue_seconds,
    )
    profiles = _load_or_build_profiles(config, args.profiles_dir)
    plan = (
        default_plan(
            config.horizon, seed=config.seed,
            crash_node=f"node-{config.nodes - 1}",
        )
        if args.faults
        else None
    )

    def run():
        obs = Observer()
        return build_experiment(config, profiles, plan=plan, obs=obs).run(), obs

    result, obs = run()
    if args.check_determinism:
        result2, obs2 = run()
        same_metrics = obs.metrics_text() == obs2.metrics_text()
        same_trace = obs.trace_digest() == obs2.trace_digest()
        same_telemetry = result.telemetry_digest == result2.telemetry_digest
        print(f"metrics byte-identical across runs: {same_metrics}")
        print(f"trace digests equal across runs:    {same_trace}")
        print(f"telemetry digests equal:            {same_telemetry}")
        if not (same_metrics and same_trace and same_telemetry):
            _err("observability output is not deterministic")
            return 1
    metrics_path, trace_path = obs.write(args.out)
    print(f"metric families:    {len(obs.registry)}")
    print(f"trace spans:        {len(obs.tracer)} "
          f"on streams {', '.join(obs.tracer.streams())}")
    print(f"trace digest:       {obs.trace_digest()}")
    print(f"wrote:              {metrics_path}")
    print(f"wrote:              {trace_path}")
    return 0


def cmd_record(args) -> int:
    """``cocg record``: run one experiment and persist it as a trace.

    The run is gateway-fronted (same shape as ``cocg serve``); an
    optional ``--plan`` injects a fault schedule and ``--warm-pool N``
    attaches a capacity plane — both are captured in the trace, so
    ``cocg replay`` reproduces the whole run.
    """
    from repro.trace import record_run

    # A trace trains the dtc backend only (RunConfig's default), so its
    # header stays as short as the shipped corpus's.
    config = _run_config(args, backends=("dtc",))
    plan = _load_plan(args.plan) if args.plan else None
    result, recorder = record_run(config, plan=plan)
    path = recorder.save(args.output)
    stats = recorder.stats()
    document = recorder.document
    print(f"recorded {config.horizon}s over {config.nodes} nodes: "
          f"{stats['arrivals']} arrivals, {stats['stages']} stage records, "
          f"{stats['faults']} scheduled faults")
    print(f"throughput (Eq 2):  {result.throughput:,.0f} game-seconds")
    print(f"completed runs:     {result.completed_runs}")
    print(f"fleet digest:       {document.trailer.fleet_digest}")
    print(f"wrote:              {path}")
    return 0


def cmd_replay(args) -> int:
    """``cocg replay``: replay a trace, check the digest contract.

    Exit 0 when the replayed fleet telemetry digest matches the trace's
    trailer byte-for-byte, 1 on divergence (the first divergent record
    is named on stderr), 2 when the trace itself cannot be parsed.
    """
    from repro.trace import TraceError, replay_path

    try:
        report = replay_path(args.trace, strict=False)
    except (OSError, TraceError, ValueError) as exc:
        _err(f"{args.trace}: {exc}")
        return 2
    for line in report.summary_lines():
        print(line)
    if not report.matched:
        _err(f"{args.trace}: replay diverged from the recorded run"
             + (f" at {report.divergence}" if report.divergence else ""))
        return 1
    return 0


def cmd_corpus(args) -> int:
    """``cocg corpus``: list or regenerate the shipped scenario corpus.

    ``list`` prints the catalogue; ``generate [NAME …]`` re-records the
    named scenarios (default: all) under ``--out``.  Generation is
    deterministic — the same repo state always produces byte-identical
    ``.cgtrace`` files, which is how CI keeps ``corpus/`` honest.
    """
    from pathlib import Path

    from repro.trace import SCENARIOS, generate_scenario, scenario_names

    if args.action == "list":
        print(f"{'scenario':14} {'games':18} {'horizon':>7} {'faults':>6}  description")
        print("-" * 78)
        for name in scenario_names():
            spec = SCENARIOS[name]
            plan = spec.plan()
            print(
                f"{name:14} {','.join(spec.config.games):18} "
                f"{spec.config.horizon:>6}s {len(plan) if plan else 0:>6}  "
                f"{spec.description}"
            )
        return 0

    names = list(args.names) or scenario_names()
    unknown = sorted(set(names) - set(scenario_names()))
    if unknown:
        _err(f"unknown scenario(s) {', '.join(unknown)}; shipped: "
             f"{', '.join(scenario_names())}")
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        result, recorder = generate_scenario(name)
        path = recorder.save(out / f"{name}.cgtrace")
        document = recorder.document
        print(f"{name}: {document.trailer.records} records, "
              f"digest {document.trailer.fleet_digest[:16]}… -> {path}")
    return 0


def cmd_lint(args) -> int:
    """``cocg lint``: run the invariant checker (exit 1 on findings)."""
    from repro.lint.__main__ import run_from_args

    return run_from_args(args)


def _lint_flags(parser: argparse.ArgumentParser) -> None:
    """Install ``cocg lint``'s flags (imports the analyzer)."""
    from repro.lint.__main__ import configure_parser

    configure_parser(parser)


# ----------------------------------------------------------------------

def _add_run_flags(
    p: argparse.ArgumentParser,
    *,
    nodes: int,
    policy: str,
    rate: float,
    horizon: int,
    players: int = 4,
    sessions: int = 3,
    strategy: bool = True,
    profiles_dir: bool = True,
) -> None:
    """The fleet-shape, workload and profile flags every run shares."""
    from repro.cluster import ClusterScheduler
    from repro.trace.harness import STRATEGIES

    p.add_argument("--nodes", type=_POSITIVE_INT, default=nodes)
    p.add_argument("--policy", choices=ClusterScheduler.POLICIES,
                   default=policy)
    if strategy:
        p.add_argument("--strategy", choices=STRATEGIES, default="cocg")
    p.add_argument("--rate", type=_POSITIVE_FLOAT, default=rate,
                   help="arrivals per minute")
    p.add_argument("--horizon", type=_POSITIVE_INT, default=horizon)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--players", type=int, default=players,
                   help="profile-corpus players")
    p.add_argument("--sessions", type=int, default=sessions)
    if profiles_dir:
        p.add_argument("--profiles-dir", help="cache profiles here")


def _add_gateway_flags(p: argparse.ArgumentParser) -> None:
    """The admission-gateway bounds (``serve``, ``record``)."""
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="per-category queue bound (overflow sheds)")
    p.add_argument("--rate-limit", type=float, default=4.0,
                   help="dispatch attempts per second (token refill)")
    p.add_argument("--burst", type=int, default=8, help="token-bucket depth")
    p.add_argument("--max-queue-seconds", type=float, default=300.0,
                   help="queue patience before dead-lettering")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    from repro.trace.harness import STRATEGIES

    parser = _Parser(
        prog="cocg",
        description="CoCG: fine-grained cloud game co-location (IPDPS'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the evaluated games").set_defaults(
        func=cmd_catalog
    )

    p = sub.add_parser("profile", help="run the offline pipeline for one game")
    p.add_argument("game")
    p.add_argument("-o", "--output", help="save the profile JSON here")
    p.add_argument("--players", type=int, default=6)
    p.add_argument("--sessions", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_profile)

    c = sub.add_parser("colocate", help="co-locate games on one server")
    c.add_argument("games", nargs="+")
    c.add_argument("--strategy", choices=STRATEGIES, default="cocg")
    c.add_argument("--horizon", type=_POSITIVE_INT, default=3600)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--players", type=int, default=5)
    c.add_argument("--sessions", type=int, default=4)
    c.add_argument("--profiles-dir", help="cache profiles here")
    c.set_defaults(func=cmd_colocate)

    f = sub.add_parser("fleet", help="Poisson arrivals over a fleet")
    f.add_argument("games", nargs="+")
    _add_run_flags(f, nodes=3, policy="first-fit", rate=1.0, horizon=2400)
    f.add_argument("--heterogeneous", action="store_true",
                   help="mix reference/weak-GPU/big-server platforms")
    f.add_argument("--regions", type=_POSITIVE_INT, default=1, metavar="N",
                   help="run N regional shards behind the consistent-hash "
                        "session router (fleet-of-fleets; default 1 = the "
                        "classic single fleet)")
    f.set_defaults(func=cmd_fleet)

    s = sub.add_parser(
        "serve", help="fleet behind the serve-layer admission gateway"
    )
    s.add_argument("games", nargs="+")
    _add_run_flags(s, nodes=3, policy="round-robin", rate=4.0, horizon=1800,
                   strategy=False)
    _add_gateway_flags(s)
    s.add_argument("--no-batching", action="store_true",
                   help="naive per-request dispatch (same outcomes, "
                        "more predictor rollouts)")
    s.add_argument("--obs-out", metavar="DIR",
                   help="attach the observability pipeline and write "
                        "metrics.prom + trace.json here")
    s.set_defaults(func=cmd_serve)

    ch = sub.add_parser(
        "chaos", help="fleet experiment under an injected fault plan"
    )
    ch.add_argument("games", nargs="*",
                    help="game mix (required unless --validate)")
    _add_run_flags(ch, nodes=2, policy="round-robin", rate=2.0, horizon=900)
    ch.add_argument("--plan", help="fault-plan JSON file (default: demo plan)")
    ch.add_argument("--validate", action="store_true",
                    help="parse and check --plan without running; "
                         "non-zero exit on any unknown kind/field")
    ch.add_argument("--scenario", choices=("default", "reclaim-storm"),
                    default="default",
                    help="built-in plan when --plan is absent "
                         "(reclaim-storm attaches a provisioner)")
    ch.add_argument("--warm-pool", type=int, default=None, metavar="N",
                    help="attach a Provisioner with N pre-booted standbys "
                         "(implied =1 by --scenario reclaim-storm)")
    ch.add_argument("--obs-out", metavar="DIR",
                    help="attach the observability pipeline to the "
                         "faulted run and write metrics.prom + "
                         "trace.json here")
    ch.set_defaults(func=cmd_chaos)

    o = sub.add_parser(
        "obs",
        help="run an observed experiment; export metrics.prom + trace.json",
    )
    o.add_argument("games", nargs="+")
    _add_run_flags(o, nodes=2, policy="round-robin", rate=2.0, horizon=600,
                   strategy=False)
    o.add_argument("--faults", action="store_true",
                   help="replay the demo fault plan (fault spans in the trace)")
    o.add_argument("--out", default="obs-out", metavar="DIR",
                   help="artifact directory (default: obs-out)")
    o.add_argument("--check-determinism", action="store_true",
                   help="run twice; fail unless the artifacts are "
                        "byte-identical")
    o.set_defaults(func=cmd_obs)

    r = sub.add_parser(
        "record",
        help="record a gateway-fronted run as a .cgtrace file",
    )
    r.add_argument("games", nargs="+")
    r.add_argument("-o", "--output", default="run.cgtrace",
                   help="trace file to write (default: run.cgtrace)")
    _add_run_flags(r, nodes=2, policy="round-robin", rate=2.0, horizon=600,
                   players=3, sessions=2, profiles_dir=False)
    r.add_argument("--plan", help="fault-plan JSON to inject and record")
    r.add_argument("--warm-pool", type=int, default=None, metavar="N",
                   help="attach a Provisioner with N pre-booted standbys")
    _add_gateway_flags(r)
    r.set_defaults(func=cmd_record)

    rp = sub.add_parser(
        "replay",
        help="replay a .cgtrace; fail unless the fleet digest matches",
    )
    rp.add_argument("trace", help="the .cgtrace file to replay")
    rp.set_defaults(func=cmd_replay)

    co = sub.add_parser(
        "corpus", help="list or regenerate the shipped scenario corpus"
    )
    co.add_argument("action", choices=("list", "generate"))
    co.add_argument("names", nargs="*",
                    help="scenarios to generate (default: all)")
    co.add_argument("--out", default="corpus", metavar="DIR",
                    help="output directory (default: corpus/)")
    co.set_defaults(func=cmd_corpus)

    # The analyzer is imported only when ``cocg lint`` is parsed.
    lint = sub.add_parser(
        "lint", help="check CoCG invariants (rules CG001-CG018)"
    )
    lint.lazy_flags = _lint_flags
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (exit codes: see the module docstring)."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _BadInput as exc:
        _err(f"cocg {args.command}: error: {exc}")
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (``cocg … | head -1``): point stdout
        # at devnull so the interpreter's shutdown flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
