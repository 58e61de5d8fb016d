"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_catalog_parses(self):
        args = build_parser().parse_args(["catalog"])
        assert args.command == "catalog"

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "contra"])
        assert args.game == "contra"
        assert args.players == 6 and args.sessions == 5

    def test_colocate_multiple_games(self):
        args = build_parser().parse_args(
            ["colocate", "genshin", "contra", "--strategy", "vbp"]
        )
        assert args.games == ["genshin", "contra"]
        assert args.strategy == "vbp"

    def test_invalid_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["colocate", "contra", "--strategy", "magic"])

    def test_fleet_flags(self):
        args = build_parser().parse_args(
            ["fleet", "contra", "--nodes", "2", "--policy", "best-fit",
             "--heterogeneous"]
        )
        assert args.nodes == 2 and args.policy == "best-fit"
        assert args.heterogeneous

    def test_chaos_flags(self):
        args = build_parser().parse_args(
            ["chaos", "contra", "dota2", "--nodes", "3",
             "--horizon", "600", "--plan", "plan.json"]
        )
        assert args.command == "chaos"
        assert args.games == ["contra", "dota2"]
        assert args.nodes == 3 and args.horizon == 600
        assert args.plan == "plan.json"

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos", "contra"])
        assert args.nodes == 2 and args.plan is None
        assert args.policy == "round-robin"
        assert not args.validate
        assert args.scenario == "default" and args.warm_pool is None

    def test_chaos_validate_needs_no_games(self):
        args = build_parser().parse_args(
            ["chaos", "--validate", "--plan", "plan.json"]
        )
        assert args.validate and args.games == []

    def test_chaos_scenario_and_warm_pool(self):
        args = build_parser().parse_args(
            ["chaos", "contra", "--scenario", "reclaim-storm",
             "--warm-pool", "2"]
        )
        assert args.scenario == "reclaim-storm" and args.warm_pool == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "contra", "--scenario", "bad"])


class TestLazyLintParser:
    """Only ``cocg lint`` pays for importing the analyzer."""

    def test_build_parser_leaves_the_analyzer_unimported(self):
        src = Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser().parse_args(['catalog'])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'repro.lint' or m.startswith('repro.lint.')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_lint_flags_install_on_parse(self, capsys):
        args = build_parser().parse_args(["lint", "--format", "json", "src"])
        assert args.format == "json" and args.paths == ["src"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--help"])
        out = capsys.readouterr().out
        assert "--effects-out" in out and "--select" in out


class TestBoundaryValidation:
    """Non-positive sizes are rejected while parsing: one line, exit 2."""

    @pytest.mark.parametrize("flag, value", [
        ("--nodes", "0"), ("--horizon", "-5"), ("--rate", "-1"),
        ("--regions", "0"),
    ])
    def test_fleet_rejects_non_positive(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "contra", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"cocg fleet: error: argument {flag}: must be > 0, got {value}"
        ]

    @pytest.mark.parametrize("command", ["serve", "chaos", "obs", "record"])
    def test_other_runs_reject_zero_nodes(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "contra", "--nodes", "0"])
        assert exc.value.code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_unparseable_number_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "contra", "--rate", "fast"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            "cocg fleet: error: argument --rate: invalid float value: 'fast'"
        ]

    @pytest.mark.parametrize("argv, message", [
        (["serve", "contra", "--queue-capacity", "0"],
         "queue_capacity must be >= 1, got 0"),
        (["fleet", "contra", "--players", "0"], "players must be >= 1, got 0"),
        (["chaos", "contra", "--warm-pool", "-1"],
         "warm_pool must be >= 0, got -1"),
        (["obs", "contra", "--sessions", "0"], "sessions must be >= 1, got 0"),
        (["record", "contra", "--burst", "0"], "burst must be >= 1, got 0"),
        (["serve", "contra", "--rate-limit", "nan"],
         "rate_limit must be > 0, got nan"),
    ])
    def test_bad_run_config_is_one_line_before_running(
        self, capsys, argv, message
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before profiling starts
        assert captured.err.splitlines() == [
            f"cocg {argv[0]}: error: {message}"
        ]

    @pytest.mark.parametrize("command", [
        "fleet", "serve", "chaos", "obs", "record", "colocate", "profile",
    ])
    def test_unknown_game_exits_2_everywhere(self, capsys, command):
        assert main([command, "tetris"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"cocg {command}: error: unknown game(s) ")
        assert "tetris" in line

    def test_positive_values_parse(self):
        args = build_parser().parse_args(
            ["fleet", "contra", "--nodes", "1", "--horizon", "1",
             "--rate", "0.5", "--regions", "2"]
        )
        assert (args.nodes, args.horizon, args.rate, args.regions) == (
            1, 1, 0.5, 2
        )


class TestCommands:
    def test_catalog_lists_games(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for game in ("contra", "csgo", "dota2", "genshin", "devil_may_cry"):
            assert game in out

    def test_profile_and_save(self, capsys, tmp_path):
        out_file = tmp_path / "contra.profile.json"
        code = main([
            "profile", "contra", "-o", str(out_file),
            "--players", "3", "--sessions", "3", "--seed", "1",
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["game"] == "contra"
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_profile_unknown_game(self, capsys):
        assert main(["profile", "tetris"]) == 2
        assert "unknown game" in capsys.readouterr().err

    def test_colocate_uses_saved_profile(self, capsys, tmp_path):
        main([
            "profile", "contra", "-o", str(tmp_path / "contra.profile.json"),
            "--players", "3", "--sessions", "3", "--seed", "1",
        ])
        capsys.readouterr()
        code = main([
            "colocate", "contra", "--horizon", "400",
            "--profiles-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "loaded profile" in out
        assert "throughput" in out

    def test_colocate_unknown_game(self, capsys, tmp_path):
        assert main(
            ["colocate", "tetris", "--profiles-dir", str(tmp_path)]
        ) == 2
        assert "unknown game" in capsys.readouterr().err

    def test_fleet_runs(self, capsys, tmp_path):
        main([
            "profile", "contra", "-o", str(tmp_path / "contra.profile.json"),
            "--players", "3", "--sessions", "3", "--seed", "1",
        ])
        capsys.readouterr()
        code = main([
            "fleet", "contra", "--nodes", "2", "--horizon", "500",
            "--rate", "3.0", "--profiles-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet of 2 nodes" in out
        assert "throughput" in out

    def test_serve_end_to_end(self, capsys, tmp_path):
        main([
            "profile", "contra", "-o", str(tmp_path / "contra.profile.json"),
            "--players", "2", "--sessions", "2",
        ])
        capsys.readouterr()
        argv = [
            "serve", "contra", "--nodes", "2", "--horizon", "300",
            "--rate", "6", "--profiles-dir", str(tmp_path),
        ]
        digests = {}
        for extra in ([], ["--no-batching"]):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            assert "gateway outcomes:   queued=" in out
            assert ("micro-batching:" in out) == (not extra)
            assert "rollout cache" not in out
            (digest,) = [
                line.split()[-1] for line in out.splitlines()
                if line.startswith("telemetry digest:")
            ]
            digests[bool(extra)] = digest
        # Same outcomes, more rollouts: batching never changes a verdict.
        assert digests[False] == digests[True]
        assert len(digests[False]) == 64

    def test_chaos_runs_with_custom_plan(self, capsys, tmp_path):
        main([
            "profile", "contra", "-o", str(tmp_path / "contra.profile.json"),
            "--players", "3", "--sessions", "3", "--seed", "1",
        ])
        capsys.readouterr()
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "seed": 3,
            "faults": [
                {"kind": "node-crash", "time": 150.0, "node": "node-1",
                 "recover_after": 100.0},
                {"kind": "telemetry-dropout", "time": 0.0, "rate": 0.02,
                 "duration": 500.0},
            ],
        }))
        code = main([
            "chaos", "contra", "--nodes", "2", "--horizon", "500",
            "--plan", str(plan_file), "--profiles-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "loaded fault plan" in out
        assert "fault-free" in out and "faulted" in out
        assert "telemetry digest" in out

    def test_chaos_validate_ok(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "seed": 3,
            "faults": [
                {"kind": "spot-reclaim", "time": 60.0, "node": "node-0",
                 "notice": 30.0},
                {"kind": "provision-fail", "time": 10.0, "duration": 45.0},
            ],
        }))
        code = main(["chaos", "--validate", "--plan", str(plan_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok (2 faults, seed 3)" in out

    def test_chaos_validate_reports_problems(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "seed": 3,
            "faults": [{"kind": "spot-reclaim", "time": 60.0, "grace": 1.0}],
        }))
        code = main(["chaos", "--validate", "--plan", str(plan_file)])
        assert code == 1
        captured = capsys.readouterr()
        # Diagnostics are routed to stderr; stdout stays report-only.
        assert "faults[0]" in captured.err and "grace" in captured.err
        assert "faults[0]" not in captured.out

    def test_chaos_validate_rejects_bad_json(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text("{not json")
        assert main(["chaos", "--validate", "--plan", str(plan_file)]) == 1

    def test_chaos_validate_requires_plan(self, capsys):
        assert main(["chaos", "--validate"]) == 2

    def test_chaos_games_required_without_validate(self, capsys):
        assert main(["chaos"]) == 2

    def test_chaos_bad_plan_points_at_validate(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"seed": 3, "faults": [
            {"kind": "meteor-strike", "time": 1.0},
        ]}))
        code = main(["chaos", "contra", "--plan", str(plan_file)])
        assert code == 2
        assert "--validate" in capsys.readouterr().err

    def test_chaos_reclaim_storm_scenario(self, capsys, tmp_path):
        main([
            "profile", "contra", "-o", str(tmp_path / "contra.profile.json"),
            "--players", "3", "--sessions", "3", "--seed", "1",
        ])
        capsys.readouterr()
        code = main([
            "chaos", "contra", "--nodes", "2", "--horizon", "400",
            "--scenario", "reclaim-storm", "--warm-pool", "1",
            "--profiles-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reclaim-storm" in out
        assert "(unaccounted: 0)" in out
        assert "WARNING" not in out


class TestTraceCommands:
    """``cocg record`` / ``cocg replay`` / ``cocg corpus``."""

    def test_record_flags(self):
        args = build_parser().parse_args(
            ["record", "contra", "-o", "t.cgtrace", "--horizon", "200"]
        )
        assert args.command == "record"
        assert args.output == "t.cgtrace" and args.horizon == 200
        assert args.warm_pool is None and args.plan is None

    def test_corpus_flags(self):
        args = build_parser().parse_args(["corpus", "generate", "raid-night"])
        assert args.action == "generate" and args.names == ["raid-night"]
        assert args.out == "corpus"

    def test_record_then_replay_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "run.cgtrace"
        code = main([
            "record", "contra", "--horizon", "150", "--seed", "3",
            "-o", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet digest" in out and str(trace) in out
        assert trace.exists()

        code = main(["replay", str(trace)])
        assert code == 0
        captured = capsys.readouterr()
        assert "digest match:      yes" in captured.out
        assert captured.err == ""

    def test_replay_unreadable_trace_errors_to_stderr(self, capsys, tmp_path):
        missing = tmp_path / "nope.cgtrace"
        assert main(["replay", str(missing)]) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert captured.out == ""

    def test_replay_tampered_trace_fails(self, capsys, tmp_path):
        trace = tmp_path / "run.cgtrace"
        main([
            "record", "contra", "--horizon", "150", "--seed", "3",
            "-o", str(trace),
        ])
        capsys.readouterr()
        text = trace.read_text()
        trace.write_text(text.replace('"fleet_digest":"', '"fleet_digest":"0'))
        code = main(["replay", str(trace)])
        assert code == 1
        captured = capsys.readouterr()
        assert "digest match:      NO" in captured.out
        assert "diverged" in captured.err

    def test_record_unknown_game_errors_to_stderr(self, capsys, tmp_path):
        code = main([
            "record", "nonsuch", "-o", str(tmp_path / "t.cgtrace"),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "nonsuch" in captured.err

    def test_corpus_list(self, capsys):
        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("launch-day", "diurnal-wave", "raid-night",
                     "mobile-burst"):
            assert name in out

    def test_corpus_generate_unknown_scenario(self, capsys, tmp_path):
        code = main([
            "corpus", "generate", "nonsuch", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "nonsuch" in capsys.readouterr().err


class TestClosedPipe:
    """A reader that goes away (``cocg … | head -1``) ends the command
    with exit 1 and a quiet stderr, not a ``BrokenPipeError`` traceback."""

    @pytest.mark.parametrize("argv", [
        ["repro.cli", "catalog"],
        ["repro.cli", "lint", "--list-rules"],
        ["repro.lint", "--list-rules"],
    ])
    def test_closed_stdout_exits_1_without_traceback(self, argv):
        src = Path(__file__).resolve().parent.parent / "src"
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", *argv], stdout=w,
                stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
