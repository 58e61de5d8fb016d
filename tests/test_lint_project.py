"""Tests for the whole-program phase: CG010–CG013 and the SARIF
reporter."""

import json
import textwrap

import pytest

from repro.lint import (
    all_project_rules,
    lint_paths,
    render_sarif,
    resolve_project_rules,
)
from repro.lint.__main__ import main as lint_main
from repro.lint.registry import UnknownRuleError


def write_tree(tmp_path, files):
    """Materialise ``{relpath: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        file = tmp_path / rel
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(source))
    return tmp_path


def rule_ids(result):
    return [f.rule_id for f in result.findings]


# ----------------------------------------------------------------------
# CG010 — unordered iteration into ordering-sensitive sinks
# ----------------------------------------------------------------------

class TestCG010:
    def test_dict_iteration_reaching_dispatch_across_modules(self, tmp_path):
        """The acceptance scenario: an unsorted dict iteration whose
        enclosing function reaches ``dispatch_order`` through a helper
        in another module."""
        tree = write_tree(tmp_path, {
            "serve/gateway.py": """\
                from util.helpers import fanout

                def drain(queues):
                    for name, q in queues.items():
                        fanout(q)
                """,
            "util/helpers.py": """\
                def fanout(q):
                    return dispatch_order(q)

                def dispatch_order(q):
                    return list(q)
                """,
        })
        result = lint_paths([tree], select=["CG010"])
        assert rule_ids(result) == ["CG010"]
        finding = result.findings[0]
        assert "queues.items()" in finding.message
        assert "dispatch_order" in finding.message
        assert finding.path.endswith("gateway.py")
        assert finding.line == 4

    def test_set_iteration_direct_sink(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/sched.py": """\
                def submit(self, jobs):
                    for j in {1, 2, 3}:
                        self.place(j)
                """,
        })], select=["CG010"])
        assert rule_ids(result) == ["CG010"]
        assert "iteration over a set" in result.findings[0].message

    def test_sorted_iteration_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "serve/gateway.py": """\
                def drain(queues):
                    for name in sorted(queues):
                        dispatch_order(queues[name])

                def dispatch_order(q):
                    return list(q)
                """,
        })], select=["CG010"])
        assert result.ok

    def test_loop_without_sink_reachability_is_clean(self, tmp_path):
        # Same loop, but nothing downstream is ordering-sensitive.
        result = lint_paths([write_tree(tmp_path, {
            "serve/stats.py": """\
                def widths(queues):
                    out = []
                    for name, q in queues.items():
                        out.append(len(q))
                    return out
                """,
        })], select=["CG010"])
        assert result.ok

    def test_non_critical_package_is_out_of_scope(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "analysis/tables.py": """\
                def submit(rows):
                    for k, v in rows.items():
                        record(k, v)

                def record(k, v):
                    return (k, v)
                """,
        })], select=["CG010"])
        assert result.ok

    def test_pragma_suppresses_with_proof(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "serve/gateway.py": """\
                def drain(queues):
                    for name, q in queues.items():  # lint: disable=CG010 -- every q drained independently
                        dispatch_order(q)

                def dispatch_order(q):
                    return list(q)
                """,
        })], select=["CG010"])
        assert result.ok


# ----------------------------------------------------------------------
# CG011 — RNG stream discipline, whole-program
# ----------------------------------------------------------------------

class TestCG011:
    def test_unseeded_draw_two_calls_upstream_of_serve(self, tmp_path):
        """The acceptance scenario: ``random.random()`` laundered
        through two helpers before reaching ``serve/``."""
        tree = write_tree(tmp_path, {
            "serve/admit.py": """\
                from util.jitter import wobble

                def try_admit(x):
                    return wobble(x)
                """,
            "util/jitter.py": """\
                from util.noise import sample

                def wobble(x):
                    return x + sample()
                """,
            "util/noise.py": """\
                import random

                def sample():
                    return random.random()
                """,
        })
        result = lint_paths([tree], select=["CG011"])
        assert rule_ids(result) == ["CG011"]
        finding = result.findings[0]
        assert finding.path.endswith("admit.py")
        # The witness chain names the laundering path.
        assert "wobble" in finding.message
        assert "sample" in finding.message

    def test_draw_directly_inside_critical_package(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "faults/chaos.py": """\
                import random

                def shake():
                    return random.gauss(0, 1)
                """,
        })], select=["CG011"])
        assert rule_ids(result) == ["CG011"]
        assert "random.gauss" in result.findings[0].message

    def test_seeded_streams_are_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "serve/admit.py": """\
                from util.jitter import wobble

                def try_admit(x, rng):
                    return wobble(x, rng)
                """,
            "util/jitter.py": """\
                def wobble(x, rng):
                    return x + rng.uniform(0, 1)
                """,
        })], select=["CG011"])
        assert result.ok

    def test_draw_not_reachable_from_critical_code_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "analysis/boot.py": """\
                import random

                def resample(xs):
                    return random.choice(xs)
                """,
            "serve/admit.py": """\
                def try_admit(x):
                    return x
                """,
        })], select=["CG011"])
        assert result.ok


# ----------------------------------------------------------------------
# CG012 — wall-clock taint crossing into sim/
# ----------------------------------------------------------------------

class TestCG012:
    def test_laundered_wall_clock_read(self, tmp_path):
        tree = write_tree(tmp_path, {
            "sim/clock.py": """\
                from util.now import stamp

                def advance(t):
                    return stamp(t)
                """,
            "util/now.py": """\
                import time

                def stamp(t):
                    return time.time() + t
                """,
        })
        result = lint_paths([tree], select=["CG012"])
        assert rule_ids(result) == ["CG012"]
        finding = result.findings[0]
        assert finding.path.endswith("clock.py")
        assert "stamp" in finding.message

    def test_direct_read_in_sim_left_to_cg005(self, tmp_path):
        # A read *inside* sim/ is CG005's finding; CG012 only covers
        # the cross-module case, so selecting CG012 alone stays quiet.
        result = lint_paths([write_tree(tmp_path, {
            "sim/clock.py": """\
                import time

                def advance(t):
                    return time.time() + t
                """,
        })], select=["CG012"])
        assert result.ok

    def test_wall_clock_outside_sim_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "analysis/bench.py": """\
                import time

                def elapsed(t0):
                    return time.perf_counter() - t0
                """,
        })], select=["CG012"])
        assert result.ok


# ----------------------------------------------------------------------
# CG013 — digest completeness for event dataclasses
# ----------------------------------------------------------------------

class TestCG013:
    def test_unrecorded_event_dataclass(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "faults/events.py": """\
                from dataclasses import dataclass

                @dataclass
                class CrashEvent:
                    node: str
                """,
        })], select=["CG013"])
        assert rule_ids(result) == ["CG013"]
        assert "CrashEvent" in result.findings[0].message

    def test_event_constructed_in_digest_module_is_covered(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "faults/events.py": """\
                from dataclasses import dataclass

                @dataclass
                class CrashEvent:
                    node: str
                """,
            "sim/telemetry.py": """\
                from faults.events import CrashEvent

                def record_fault(node):
                    return CrashEvent(node=node)

                def digest():
                    return "d"
                """,
        })], select=["CG013"])
        assert result.ok

    def test_non_dataclass_and_other_packages_out_of_scope(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "faults/events.py": """\
                class PlainEvent:
                    pass
                """,
            "analysis/events.py": """\
                from dataclasses import dataclass

                @dataclass
                class ReportEvent:
                    name: str
                """,
        })], select=["CG013"])
        assert result.ok

    def test_pragma_exempts_internal_event(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "sim/engine.py": """\
                from dataclasses import dataclass

                @dataclass
                class TickEvent:  # lint: disable=CG013 -- scheduler-internal
                    t: float
                """,
        })], select=["CG013"])
        assert result.ok


# ----------------------------------------------------------------------
# Registry / selection plumbing
# ----------------------------------------------------------------------

class TestProjectRegistry:
    def test_registry_has_all_project_rules(self):
        assert sorted(all_project_rules()) == [
            "CG010", "CG011", "CG012", "CG013",
            "CG015", "CG016", "CG017", "CG018",
        ]

    def test_select_spans_both_registries(self):
        # Selecting a per-file id must not error the project resolver
        # (it just resolves to no project rules), and vice versa.
        assert resolve_project_rules(select=["CG001"]) == []
        only_cg011 = resolve_project_rules(select=["CG011"])
        assert [cls.rule_id for cls in only_cg011] == ["CG011"]
        with pytest.raises(UnknownRuleError):
            resolve_project_rules(select=["CG999"])

    def test_no_project_phase_flag(self, tmp_path):
        tree = write_tree(tmp_path, {
            "faults/events.py": """\
                from dataclasses import dataclass

                @dataclass
                class CrashEvent:
                    node: str
                """,
        })
        assert lint_paths([tree], select=["CG013"], whole_program=False).ok
        assert not lint_paths([tree], select=["CG013"]).ok


# ----------------------------------------------------------------------
# SARIF reporter
# ----------------------------------------------------------------------

#: A CG011 laundering chain: serve/ -> util.jitter -> util.noise.
FIXTURE = {
    "serve/admit.py": """\
        from util.jitter import wobble

        def try_admit(x):
            return wobble(x)
        """,
    "util/jitter.py": """\
        from util.noise import sample

        def wobble(x):
            return x + sample()
        """,
    "util/noise.py": """\
        import random

        def sample():
            return random.random()
        """,
}


class TestSarif:
    def test_sarif_log_shape(self, tmp_path):
        tree = write_tree(tmp_path, FIXTURE)
        result = lint_paths([tree], select=["CG011"])
        log = json.loads(render_sarif(result))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"CG000", "CG001", "CG010", "CG011", "CG012",
                "CG013"} <= declared
        res = run["results"][0]
        assert res["ruleId"] == "CG011"
        assert res["locations"][0]["physicalLocation"]["region"]["startLine"] >= 1

    def test_cli_sarif_flag_writes_file(self, tmp_path, capsys):
        tree = write_tree(tmp_path / "t", FIXTURE)
        out = tmp_path / "lint.sarif"
        code = lint_main([str(tree), "--select", "CG011",
                          "--sarif", str(out)])
        capsys.readouterr()
        assert code == 1
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"][0]["ruleId"] == "CG011"

    def test_cli_format_sarif_stdout(self, tmp_path, capsys):
        tree = write_tree(tmp_path / "t", FIXTURE)
        lint_main([str(tree), "--select", "CG011", "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
