"""Tests for shard entry points: the runtime ``@shard_entry`` marker,
CG015's entry discovery (decorated functions plus the conventional
``run``/``pump``/``dispatch``/``submit`` terminals under
``cluster``/``serve``), and the CG000 pragma-hygiene check.

Whether shards really share no state is checked dynamically, by
running them apart: ``tests/test_fleet.py::TestShardIsolation``.
"""

import ast
import textwrap

import pytest

from repro.lint import (
    ProjectContext,
    lint_paths,
    shard_entry_points,
    summarize_module,
)
from repro.lint.pragmas import parse_suppressions
from repro.util.effects import EffectError, shard_entry, shard_entry_group


def write_tree(tmp_path, files):
    """Materialise ``{relpath: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        file = tmp_path / rel
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(source))
    return tmp_path


def build_project(files):
    """A ProjectContext straight from ``{relpath: source}`` (no disk)."""
    mods = {}
    for rel, source in files.items():
        source = textwrap.dedent(source)
        summary = summarize_module(
            ast.parse(source),
            path=rel,
            rel_parts=tuple(rel.split("/")),
            suppressions=parse_suppressions(source),
        )
        mods[summary.module] = summary
    return ProjectContext(mods)


def rule_ids(result):
    return [f.rule_id for f in result.findings]


# ----------------------------------------------------------------------
# The runtime marker: @shard_entry
# ----------------------------------------------------------------------

class TestShardDecorators:
    def test_shard_entry_is_zero_cost(self):
        def fn(x):
            return x

        decorated = shard_entry("east")(fn)
        assert decorated is fn
        assert shard_entry_group(fn) == "east"

    def test_undecorated_has_no_group(self):
        def fn():
            pass

        assert shard_entry_group(fn) is None

    @pytest.mark.parametrize("bad", ["", "two words", "a.b", 7, None])
    def test_invalid_group_rejected(self, bad):
        with pytest.raises(EffectError):
            shard_entry(bad)

    def test_dashes_allowed_in_group(self):
        @shard_entry("region-east")
        def fn():
            pass

        assert shard_entry_group(fn) == "region-east"


# ----------------------------------------------------------------------
# Entry discovery (CG015)
# ----------------------------------------------------------------------

class TestEntryDiscovery:
    def test_conventional_terminals_under_entry_packages(self):
        project = build_project({
            "cluster/fleet.py": """
                def submit(r):
                    pass
                def helper():
                    pass
            """,
            "serve/gateway.py": """
                def pump(t):
                    pass
            """,
            "core/scheduler.py": """
                def run():
                    pass
            """,
        })
        assert shard_entry_points(project) == [
            "cluster.fleet::submit",
            "serve.gateway::pump",
        ]

    def test_decoration_creates_entries_anywhere(self):
        project = build_project({
            "core/loop.py": """
                from repro.util.effects import shard_entry

                @shard_entry("east")
                def spin():
                    pass
            """,
        })
        assert shard_entry_points(project) == ["core.loop::spin"]

    def test_decoration_wins_over_convention(self):
        project = build_project({
            "cluster/fleet.py": """
                from repro.util.effects import shard_entry

                @shard_entry("east")
                def dispatch(r):
                    pass
            """,
        })
        assert shard_entry_points(project) == ["cluster.fleet::dispatch"]


# ----------------------------------------------------------------------
# Pragma hygiene — unknown rule ids become CG000 findings
# ----------------------------------------------------------------------

class TestPragmaHygiene:
    def test_unknown_rule_id_is_cg000(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/a.py": """
                X = 1  # lint: disable=CG199
            """,
        })])
        cg000 = [f for f in result.findings if f.rule_id == "CG000"]
        assert len(cg000) == 1
        message = cg000[0].message
        assert "'CG199'" in message
        assert "valid ids:" in message
        listed = message.split("valid ids:")[1].split(", ")
        assert [r.strip() for r in listed] == \
            sorted(r.strip() for r in listed)
        assert "CG015" in message and "CG018" in message

    def test_known_rule_id_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/a.py": """
                X = 1  # lint: disable=CG007
            """,
        })])
        assert "CG000" not in rule_ids(result)

    def test_wildcard_pragma_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/a.py": """
                X = 1  # lint: disable
            """,
        })])
        assert "CG000" not in rule_ids(result)

    def test_cg000_is_not_suppressible(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/a.py": """
                # lint: disable=CG000,CG199
                X = 1
            """,
        })])
        assert "CG000" in rule_ids(result)
