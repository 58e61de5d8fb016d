"""``python -m repro.lint`` — the analyzer's command-line front end.

Also backs the ``cocg lint`` subcommand: :func:`configure_parser`
installs the shared flags on any :class:`argparse.ArgumentParser` (or
subparser) and :func:`run_from_args` executes the parsed namespace.

Every run is cold: it parses the whole tree and derives both phases
from scratch, and stores nothing between runs.

Exit codes: ``0`` clean, ``1`` findings reported, ``2`` usage error
(unknown rule id or nonexistent path).  When stdout is a pipe whose
reader has gone away (``… | head -1``), the run exits ``1`` quietly
instead of dying with a ``BrokenPipeError`` traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import lint_paths
from repro.lint.registry import (
    UnknownRuleError,
    all_project_rules,
    all_rules,
    explain_rule,
)
from repro.lint.reporters import render_json, render_sarif, render_text

__all__ = ["configure_parser", "build_parser", "run_from_args", "main"]


def configure_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Install the lint CLI flags on ``parser`` (shared with ``cocg lint``)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: ./src if present, else .)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--sarif", metavar="PATH", type=Path,
        help="additionally write a SARIF 2.1.0 log to PATH",
    )
    parser.add_argument(
        "--no-project", action="store_true",
        help="skip the whole-program phase (CG010-CG013)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    parser.add_argument(
        "--explain", metavar="RULE",
        help="print one rule's rationale and fix recipe "
             "(e.g. --explain CG015) and exit",
    )
    parser.add_argument(
        "--effects-out", metavar="PATH", type=Path,
        help="write the inferred effect signatures (effects.json) "
             "to PATH",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The standalone ``python -m repro.lint`` parser."""
    return configure_parser(argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="CoCG invariant checker "
                    "(per-file CG001-CG009 and CG014, "
                    "whole-program CG010-CG013, "
                    "effect system CG015-CG018)",
    ))


def _split_rule_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    rules = [part.strip() for part in raw.split(",") if part.strip()]
    if not rules:
        # An explicitly empty selection would silently lint nothing and
        # exit 0 — a CI footgun; fail loudly instead.
        raise UnknownRuleError("empty rule list (expected e.g. CG001,CG005)")
    return rules


def _default_paths() -> List[str]:
    return ["src"] if Path("src").is_dir() else ["."]


def _print_rules() -> None:
    for title, registry in (("per-file rules", all_rules()),
                            ("whole-program rules", all_project_rules())):
        print(f"# {title}")
        for rule_id, rule_cls in sorted(registry.items()):
            print(f"{rule_id}  {rule_cls.name:32} {rule_cls.description}")


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed lint namespace; returns the process exit code."""
    if args.list_rules:
        _print_rules()
        return 0
    if args.explain is not None:
        try:
            print(explain_rule(args.explain.strip().upper()))
        except UnknownRuleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    paths = args.paths or _default_paths()
    try:
        select = _split_rule_list(args.select)
        ignore = _split_rule_list(args.ignore)
        result = lint_paths(
            paths,
            select=select,
            ignore=ignore,
            whole_program=not args.no_project,
            effects=args.effects_out is not None,
        )
    except (UnknownRuleError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.effects_out is not None and result.effects is not None:
        args.effects_out.write_text(result.effects, encoding="utf-8")
    if args.sarif is not None:
        args.sarif.write_text(render_sarif(result) + "\n", encoding="utf-8")
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.lint``."""
    args = build_parser().parse_args(argv)
    try:
        code = run_from_args(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (``… | head -1``): point stdout at
        # devnull so the interpreter's shutdown flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
