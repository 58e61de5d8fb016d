"""File discovery, parsing, and two-phase rule dispatch.

:func:`lint_paths` is the library entry point.  It runs in two phases:

1. **Per-file** — expand files and directories into ``*.py`` targets,
   parse each with :mod:`ast`, build a
   :class:`~repro.lint.registry.FileContext` (including the pragma
   table), and run every applicable CG001–CG009 rule.  Each parsed
   module is also distilled into a
   :class:`~repro.lint.project.ModuleSummary` for phase two.

2. **Whole-program** — the summaries form a
   :class:`~repro.lint.project.ProjectContext` over which the
   CG010–CG013 rules run taint/reachability queries.

Nothing is stored between runs: every run parses every file and derives
both phases from scratch, so a run is a pure function of the tree.

Rules scope themselves on the file's path *relative to the package
root*; :func:`_rel_parts` recovers that for installed trees
(``…/src/repro/core/x.py`` → ``("core", "x.py")``) and for fixture trees
(``tmp/core/x.py`` linted with root ``tmp`` → the same), so tests can
exercise path-scoped rules without a full package checkout.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Type

from repro.lint.findings import Finding
from repro.lint.pragmas import Suppressions, parse_suppressions
from repro.lint.project import (
    ModuleSummary,
    ProjectContext,
    summarize_module,
)
from repro.lint.registry import (
    FileContext,
    Rule,
    all_project_rules,
    all_rules,
    resolve_project_rules,
    resolve_rules,
)

# Importing the rule modules populates both registries.
import repro.lint.rules  # noqa: F401  (side-effect import)
import repro.lint.project_rules  # noqa: F401  (side-effect import)
import repro.lint.effects as _effects  # registers CG015-CG018

__all__ = ["LintResult", "lint_file", "lint_paths", "iter_python_files"]

#: Rule id used for files that do not parse at all.
_SYNTAX_RULE_ID = "CG000"

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".venv", "node_modules",
                   ".mypy_cache", ".ruff_cache", ".pytest_cache"}


@dataclass
class LintResult:
    """Findings plus how much was looked at to produce them."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: The ``effects.json`` artifact text (sorted, deterministic) when
    #: the run was asked for it (``lint_paths(..., effects=True)``).
    effects: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when no rule fired."""
        return not self.findings


def iter_python_files(paths: Sequence[Path]) -> list[tuple[Path, Path]]:
    """Expand files/directories into ``(file, root)`` pairs.

    ``root`` is the directory the file was discovered under (the file's
    parent for explicit file arguments); rules use it to locate the file
    within the package when the path carries no ``repro`` component.
    """
    out: list[tuple[Path, Path]] = []
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if any(part in _SKIP_DIR_NAMES for part in file.parts):
                    continue
                out.append((file, path))
        elif path.is_file():
            out.append((path, path.parent))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return out


#: Top-level subpackages of ``repro`` that path-scoped rules key on.
_KNOWN_SUBPACKAGES = {
    "analysis", "baselines", "cluster", "core", "faults", "fleet",
    "games", "lint", "mlkit", "platform_", "serve", "sim", "streaming",
    "util", "workloads",
}


def _rel_parts(file: Path, root: Path) -> tuple[str, ...]:
    """Path components of ``file`` relative to the ``repro`` package."""
    resolved = file.resolve().parts
    if "repro" in resolved:
        # Last occurrence: the package dir even when a parent dir is
        # also called "repro".
        idx = len(resolved) - 1 - resolved[::-1].index("repro")
        parts = resolved[idx + 1:]
        if parts:
            return tuple(parts)
    try:
        parts = file.resolve().relative_to(root.resolve()).parts
    except ValueError:
        parts = (file.name,)
    while parts and parts[0] in ("src", "repro"):
        parts = parts[1:]
    if len(parts) <= 1:
        # An explicit file argument carries no tree context; recover the
        # subpackage from any known directory name in the full path so
        # `lint core/x.py` scopes the same way as `lint core/`.
        dirs = resolved[:-1]
        for i in range(len(dirs) - 1, -1, -1):
            if dirs[i] in _KNOWN_SUBPACKAGES:
                return tuple(resolved[i:])
    return tuple(parts) if parts else (file.name,)


def _pragma_hygiene(path: str, suppressions: Suppressions) -> list[Finding]:
    """CG000 findings for pragmas naming unknown rule ids.

    A ``# lint: disable=CG199`` suppresses nothing — silently.  That is
    the worst failure mode a suppression system can have (the author
    believes a rule is off), so an unknown id is a loud CG000-level
    finding listing the valid ids, exactly like ``--explain`` fails on
    an unknown id.  CG000 findings are never themselves suppressible.
    """
    known = set(all_rules()) | set(all_project_rules()) | {_SYNTAX_RULE_ID}
    out: list[Finding] = []
    valid = ", ".join(sorted(known))
    for line, token in suppressions.declared:
        if token not in known:
            out.append(Finding(
                path=path, line=line, col=1, rule_id=_SYNTAX_RULE_ID,
                message=(f"pragma names unknown rule id {token!r}; "
                         f"valid ids: {valid}"),
            ))
    return out


def _analyze_file(
    file: Path,
    *,
    root: Path,
    rules: Iterable[Type[Rule]],
) -> Tuple[list[Finding], Optional[ModuleSummary]]:
    """Parse one file, run the per-file rules, and summarise it.

    Returns the sorted findings plus the module's whole-program summary
    (``None`` when the file does not parse — the CG000 finding stands
    in for it).
    """
    display = str(file)
    rel = _rel_parts(file, root)
    try:
        source = file.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=display)
    except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = getattr(exc, "offset", None) or 1
        reason = getattr(exc, "msg", None) or str(exc)
        return [Finding(path=display, line=int(line), col=int(col),
                        rule_id=_SYNTAX_RULE_ID,
                        message=f"file does not parse: {reason}")], None
    suppressions = parse_suppressions(source)
    ctx = FileContext(
        path=display, rel_parts=rel, tree=tree, suppressions=suppressions,
    )
    for rule_cls in rules:
        if rule_cls.applies_to(ctx):
            rule_cls(ctx).check()
    ctx.findings.extend(_pragma_hygiene(display, suppressions))
    summary = summarize_module(
        tree, path=display, rel_parts=rel, suppressions=suppressions,
    )
    return sorted(ctx.findings), summary


def lint_file(
    file: Path,
    *,
    root: Optional[Path] = None,
    rules: Optional[Iterable[Type[Rule]]] = None,
) -> list[Finding]:
    """Lint one file (per-file phase only), findings sorted by location."""
    if rules is None:
        rules = resolve_rules()
    root = root if root is not None else file.parent
    findings, _summary = _analyze_file(file, root=root, rules=rules)
    return findings


def lint_paths(
    paths: Sequence[object],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    whole_program: bool = True,
    effects: bool = False,
) -> LintResult:
    """Lint files and directory trees, both phases.

    Parameters
    ----------
    paths:
        Files and/or directories (``str`` or :class:`~pathlib.Path`).
    select / ignore:
        Optional rule-id filters, as in
        :func:`repro.lint.registry.resolve_rules`; they apply to both
        phases (``--select CG011`` runs only the whole-program RNG
        rule).
    whole_program:
        Run the CG010–CG013 project phase (default).  Per-file-only
        mode exists for fixtures that are not meaningful as a project.
    effects:
        Additionally render the inferred effect signatures
        (:func:`repro.lint.effects.render_effects`) into
        :attr:`LintResult.effects` (backs ``--effects-out``).  Implies
        nothing about rule selection — the inference runs even when
        CG015–CG018 are deselected.
    """
    select = list(select) if select is not None else None
    ignore = list(ignore) if ignore is not None else None
    rules = resolve_rules(select, ignore)
    project_rules = resolve_project_rules(select, ignore) if whole_program else []
    result = LintResult()
    summaries: dict[str, ModuleSummary] = {}

    for file, root in iter_python_files([Path(p) for p in paths]):
        result.files_checked += 1
        findings, summary = _analyze_file(file, root=root, rules=rules)
        if summary is not None:
            summaries[summary.module] = summary
        result.findings.extend(findings)

    if (project_rules or effects) and summaries:
        project = ProjectContext(summaries)
        for rule_cls in project_rules:
            rule = rule_cls(project)
            rule.check()
            result.findings.extend(rule.findings)
        if effects:
            result.effects = _effects.render_effects(project)

    result.findings.sort()
    return result
