"""Lint runner: collect files, run checkers, apply suppressions."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    ProjectInfo,
    all_checkers,
)

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    """Findings not silenced by a suppression comment."""
    suppressed: int = 0
    """Findings silenced by inline ``# repro-lint: disable`` comments."""
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the run found nothing (suppressed findings aside)."""
        return not self.findings and not self.parse_errors

    def format_text(self) -> str:
        lines = [finding.format_text() for finding in self.findings]
        lines.extend(f"error: {error}" for error in self.parse_errors)
        lines.append(
            f"repro-lint: {len(self.findings)} finding(s), {self.suppressed} suppressed, "
            f"{self.files_checked} file(s), rules: {', '.join(self.rules_run)}"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules_run": self.rules_run,
            "suppressed": self.suppressed,
            "findings": [f.as_dict() for f in self.findings],
            "parse_errors": self.parse_errors,
        }
        return json.dumps(payload, indent=2)


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    seen.add(candidate)
        elif path.suffix == ".py":
            seen.add(path)
    return sorted(seen)


def _relative_to_cwd(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: Sequence[Path | str],
    rules: Sequence[str] | None = None,
    options: Mapping[str, Mapping[str, object]] | None = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) and return a :class:`LintReport`.

    ``rules`` names the rules to run (``None``: every registered checker);
    ``options[rule]`` is merged over that checker's ``default_config``.  This
    is the pytest-friendly API: point it at a tree (or a fixture file) and
    assert on ``report.findings``.
    """
    files = collect_files([Path(p) for p in paths])

    registry = all_checkers()
    rule_names = list(rules) if rules is not None else sorted(registry)
    unknown = [r for r in rule_names if r not in registry]
    if unknown:
        raise ValueError(f"unknown lint rule(s): {', '.join(unknown)}")
    options = options or {}
    checkers: list[Checker] = [
        registry[rule](dict(options.get(rule, {}))) for rule in rule_names
    ]

    report = LintReport(rules_run=rule_names)
    project = ProjectInfo()
    raw_findings: list[Finding] = []
    suppression_lookup: dict[str, ModuleInfo] = {}

    for file_path in files:
        rel = _relative_to_cwd(file_path)
        try:
            module = ModuleInfo.parse(file_path, rel_path=rel)
        except SyntaxError as exc:
            report.parse_errors.append(f"{rel}: {exc.msg} (line {exc.lineno})")
            continue
        project.modules.append(module)
        suppression_lookup[rel] = module
        report.files_checked += 1
        for line in module.suppressions.unjustified:
            report.findings.append(
                Finding(
                    "suppression", rel, line, 0,
                    "suppression gives no reason: write why the line is exempt "
                    "in parentheses after the rule list",
                )
            )
        for checker in checkers:
            raw_findings.extend(checker.check_module(module))
    for checker in checkers:
        raw_findings.extend(checker.finalize(project))

    for finding in raw_findings:
        module_info = suppression_lookup.get(finding.path)
        if module_info is not None and module_info.suppressions.is_suppressed(finding):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule, f.message))
    return report
