"""Command-line entry point for repro-lint.

Exit codes follow the compiler convention the CI job keys on: 0 clean,
1 violations found (or stale suppressions under ``--show-suppressed``),
2 usage error (unknown rule code, unreadable path), 3 when the given
paths match no Python files at all -- a misconfigured CI glob must not
masquerade as a clean run. ``--changed`` with an empty diff *is* a
legitimate clean state and exits 0.

Per-file rules (RL001, RL003) run file by file; flow rules (RL005-RL016)
run once over a whole-program :class:`~repro.lint.flow.project.Project`
built from every file in the run. ``--changed`` narrows the *report*,
never the analysis: the project is still built from the full path set so
cross-module reasoning stays sound, and only findings in files touched
since HEAD (or untracked) are emitted.

Syntax errors in checked files are reported as RL000 -- a file the
analyzer cannot parse cannot be certified, so it fails the run.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.lint.profile import Profiler
from repro.lint.rules import default_rules
from repro.lint.rules.base import FileContext, FlowRule, Rule
from repro.lint.suppressions import Directive, Suppressions
from repro.lint.violations import Violation, build_report

#: Pseudo-code for files the analyzer cannot parse.
SYNTAX_ERROR_CODE = "RL000"

#: Paths exist but match no ``.py`` files (distinct from "clean").
EXIT_NO_FILES = 3

_SKIP_DIR_NAMES = frozenset({"__pycache__"})


def iter_python_files(
    paths: Sequence[str],
) -> list[tuple[pathlib.Path, str]]:
    """(resolved path, display path) for every ``.py`` under ``paths``.

    Directories are walked recursively; hidden directories and
    ``__pycache__`` are skipped. Display paths preserve the user's
    spelling so output is stable across machines.
    """
    out: list[tuple[pathlib.Path, str]] = []
    seen: set[pathlib.Path] = set()

    def add(resolved: pathlib.Path, display: str) -> None:
        if resolved not in seen:
            seen.add(resolved)
            out.append((resolved, display))

    for raw in paths:
        base = pathlib.Path(raw)
        if base.is_file():
            add(base.resolve(), raw)
            continue
        if not base.is_dir():
            raise FileNotFoundError(raw)
        for candidate in sorted(base.rglob("*.py")):
            relative = candidate.relative_to(base)
            parts = relative.parts
            if any(
                part in _SKIP_DIR_NAMES or part.startswith(".")
                for part in parts
            ):
                continue
            add(candidate.resolve(), str(base / relative))
    return out


@dataclass
class FileEntry:
    """One loaded source file: parse result plus its suppressions."""

    path: pathlib.Path
    display: str
    suppressions: Suppressions
    ctx: Optional[FileContext]  # None when the file does not parse
    syntax_violation: Optional[Violation]


def _make_entry(
    path: pathlib.Path, display: str, source: str
) -> FileEntry:
    suppressions = Suppressions.scan(source)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return FileEntry(
            path=path,
            display=display,
            suppressions=suppressions,
            ctx=None,
            syntax_violation=Violation(
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=SYNTAX_ERROR_CODE,
                message=f"file does not parse: {exc.msg}",
            ),
        )
    return FileEntry(
        path=path,
        display=display,
        suppressions=suppressions,
        ctx=FileContext(
            path=path, display_path=display, source=source, tree=tree
        ),
        syntax_violation=None,
    )


def _load_files(paths: Sequence[str]) -> list[FileEntry]:
    return [
        _make_entry(path, display, path.read_text(encoding="utf-8"))
        for path, display in iter_python_files(paths)
    ]


def _raw_violations(
    entries: Sequence[FileEntry],
    rules: Sequence[Rule],
    profiler: Optional[Profiler] = None,
) -> list[Violation]:
    """Every violation in the run, suppressions NOT yet applied."""
    from repro.lint.flow.project import Project

    prof = profiler if profiler is not None else Profiler()
    per_file = [r for r in rules if not isinstance(r, FlowRule)]
    flow = [r for r in rules if isinstance(r, FlowRule)]
    found: list[Violation] = []
    for entry in entries:
        if entry.syntax_violation is not None:
            found.append(entry.syntax_violation)
            continue
        assert entry.ctx is not None
        for rule in per_file:
            if rule.applies_to(entry.ctx):
                with prof.measure(rule.code):
                    found.extend(rule.check(entry.ctx))
    if flow:
        with prof.measure("project:build"):
            project = Project.build(
                [entry.ctx for entry in entries if entry.ctx is not None]
            )
        if any(rule.uses_async_facts for rule in flow):
            # Force the shared async graph under its own label so its
            # construction cost does not land on the first async rule.
            with prof.measure("project:asyncgraph"):
                project.asyncgraph()
        for rule in flow:
            with prof.measure(rule.code):
                found.extend(rule.check_project(project))
    return found


def _apply_suppressions(
    raw: Sequence[Violation], entries: Sequence[FileEntry]
) -> list[Violation]:
    by_display = {entry.display: entry.suppressions for entry in entries}
    empty = Suppressions()
    return [
        violation
        for violation in raw
        if not by_display.get(violation.path, empty).covers(
            violation.code, violation.line
        )
    ]


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    profiler: Optional[Profiler] = None,
) -> tuple[list[Violation], int]:
    """Lint every Python file under ``paths``.

    Returns (violations sorted by location, number of files checked).
    ``profiler`` accumulates per-rule wall time when given.
    """
    active = tuple(rules) if rules is not None else default_rules()
    entries = _load_files(paths)
    raw = _raw_violations(entries, active, profiler)
    return sorted(_apply_suppressions(raw, entries)), len(entries)


# --------------------------------------------------------------- --changed


def _git_changed_files() -> Optional[set[pathlib.Path]]:
    """Resolved paths of files modified since HEAD, plus untracked.

    None when git is unavailable or the cwd is not a work tree -- the
    caller falls back to reporting everything rather than nothing.
    """
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "--name-only", "HEAD", "--"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    root = pathlib.Path(top)
    names = [n for n in (diff + untracked).splitlines() if n.strip()]
    return {(root / name).resolve() for name in names}


def _filter_changed(
    violations: Sequence[Violation],
    entries: Sequence[FileEntry],
    changed: set[pathlib.Path],
) -> list[Violation]:
    changed_displays = {
        entry.display for entry in entries if entry.path in changed
    }
    return [v for v in violations if v.path in changed_displays]


# -------------------------------------------------------- --show-suppressed


@dataclass(frozen=True)
class DirectiveAudit:
    """One suppression directive and whether it still earns its keep."""

    display: str
    directive: Directive
    used: bool

    def format(self) -> str:
        scope = "disable-file" if self.directive.file_level else "disable"
        state = "used" if self.used else "STALE"
        return (
            f"{self.display}:{self.directive.line}: "
            f"{scope}={self.directive.code} {state}"
        )


def audit_suppressions(
    entries: Sequence[FileEntry], raw: Sequence[Violation]
) -> list[DirectiveAudit]:
    """Match every directive against the unsuppressed violation set.

    A line directive is *used* iff a violation with its code was reported
    on its line; a file directive iff any violation with its code exists
    in the file. Everything else is stale and should be deleted -- stale
    suppressions are how real regressions sneak past a gate.
    """
    by_display: dict[str, list[Violation]] = {}
    for violation in raw:
        by_display.setdefault(violation.path, []).append(violation)
    audits: list[DirectiveAudit] = []
    for entry in entries:
        here = by_display.get(entry.display, [])
        for directive in entry.suppressions.directives:
            used = any(
                v.code == directive.code
                and (directive.file_level or v.line == directive.line)
                for v in here
            )
            audits.append(DirectiveAudit(entry.display, directive, used))
    return audits


# ------------------------------------------------------------------- main


def _select_rules(spec: str) -> tuple[Rule, ...]:
    wanted = {code.strip().upper() for code in spec.split(",") if code.strip()}
    rules = default_rules()
    known = {rule.code for rule in rules}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return tuple(rule for rule in rules if rule.code in wanted)


def _list_rules() -> str:
    lines = [f"{SYNTAX_ERROR_CODE} syntax: file must parse"]
    for rule in default_rules():
        lines.append(f"{rule.code} {rule.title}: {rule.rationale}")
    return "\n".join(lines)


def _write_output(text: str, out: Optional[str]) -> None:
    if out is not None:
        pathlib.Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST and dataflow invariant checker for the repro codebase "
            "(rules RL001-RL016; see docs/LINTING.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "report only findings in files changed since HEAD "
            "(analysis still covers all paths for cross-module rules)"
        ),
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help=(
            "audit suppression comments instead of reporting violations; "
            "exits 1 if any directive is stale"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its rationale and exit",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print per-rule wall-time to stderr (and embed a "
            "'profile' section in --format json reports)"
        ),
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        print(_list_rules())
        return 0

    rules: tuple[Rule, ...]
    if options.rules is not None:
        try:
            rules = _select_rules(options.rules)
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2
    else:
        rules = default_rules()

    profiler = Profiler() if options.profile else None
    try:
        entries = _load_files(options.paths)
        raw = _raw_violations(entries, rules, profiler)
    except FileNotFoundError as exc:
        print(f"repro-lint: no such file or directory: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(
            "repro-lint: no Python files matched the given paths",
            file=sys.stderr,
        )
        return EXIT_NO_FILES

    if options.show_suppressed:
        audits = audit_suppressions(entries, raw)
        rendered = "".join(a.format() + "\n" for a in audits)
        _write_output(rendered, options.out)
        stale = sum(1 for a in audits if not a.used)
        print(
            f"repro-lint: {len(audits)} suppression(s), {stale} stale",
            file=sys.stderr,
        )
        return 1 if stale else 0

    violations = sorted(_apply_suppressions(raw, entries))
    files_checked = len(entries)

    if options.changed:
        changed = _git_changed_files()
        if changed is not None:
            violations = _filter_changed(violations, entries, changed)
            changed_count = sum(1 for e in entries if e.path in changed)
            if changed_count == 0:
                print(
                    "repro-lint: no checked files changed since HEAD",
                    file=sys.stderr,
                )
            files_checked = changed_count or files_checked
        else:
            print(
                "repro-lint: --changed ignored (not a git work tree)",
                file=sys.stderr,
            )

    if profiler is not None:
        print(profiler.report_text(), file=sys.stderr)

    if options.format == "json":
        report = build_report(violations, files_checked)
        if profiler is not None:
            report["profile"] = profiler.report_json()
        if options.out is not None:
            # Stable-JSON conventions shared with the experiment
            # manifests: identical trees produce byte-identical reports.
            from repro.analysis.export import export_lint_report

            export_lint_report(report, options.out)
        else:
            sys.stdout.write(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
    elif options.format == "sarif":
        from repro.lint.sarif import build_sarif

        log = build_sarif(violations, rules)
        _write_output(
            json.dumps(log, indent=2, sort_keys=True) + "\n", options.out
        )
    else:
        rendered = "".join(v.format() + "\n" for v in violations)
        _write_output(rendered, options.out)

    noun = "file" if files_checked == 1 else "files"
    if violations:
        print(
            f"repro-lint: {len(violations)} violation(s) in "
            f"{files_checked} {noun}",
            file=sys.stderr,
        )
        return 1
    print(f"repro-lint: {files_checked} {noun} clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
