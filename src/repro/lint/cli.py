"""Command-line entry point for repro-lint.

Exit codes follow the compiler convention the CI job keys on: 0 clean,
1 violations found (or stale suppressions under ``--show-suppressed``),
2 usage error (unknown rule code, unreadable path), 3 when the given
paths match no Python files at all -- a misconfigured CI glob must not
masquerade as a clean run. ``--changed`` with an empty diff *is* a
legitimate clean state and exits 0.

Every rule runs file by file, so ``--changed`` parses only the files
touched since HEAD (or untracked) and reports what it finds in them.

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

from repro.lint.rules import default_rules
from repro.lint.rules.base import FileContext, Rule
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
        display=display,
        suppressions=suppressions,
        ctx=FileContext(path=path, display_path=display, tree=tree),
        syntax_violation=None,
    )


def _load_files(files: Sequence[tuple[pathlib.Path, str]]) -> list[FileEntry]:
    return [
        _make_entry(path, display, path.read_text(encoding="utf-8"))
        for path, display in files
    ]


def _raw_violations(
    entries: Sequence[FileEntry], rules: Sequence[Rule]
) -> list[Violation]:
    """Every violation in the run, suppressions NOT yet applied."""
    found: list[Violation] = []
    for entry in entries:
        if entry.syntax_violation is not None:
            found.append(entry.syntax_violation)
            continue
        assert entry.ctx is not None
        for rule in rules:
            if rule.applies_to(entry.ctx):
                found.extend(rule.check(entry.ctx))
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
    paths: Sequence[str], rules: Optional[Sequence[Rule]] = None
) -> tuple[list[Violation], int]:
    """Lint every Python file under ``paths``.

    Returns (violations sorted by location, number of files checked).
    """
    active = tuple(rules) if rules is not None else default_rules()
    entries = _load_files(iter_python_files(paths))
    raw = _raw_violations(entries, active)
    return sorted(_apply_suppressions(raw, entries)), len(entries)


# --------------------------------------------------------------- --changed


def _git_changed_files() -> Optional[set[pathlib.Path]]:
    """Resolved paths of files modified since HEAD, plus untracked.

    None when git is unavailable or the cwd is not a work tree -- the
    caller falls back to checking everything rather than nothing.
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


def _changed_only(
    files: Sequence[tuple[pathlib.Path, str]],
) -> list[tuple[pathlib.Path, str]]:
    """The ``files`` changed since HEAD, or all of them outside git."""
    changed = _git_changed_files()
    if changed is None:
        print(
            "repro-lint: --changed ignored (not a git work tree)",
            file=sys.stderr,
        )
        return list(files)
    kept = [entry for entry in files if entry[0] in changed]
    if not kept:
        print("repro-lint: no checked files changed since HEAD", file=sys.stderr)
    return kept


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
        target = pathlib.Path(out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST determinism checker for the repro codebase "
            "(rule RL001; see docs/LINTING.md)."
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
        help="check only files changed since HEAD (or untracked)",
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

    try:
        files = iter_python_files(options.paths)
        if not files:
            print(
                "repro-lint: no Python files matched the given paths",
                file=sys.stderr,
            )
            return EXIT_NO_FILES
        files_checked = len(files)
        if options.changed and not options.show_suppressed:
            files = _changed_only(files)
            files_checked = len(files) or files_checked
        entries = _load_files(files)
    except FileNotFoundError as exc:
        print(f"repro-lint: no such file or directory: {exc}", file=sys.stderr)
        return 2
    raw = _raw_violations(entries, rules)

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

    if options.format == "json":
        # Sorted keys: identical trees give byte-identical reports.
        report = build_report(violations, files_checked)
        _write_output(
            json.dumps(report, indent=2, sort_keys=True) + "\n", options.out
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
