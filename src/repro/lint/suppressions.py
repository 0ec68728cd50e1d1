"""``# repro-lint: disable=CODE`` suppression comments.

Two forms, modelled on pylint's:

- ``# repro-lint: disable=RL001`` on a line suppresses the listed codes
  for violations reported *on that line* (trailing or standalone -- the
  comment's own line is what counts, matching the ``lineno`` the rules
  report).
- ``# repro-lint: disable-file=RL000,RL001`` anywhere in the file
  (conventionally in the module docstring area) suppresses the listed
  codes for the whole file.

Codes are comma-separated; unknown codes are accepted silently so a
suppression written for a future rule does not break older checkouts.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterator

_COMMENT = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<codes>[A-Za-z]+\d+(?:\s*,\s*[A-Za-z]+\d+)*)"
)


def _comment_lines(source: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, text)`` for each real comment in ``source``.

    Tokenizing keeps directive-shaped text inside string literals (for
    example this module's own docstring) from acting as a suppression.
    Files that do not tokenize fall back to a per-line string scan so
    syntactically broken files stay suppressible.
    """
    comments: list[tuple[int, str]] = []
    try:
        readline = io.StringIO(source).readline
        for tok in tokenize.generate_tokens(readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
    except (SyntaxError, ValueError, tokenize.TokenError):
        yield from enumerate(source.splitlines(), start=1)
        return
    yield from comments


@dataclass(frozen=True)
class Directive:
    """One suppression comment as written in the file.

    ``line`` is where the comment sits; ``code`` a single rule code
    (comma lists are split into one directive each); ``file_level``
    whether it was the ``disable-file`` form. Kept so ``repro-lint
    --show-suppressed`` can audit which directives still earn their keep.
    """

    line: int
    code: str
    file_level: bool


@dataclass
class Suppressions:
    """Parsed suppression directives for one source file."""

    file_level: frozenset[str] = frozenset()
    by_line: dict[int, frozenset[str]] = field(default_factory=dict)
    directives: tuple[Directive, ...] = ()

    @classmethod
    def scan(cls, source: str) -> "Suppressions":
        """Collect directives from every comment in ``source``.

        Only genuine comment tokens count: directive-shaped text inside
        a string literal or docstring documents the syntax without
        enabling it. When the file does not tokenize the scan degrades
        to every physical line, keeping broken files suppressible.
        """
        file_level: set[str] = set()
        by_line: dict[int, frozenset[str]] = {}
        directives: list[Directive] = []
        for lineno, text in _comment_lines(source):
            match = _COMMENT.search(text)
            if match is None:
                continue
            codes = frozenset(
                code.strip().upper()
                for code in match.group("codes").split(",")
            )
            is_file_level = match.group("scope") == "disable-file"
            for code in sorted(codes):
                directives.append(Directive(lineno, code, is_file_level))
            if is_file_level:
                file_level |= codes
            else:
                by_line[lineno] = by_line.get(lineno, frozenset()) | codes
        return cls(
            file_level=frozenset(file_level),
            by_line=by_line,
            directives=tuple(directives),
        )

    def covers(self, code: str, line: int) -> bool:
        """Is a ``code`` violation reported at ``line`` suppressed?"""
        if code in self.file_level:
            return True
        return code in self.by_line.get(line, frozenset())
