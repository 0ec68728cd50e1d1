"""repro-lint: AST-based determinism checker.

Every golden artifact can only be regenerated because each simulation
run is a pure function of its seed. ``repro.lint`` is a standalone
static analyzer (stdlib ``ast`` only, no new dependencies) that guards
that property at rest, before any simulation runs.

Rules (documented in docs/LINTING.md):

- **RL000 syntax** -- a file the analyzer cannot parse fails the run.
- **RL001 determinism** -- no ambient randomness, wall-clock reads or
  ``PYTHONHASHSEED``-sensitive set iteration in ``sim/``, ``core/``,
  ``transport/``, ``media/``, ``scenario/`` and ``telemetry/``; seeded
  :mod:`repro.sim.rng` streams only. ``service/`` keeps its wall clock
  but not the rest.

Violations are reported as ``path:line:col: CODE message`` (or JSON or
SARIF via ``--format``) and can be suppressed per line with
``# repro-lint: disable=CODE`` or per file with
``# repro-lint: disable-file=CODE``.

Installed as the ``repro-lint`` console script; also runnable as
``python -m repro.lint``.
"""

from repro.lint.cli import lint_paths, main
from repro.lint.rules import default_rules
from repro.lint.violations import REPORT_SCHEMA, Violation, build_report

__all__ = [
    "REPORT_SCHEMA",
    "Violation",
    "build_report",
    "default_rules",
    "lint_paths",
    "main",
]
