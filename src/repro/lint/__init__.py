"""repro-lint: AST-based determinism and invariant checker.

The golden-trace harness is only sound if properties hold *at rest*
that nothing in the test suite can observe directly: the simulation
must be bit-for-bit deterministic and the core QA arithmetic must not
mix units. ``repro.lint`` is a standalone static analyzer (stdlib
``ast`` only, no new dependencies) that rejects whole classes of such
mistakes before any simulation runs.

Rules (each documented in docs/LINTING.md):

- **RL001 determinism** -- no ambient randomness or wall-clock reads in
  ``sim/``, ``core/``, ``transport/``, ``media/``; seeded
  :mod:`repro.sim.rng` streams only, and no ``PYTHONHASHSEED``-sensitive
  set iteration.
- **RL003 units discipline** -- no arithmetic mixing values built via
  :mod:`repro.core.units` helpers with raw numeric literals in the core
  QA math.

Violations are reported as ``path:line:col: CODE message`` (or JSON via
``--format json``) and can be suppressed per line with
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
