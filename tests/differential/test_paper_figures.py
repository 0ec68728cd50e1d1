"""Differential backend agreement on the paper's illustrative figures.

Each case runs the identical scripted scenario through the packet
replay and the analytic fluid engine and asserts the harness's
tolerance report is empty. These are the fast differential tests — the
whole file is a few seconds — and the first thing to re-run after
touching the adapter, the add/drop policy or the fluid solver.
"""

from __future__ import annotations

import pytest

from tests.differential.harness import (
    PAPER_CASES,
    compare_backends,
)

pytestmark = pytest.mark.differential


@pytest.mark.parametrize("case", PAPER_CASES, ids=lambda c: c.name)
def test_backends_agree_on_paper_figures(case):
    problems = compare_backends(case, case.run_packet(), case.run_fluid())
    assert not problems, "\n".join(problems)

