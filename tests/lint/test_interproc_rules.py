"""Interprocedural rules RL009-RL012: exact findings on fixtures.

Same contract as ``test_flow_rules.py``: every finding is pinned to its
``(file, line, col)`` and the deliberately-correct code in the same
fixtures is asserted silent, so a rule that drifts in either direction
fails loudly.
"""

import pathlib

from repro.lint import lint_paths
from repro.lint.rules import (
    NumpyDisciplineRule,
    ProcessSafetyRule,
    SimTimeRule,
    ToleranceRule,
)

FLOW_FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "flow"


def locations(rule):
    violations, _ = lint_paths([str(FLOW_FIXTURES)], rules=[rule])
    assert all(v.code == rule.code for v in violations)
    return [
        (pathlib.Path(v.path).name, v.line, v.col) for v in violations
    ], violations


class TestToleranceRule:
    def test_exact_findings(self):
        found, violations = locations(ToleranceRule())
        assert found == [
            ("tol_bad.py", 6, 0),  # _EPS_LOCAL defined outside tolerances
            ("tol_bad.py", 10, 11),  # a == b on Seconds
            ("tol_bad.py", 14, 11),  # a != b on Seconds
        ]
        messages = [v.message for v in violations]
        assert "outside repro.core.tolerances" in messages[0]
        assert "exact '=='" in messages[1]
        assert "exact '!='" in messages[2]

    def test_sanctioned_comparisons_are_silent(self):
        # int == int (18), close() (22), ordering < (26), and the
        # non-tolerance constant WINDOW (29) must not fire.
        found, _ = locations(ToleranceRule())
        flagged = {line for name, line, _ in found if name == "tol_bad.py"}
        assert flagged.isdisjoint({18, 22, 26, 29})


class TestProcessSafetyRule:
    def test_exact_findings(self):
        found, violations = locations(ProcessSafetyRule())
        assert found == [
            ("proc_bad.py", 9, 4),  # _RESULTS write, reached via worker
            ("proc_bad.py", 22, 26),  # lambda submitted
            ("proc_bad.py", 27, 29),  # nested def submitted
        ]
        messages = [v.message for v in violations]
        assert "'_RESULTS' mutated in record()" in messages[0]
        assert "lambdas do not pickle" in messages[1]
        assert "nested function 'local'" in messages[2]

    def test_write_is_reported_through_the_call_graph(self):
        # The flagged write is in record(), which the submitted worker()
        # merely calls -- the finding requires the interprocedural walk.
        _, violations = locations(ProcessSafetyRule())
        assert violations[0].line == 9

    def test_pure_worker_is_silent(self):
        # pure_worker (16-17) and its submit site (29) must not fire.
        found, _ = locations(ProcessSafetyRule())
        flagged = {line for name, line, _ in found if name == "proc_bad.py"}
        assert flagged.isdisjoint({16, 17, 29})


class TestSimTimeRule:
    def test_exact_findings(self):
        found, violations = locations(SimTimeRule())
        assert found == [
            ("simtime_bad.py", 15, 8),  # chunk_size() returns Bytes
            ("simtime_bad.py", 16, 8),  # negative literal delay
            ("simtime_bad.py", 17, 8),  # unclamped start - now
            ("simtime_bad.py", 18, 8),  # schedule_at(now - 1.0)
        ]
        messages = [v.message for v in violations]
        assert "B quantity" in messages[0]
        assert "negative delay -0.25" in messages[1]
        assert "clamp with max(0.0, ...)" in messages[2]
        assert "schedules in the past" in messages[3]

    def test_dimension_is_inferred_through_the_callee(self):
        # chunk_size() has no return annotation: the B dimension comes
        # from the function summary, not a declared type.
        _, violations = locations(SimTimeRule())
        assert "chunk_size" not in violations[0].message  # flagged at site
        assert violations[0].line == 15

    def test_clamped_and_forward_schedules_are_silent(self):
        # max(0.0, ...) clamp (19-20), literal delay (21), now + x (22).
        found, _ = locations(SimTimeRule())
        flagged = {line for _, line, _ in found}
        assert flagged.isdisjoint({19, 20, 21, 22})


class TestNumpyDisciplineRule:
    def test_exact_findings(self):
        found, violations = locations(NumpyDisciplineRule())
        # The fixture's only numpy import is function-local.
        assert found == [
            ("npy_bad.py", 11, 11),  # zeros without dtype
            ("npy_bad.py", 15, 10),  # arange without dtype
            ("npy_bad.py", 17, 10),  # np.nan pad
            ("npy_bad.py", 19, 4),  # int accumulator += float
            ("npy_bad.py", 21, 10),  # 1-D mask on 2-D array
            ("npy_bad.py", 22, 30),  # np.float32
        ]
        messages = [v.message for v in violations]
        assert "np.zeros() without an explicit dtype" in messages[0]
        assert "np.arange() without an explicit dtype" in messages[1]
        assert "np.nan" in messages[2]
        assert "'counts'" in messages[3]
        assert "(1-D) indexes 'grid' (2-D)" in messages[4]
        assert "np.float32" in messages[5]

    def test_pinned_dtypes_and_matched_masks_are_silent(self):
        # clean(): pinned arange (27), float accumulator (31), inf pad
        # (32), rank-matched mask (33).
        found, _ = locations(NumpyDisciplineRule())
        flagged = {line for name, line, _ in found if name == "npy_bad.py"}
        assert flagged.isdisjoint({27, 31, 32, 33})


class TestShowSuppressedCoversNewRules:
    def test_inline_disable_silences_and_audits(self, tmp_path):
        path = tmp_path / "probe.py"
        path.write_text(
            "import numpy as np\n"
            "bad = np.zeros(4)  # repro-lint: disable=RL012\n"
        )
        violations, _ = lint_paths(
            [str(path)], rules=[NumpyDisciplineRule()]
        )
        assert violations == []
