"""RL009: float-comparison discipline.

The QA math runs on floats whose exact bit patterns depend on operation
order -- ``first_crossing`` scans, ramp integrals, fluid residuals. Raw
``==``/``!=`` on such quantities encodes an accident of evaluation order
as a behavioural switch: the comparison flips when a refactor reorders
arithmetic that is mathematically identical. Every tolerance the repo
relies on therefore lives in :mod:`repro.core.tolerances`, and
unit-bearing floats must be compared through its helpers (``close``,
``is_zero``, ``at_least``) or an explicit tolerance from that module.

Two checks:

- **Exact equality on unit-bearing floats.** The dataflow engine (the
  same one RL006 uses, summaries included, so facts survive helper
  extraction) types both operands of every ``==``/``!=``; when either
  side definitely carries a float-backed unit (``Seconds``, ``Bytes``,
  ``B/s``...), the comparison is flagged. Int-backed quantities
  (``int``, ``bool``, ``ByteCount``) compare exactly by construction
  and stay silent, as do unannotated floats (unknown, not definite).

- **Decentralized tolerance constants.** A module-level ``EPS``/
  ``*_TOL``/``*_SLACK``-style constant bound to a small nonzero float
  literal outside ``repro.core.tolerances`` is a fork of the central
  table waiting to drift; it is flagged wherever it is defined.
"""

from __future__ import annotations

import ast
import re
from typing import Any, ClassVar, Optional

from repro.lint.flow.dataflow import FunctionAnalysis
from repro.lint.flow.project import ModuleInfo, Project
from repro.lint.flow.summaries import SummaryTable
from repro.lint.flow.symbols import ClassInfo, FunctionInfo, TypeRef
from repro.lint.flow.units import UNITS_MODULE
from repro.lint.rules.base import FlowRule
from repro.lint.violations import Violation

#: The sanctioned home of tolerance constants and comparison helpers.
TOLERANCES_MODULE = "repro.core.tolerances"

#: Module-level names that look like a tolerance definition.
_TOLERANCE_NAME = re.compile(r"(?i)(eps|tol|slack)")

#: Literals this small (and nonzero) read as comparison tolerances, not
#: as physical quantities or configuration defaults.
_TOLERANCE_CEILING = 0.01


class _ExactCompare:
    """One flagged ``==``/``!=`` with the offending operand's rendering."""

    __slots__ = ("node", "op", "rendered")

    def __init__(self, node: ast.Compare, op: str, rendered: str) -> None:
        self.node = node
        self.op = op
        self.rendered = rendered


class _CompareAnalysis(FunctionAnalysis):
    """RL006's engine, additionally recording exact float equality."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.exact: list[_ExactCompare] = []

    def _infer_Compare(
        self, node: ast.Compare, env: dict[str, TypeRef]
    ) -> TypeRef:
        prev = self.infer(node.left, env)
        for op, comparator in zip(node.ops, node.comparators):
            current = self.infer(comparator, env)
            if isinstance(op, (ast.Eq, ast.NotEq)):
                offender = _float_operand(prev, current)
                if offender is not None:
                    self.exact.append(_ExactCompare(
                        node,
                        "==" if isinstance(op, ast.Eq) else "!=",
                        offender,
                    ))
            prev = current
        return super()._infer_Compare(node, env)


def _float_operand(a: TypeRef, b: TypeRef) -> Optional[str]:
    """Rendering of the unit-bearing float side of an exact comparison.

    Fires only on a *definite* float-backed unit: a known, non-empty
    dimension that is not int-backed, compared against a number or a
    literal. Unknown values and int-backed scalars never flag.
    """
    for side, other in ((a, b), (b, a)):
        if (
            side.kind == "num"
            and side.dim is not None
            and not side.dim.dimensionless
            and not side.integral
            and other.kind in ("num", "lit")
        ):
            return side.dim.render()
    return None


class ToleranceRule(FlowRule):
    code: ClassVar[str] = "RL009"
    title: ClassVar[str] = "float comparison discipline"
    rationale: ClassVar[str] = (
        "unit-bearing floats must be compared through repro.core."
        "tolerances (close/is_zero/at_least); raw ==/!= flips with "
        "operation order, and per-module tolerance constants drift "
        "apart from the central table"
    )

    def check_project(self, project: Project) -> list[Violation]:
        out: list[Violation] = []
        summaries = project.summaries()
        for name in sorted(project.modules):
            info = project.modules[name]
            if name != TOLERANCES_MODULE and not name.endswith(".tolerances"):
                out.extend(self._decentralized_constants(info))
            if _uses_units(project, name):
                out.extend(self._exact_compares(project, name, summaries))
        return out

    # ------------------------------------------------- tolerance constants

    def _decentralized_constants(self, info: ModuleInfo) -> list[Violation]:
        out: list[Violation] = []
        for stmt in info.ctx.tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if not isinstance(target, ast.Name):
                continue
            if not _TOLERANCE_NAME.search(target.id):
                continue
            literal = _float_literal(value)
            if literal is None or not 0 < abs(literal) < _TOLERANCE_CEILING:
                continue
            out.append(info.ctx.violation(
                stmt,
                self.code,
                f"tolerance constant '{target.id}' defined outside "
                f"{TOLERANCES_MODULE}; centralize it there (per-module "
                f"tolerances drift independently)",
            ))
        return out

    # --------------------------------------------------- exact comparisons

    def _exact_compares(
        self, project: Project, module: str, summaries: SummaryTable
    ) -> list[Violation]:
        info = project.modules[module]
        out: list[Violation] = []
        jobs: list[tuple[FunctionInfo, Optional[ClassInfo]]] = [
            (fn, None) for fn in info.symbols.functions.values()
        ]
        for cls in info.symbols.classes.values():
            jobs.extend((method, cls) for method in cls.methods.values())
        for func, cls in jobs:
            analysis = _CompareAnalysis(
                project, module, func, cls, summaries=summaries
            )
            try:
                analysis.run()
            except RecursionError:  # pragma: no cover - pathological
                continue
            for found in analysis.exact:
                out.append(info.ctx.violation(
                    found.node,
                    self.code,
                    f"in {func.name}(): exact '{found.op}' on a "
                    f"{found.rendered} float; use "
                    f"{TOLERANCES_MODULE}.close()/is_zero() "
                    f"(bit-exact equality flips with operation order)",
                ))
        return out


def _uses_units(project: Project, module: str) -> bool:
    info = project.modules[module]
    if info.name == UNITS_MODULE:
        return False
    for target in info.symbols.imports.values():
        if target == UNITS_MODULE or target.startswith(UNITS_MODULE + "."):
            return True
    return False


def _float_literal(node: Optional[ast.expr]) -> Optional[float]:
    """Value of a (possibly negated) int/float literal, else None."""
    negate = False
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
        negate = True
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    ) and not isinstance(node.value, bool):
        return -float(node.value) if negate else float(node.value)
    return None
