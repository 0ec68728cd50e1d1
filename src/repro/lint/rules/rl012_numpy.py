"""RL012: numpy dtype and shape discipline for the fluid batch engine.

The vectorized fluid engine (:mod:`repro.sim.fluid_batch`) must agree
with the scalar solver to ~1e-9 -- that is what the packet-vs-fluid
differential harness asserts. Numpy defaults quietly break that
contract:

- **float32 narrows.** A ``float32``/``float16`` dtype anywhere in the
  pipeline caps agreement at ~1e-7 and the differential test's margin
  evaporates. All batch state is float64.
- **Dtype-unstable constructors.** ``np.zeros``/``ones``/``empty``/
  ``full``/``arange`` *without an explicit dtype* infer from arguments:
  ``np.arange(n)`` is int64 until someone passes a float bound, at
  which point every downstream accumulation changes type. Constructors
  must pin their dtype. (``np.array``/``asarray`` are exempt -- they
  exist to adopt their input's type.)
- **NaN padding.** The batch engine pads inactive lanes with ``np.inf``
  so ``min``-reductions ignore them; a ``np.full(..., np.nan)`` pad
  poisons every reduction it touches (``min(nan, x) = nan``).
- **Int accumulators fed floats.** ``counts += dt * rate`` on an int64
  array truncates silently per step.
- **Mask-shape mismatches.** Indexing a 2-D array with a 1-D boolean
  mask (or vice versa) selects rows instead of elements; with matching
  lane counts it runs without error and returns the wrong slice.

The rule tracks locals assigned from numpy constructors (dtype kind and
ndim, from literal shape arguments) through each function; findings are
definite-only, so unknown dtypes and shapes stay silent.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Optional

from repro.lint.flow.project import Project
from repro.lint.rules.base import FileContext, FlowRule, import_aliases
from repro.lint.violations import Violation

_NARROW_DTYPES = frozenset({"float32", "float16", "half", "single"})
_DTYPE_REQUIRED = frozenset({"zeros", "ones", "empty", "full", "arange"})
_INT_DTYPES = frozenset({
    "int8", "int16", "int32", "int64", "intp", "uint8", "uint16",
    "uint32", "uint64", "int_",
})
_FLOAT_DTYPES = frozenset({"float64", "double", "float_", "longdouble"})


class _ArrayFact:
    """What we definitely know about one local ndarray."""

    __slots__ = ("dtype_kind", "ndim")

    def __init__(
        self, dtype_kind: Optional[str], ndim: Optional[int]
    ) -> None:
        self.dtype_kind = dtype_kind  # "int" | "float" | "bool" | None
        self.ndim = ndim


class NumpyDisciplineRule(FlowRule):
    code: ClassVar[str] = "RL012"
    title: ClassVar[str] = "numpy dtype/shape discipline"
    rationale: ClassVar[str] = (
        "the batch fluid engine must match the scalar solver to 1e-9: "
        "float32 narrows, dtype-less constructors are type-unstable, "
        "NaN pads poison reductions, int accumulators truncate floats, "
        "and mismatched mask shapes select the wrong axis"
    )

    def check_project(self, project: Project) -> list[Violation]:
        out: list[Violation] = []
        for name in sorted(project.modules):
            info = project.modules[name]
            aliases = import_aliases(info.ctx.tree)
            np_names = {
                local for local, target in aliases.items()
                if target == "numpy"
            }
            if not np_names:
                continue
            checker = _ModuleChecker(self, info.ctx, np_names)
            out.extend(checker.run())
        return out


class _ModuleChecker:
    def __init__(
        self, rule: NumpyDisciplineRule, ctx: FileContext, np_names: set[str]
    ) -> None:
        self.rule = rule
        self.ctx = ctx
        self.np = np_names
        self.out: list[Violation] = []

    def run(self) -> list[Violation]:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(node)
        self._check_global_patterns()
        return self.out

    # ------------------------------------------------- module-wide checks

    def _check_global_patterns(self) -> None:
        """Checks that need no local state: narrowing dtypes, NaN pads."""
        for node in ast.walk(self.ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in self.np
                and node.attr in _NARROW_DTYPES
            ):
                self.out.append(self.ctx.violation(
                    node, self.rule.code,
                    f"np.{node.attr} narrows the batch state below the "
                    f"1e-9 solver-agreement budget; use float64",
                ))
            if isinstance(node, ast.Call):
                self._check_constructor_call(node)

    def _check_constructor_call(self, node: ast.Call) -> None:
        ctor = self._np_ctor(node)
        if ctor is None:
            return
        if ctor in _DTYPE_REQUIRED and not any(
            kw.arg == "dtype" for kw in node.keywords
        ):
            self.out.append(self.ctx.violation(
                node, self.rule.code,
                f"np.{ctor}() without an explicit dtype infers from its "
                f"arguments and is type-unstable; pin dtype=",
            ))
        if ctor == "full" and len(node.args) >= 2:
            fill = node.args[1]
            if (
                isinstance(fill, ast.Attribute)
                and isinstance(fill.value, ast.Name)
                and fill.value.id in self.np
                and fill.attr == "nan"
            ):
                self.out.append(self.ctx.violation(
                    node, self.rule.code,
                    "np.full(..., np.nan) pad poisons min/argmin "
                    "reductions; inactive lanes are padded with np.inf",
                ))

    def _np_ctor(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.np
        ):
            return func.attr
        return None

    # --------------------------------------------------- per-function flow

    def _check_function(self, func: ast.FunctionDef) -> None:
        facts: dict[str, _ArrayFact] = {}
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            else:
                continue
            fact = self._fact_of(value, facts)
            if fact is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    facts[target.id] = fact
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.AugAssign):
                self._check_aug(stmt, facts)
            elif isinstance(stmt, ast.Subscript):
                self._check_mask(stmt, facts)

    def _fact_of(
        self, value: ast.expr, facts: dict[str, _ArrayFact]
    ) -> Optional[_ArrayFact]:
        if isinstance(value, ast.Call):
            ctor = self._np_ctor(value)
            if ctor in ("zeros", "ones", "empty", "full", "arange"):
                return _ArrayFact(
                    self._dtype_kind(value), self._ctor_ndim(ctor, value)
                )
            return None
        if isinstance(value, ast.Compare) and len(value.ops) == 1:
            # arr < x: a boolean mask with arr's shape.
            base = value.left
            if isinstance(base, ast.Name) and base.id in facts:
                return _ArrayFact("bool", facts[base.id].ndim)
        return None

    def _dtype_kind(self, call: ast.Call) -> Optional[str]:
        for kw in call.keywords:
            if kw.arg != "dtype":
                continue
            leaf: Optional[str] = None
            if (
                isinstance(kw.value, ast.Attribute)
                and isinstance(kw.value.value, ast.Name)
                and kw.value.value.id in self.np
            ):
                leaf = kw.value.attr
            elif isinstance(kw.value, ast.Name):
                leaf = kw.value.id
            if leaf in _INT_DTYPES or leaf == "int":
                return "int"
            if leaf in _FLOAT_DTYPES or leaf == "float":
                return "float"
            if leaf == "bool_" or leaf == "bool":
                return "bool"
        return None

    @staticmethod
    def _ctor_ndim(ctor: str, call: ast.Call) -> Optional[int]:
        if ctor == "arange":
            return 1
        if not call.args:
            return None
        shape = call.args[0]
        if isinstance(shape, (ast.Tuple, ast.List)):
            return len(shape.elts)
        if isinstance(shape, (ast.Constant, ast.Name)):
            return 1
        return None

    def _check_aug(
        self, stmt: ast.AugAssign, facts: dict[str, _ArrayFact]
    ) -> None:
        if not isinstance(stmt.op, (ast.Add, ast.Sub, ast.Mult)):
            return
        target = stmt.target
        if not (isinstance(target, ast.Name) and target.id in facts):
            return
        if facts[target.id].dtype_kind != "int":
            return
        if self._definitely_float(stmt.value, facts):
            self.out.append(self.ctx.violation(
                stmt, self.rule.code,
                f"int-dtype accumulator '{target.id}' updated in place "
                f"with a float value; the fraction truncates silently "
                f"every step",
            ))

    def _definitely_float(
        self, value: ast.expr, facts: dict[str, _ArrayFact]
    ) -> bool:
        if isinstance(value, ast.Constant):
            return isinstance(value.value, float)
        if isinstance(value, ast.Name):
            fact = facts.get(value.id)
            return fact is not None and fact.dtype_kind == "float"
        if isinstance(value, ast.BinOp):
            return self._definitely_float(
                value.left, facts
            ) or self._definitely_float(value.right, facts)
        return False

    def _check_mask(
        self, node: ast.Subscript, facts: dict[str, _ArrayFact]
    ) -> None:
        base = node.value
        index = node.slice
        if not (
            isinstance(base, ast.Name)
            and base.id in facts
            and isinstance(index, ast.Name)
            and index.id in facts
        ):
            return
        arr, mask = facts[base.id], facts[index.id]
        if mask.dtype_kind != "bool":
            return
        if arr.ndim is None or mask.ndim is None:
            return
        if mask.ndim != arr.ndim:
            self.out.append(self.ctx.violation(
                node, self.rule.code,
                f"boolean mask '{index.id}' ({mask.ndim}-D) indexes "
                f"'{base.id}' ({arr.ndim}-D); a rank-mismatched mask "
                f"selects along the wrong axis",
            ))
