"""Unit tests for the repro.lint.flow dataflow layer.

Covers the pieces the flow rules stand on: the dimension algebra, module
naming and the project-internal import graph, annotation resolution,
class-attribute typing (the call-summary layer), the expression engine,
and the round-trip between the lint-side ``UNIT_ALIASES`` table and the
runtime ``repro.core.units`` module it mirrors.
"""

import ast
import typing
from fractions import Fraction

import repro.core.units as runtime_units
from repro.lint.flow import Project, UNIT_ALIASES, analyze_module
from repro.lint.flow.units import (
    BYTES,
    BYTES_PER_SEC,
    BYTES_PER_SEC2,
    DIMENSIONLESS,
    SECONDS,
)
from repro.lint.rules.base import FileContext


def build_project(tmp_path, files):
    """Write ``{relative path: source}`` to disk and build a Project."""
    contexts = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        contexts.append(
            FileContext(
                path=path.resolve(),
                display_path=str(path),
                source=source,
                tree=ast.parse(source),
            )
        )
    return Project.build(contexts)


class TestDimAlgebra:
    def test_multiplication_and_division(self):
        assert BYTES_PER_SEC2 * SECONDS == BYTES_PER_SEC
        assert BYTES / SECONDS == BYTES_PER_SEC
        assert BYTES_PER_SEC / BYTES_PER_SEC == DIMENSIONLESS

    def test_sqrt_halves_exponents(self):
        # The drop rule's right-hand side: sqrt(2*S*total_buf) is a rate.
        assert (BYTES_PER_SEC2 * BYTES) ** Fraction(1, 2) == BYTES_PER_SEC

    def test_render(self):
        assert BYTES.render() == "B"
        assert SECONDS.render() == "s"
        assert BYTES_PER_SEC.render() == "B/s"
        assert BYTES_PER_SEC2.render() == "B/s^2"
        assert DIMENSIONLESS.render() == "1"
        assert (BYTES ** Fraction(1, 2)).render() == "B^1/2"

    def test_dimensionless_flag(self):
        assert DIMENSIONLESS.dimensionless
        assert not BYTES.dimensionless


class TestUnitAliasRoundTrip:
    def test_lint_table_matches_runtime_markers(self):
        for name, dim in UNIT_ALIASES.items():
            alias = getattr(runtime_units, name)
            _, marker = typing.get_args(alias)
            assert isinstance(marker, runtime_units.Unit), name
            assert Fraction(marker.data) == dim.data, name
            assert Fraction(marker.time) == dim.time, name

    def test_every_runtime_alias_is_covered(self):
        runtime_names = set()
        for name in dir(runtime_units):
            args = typing.get_args(getattr(runtime_units, name))
            if args and isinstance(args[-1], runtime_units.Unit):
                runtime_names.add(name)
        assert runtime_names == set(UNIT_ALIASES)


class TestProjectStructure:
    def test_package_module_naming(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": "X = 1\n",
                "standalone.py": "Y = 2\n",
            },
        )
        assert "pkg.sub.mod" in project.modules
        assert "standalone" in project.modules

    def test_resolve_function_and_class(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "mod.py": (
                    "def takeover(rate, slope):\n"
                    "    return rate / slope\n"
                    "\n"
                    "\n"
                    "class Adapter:\n"
                    "    pass\n"
                ),
            },
        )
        resolved = project.resolve_function("mod.takeover")
        assert resolved is not None
        module, func = resolved
        assert module == "mod"
        assert [p.name for p in func.params] == ["rate", "slope"]
        assert project.resolve_class("mod.Adapter") is not None
        assert project.resolve_class("mod.Missing") is None


ANNOTATED_MODULE = """\
from typing import Optional

from repro.core.units import Bytes, BytesPerSec, BytesPerSec2, Seconds


def shapes(plain: Bytes,
           opt: Optional[Bytes],
           table: dict[str, BytesPerSec],
           trail: tuple[Seconds, ...]) -> None:
    pass


class Adapter:
    def __init__(self, rate: BytesPerSec) -> None:
        self.rate = rate
        self.level: Bytes = 0.0
        self.history: list[Bytes] = []

    @property
    def slope(self) -> BytesPerSec2:
        return self.rate / 10.0
"""


class TestAnnotationResolution:
    def test_unit_annotations_resolve_to_dims(self, tmp_path):
        project = build_project(tmp_path, {"mod.py": ANNOTATED_MODULE})
        _, func = project.resolve_function("mod.shapes")
        refs = {
            p.name: project.resolve_annotation("mod", p.annotation)
            for p in func.params
        }
        assert refs["plain"].kind == "num"
        assert refs["plain"].dim == BYTES
        assert refs["opt"].kind == "num"  # Optional unwraps
        assert refs["opt"].dim == BYTES
        assert refs["table"].kind == "map"
        assert refs["table"].elem.dim == BYTES_PER_SEC
        assert refs["trail"].kind == "seq"  # homogeneous tuple
        assert refs["trail"].elem.dim == SECONDS

    def test_attr_types_from_init_and_properties(self, tmp_path):
        project = build_project(tmp_path, {"mod.py": ANNOTATED_MODULE})
        info = project.resolve_class("mod.Adapter")
        rate = project.attr_type(info, "rate")  # from the param binding
        assert rate.kind == "num" and rate.dim == BYTES_PER_SEC
        level = project.attr_type(info, "level")  # from the AnnAssign
        assert level.kind == "num" and level.dim == BYTES
        history = project.attr_type(info, "history")
        assert history.kind == "seq" and history.elem.dim == BYTES
        slope = project.attr_type(info, "slope")  # property return
        assert slope.kind == "num" and slope.dim == BYTES_PER_SEC2


class TestAnalyzeModule:
    CLEAN = """\
import math

from repro.core.units import Bytes, BytesPerSec, BytesPerSec2


def drop_rule(na: int, consumption: BytesPerSec, rate: BytesPerSec,
              slope: BytesPerSec2, total_buf: Bytes) -> bool:
    return na * consumption - rate >= math.sqrt(2 * slope * total_buf)
"""

    BAD = """\
from repro.core.units import BytesPerSec, Seconds


def broken(rate: BytesPerSec, elapsed: Seconds) -> float:
    return rate + elapsed
"""

    def test_correct_drop_rule_is_silent(self, tmp_path):
        project = build_project(tmp_path, {"clean.py": self.CLEAN})
        assert analyze_module(project, "clean") == []

    def test_mismatch_is_reported_with_dims(self, tmp_path):
        project = build_project(tmp_path, {"bad.py": self.BAD})
        found = analyze_module(project, "bad")
        assert len(found) == 1
        func, mismatch = found[0]
        assert func.name == "broken"
        assert "B/s + s" in mismatch.message
        assert mismatch.node.lineno == 5
