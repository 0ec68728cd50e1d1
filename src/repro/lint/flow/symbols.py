"""Per-module symbol tables for the flow analyses.

One :class:`ModuleSymbols` is built per file: the module's imports, its
top-level assignments (constants and type aliases), and a
:class:`FunctionInfo`/:class:`ClassInfo` entry per definition. These are
*syntactic* tables -- annotation expressions are kept as raw AST and only
resolved on demand by :class:`repro.lint.flow.project.Project`, which
can follow imports across modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.lint.flow.units import Dim


@dataclass(frozen=True)
class TypeRef:
    """A resolved annotation, reduced to what the dataflow cares about.

    ``kind`` is one of:

    - ``any`` -- unknown (plain ``float``, unannotated, unresolvable)
    - ``num`` -- scalar with dimension ``dim``
    - ``seq`` -- homogeneous sequence of ``elem``
    - ``tup`` -- fixed-shape tuple of ``elems``
    - ``map`` -- mapping onto values of type ``elem``
    - ``fn``  -- callable returning ``elem``
    - ``cls`` -- instance of the project class ``qualname``

    ``integral`` marks int-backed scalars (``int``, ``bool``,
    ``ByteCount``): exact-equality comparisons on them are legitimate,
    so RL009 only fires on the float-backed remainder.
    """

    kind: str
    dim: Optional[Dim] = None
    elem: Optional["TypeRef"] = None
    elems: tuple["TypeRef", ...] = ()
    qualname: str = ""
    integral: bool = False


ANY = TypeRef("any")

#: Sync and async definitions share every field the analyses read.
AnyFunctionDef = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(frozen=True)
class Param:
    name: str
    annotation: Optional[ast.expr]


@dataclass
class FunctionInfo:
    name: str
    node: AnyFunctionDef
    params: list[Param]
    returns: Optional[ast.expr]
    is_property: bool = False
    is_staticmethod: bool = False
    is_classmethod: bool = False


@dataclass
class AttrAssign:
    """``self.<attr> = <value>`` seen in ``__init__``.

    ``tuple_index`` is set when the attribute was one target of a tuple
    unpacking (``self.a, self.b = expr``).
    """

    value: ast.expr
    tuple_index: Optional[int] = None


@dataclass
class ClassInfo:
    name: str
    qualname: str
    module: str
    node: ast.ClassDef
    bases: list[ast.expr]
    body_fields: dict[str, ast.expr] = field(default_factory=dict)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    attr_ann: dict[str, ast.expr] = field(default_factory=dict)
    attr_assigns: dict[str, AttrAssign] = field(default_factory=dict)
    field_order: list[str] = field(default_factory=list)
    is_dataclass: bool = False


@dataclass
class ModuleSymbols:
    name: str
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Top-level ``NAME = <expr>`` assignments (constants, type aliases).
    assigns: dict[str, ast.expr] = field(default_factory=dict)


def _decorator_names(node: AnyFunctionDef | ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _function_info(node: AnyFunctionDef) -> FunctionInfo:
    decorators = _decorator_names(node)
    args = node.args
    params = [
        Param(arg.arg, arg.annotation)
        for arg in [*args.posonlyargs, *args.args]
    ]
    return FunctionInfo(
        name=node.name,
        node=node,
        params=params,
        returns=node.returns,
        is_property=("property" in decorators or "cached_property" in decorators),
        is_staticmethod="staticmethod" in decorators,
        is_classmethod="classmethod" in decorators,
    )


def _self_attr(node: ast.expr) -> Optional[str]:
    """``attr`` for a ``self.attr`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_init_attrs(info: ClassInfo, init: FunctionInfo) -> None:
    for stmt in ast.walk(init.node):
        if isinstance(stmt, ast.AnnAssign):
            attr = _self_attr(stmt.target)
            if attr is not None and attr not in info.attr_ann:
                info.attr_ann[attr] = stmt.annotation
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                attr = _self_attr(target)
                if attr is not None and attr not in info.attr_assigns:
                    info.attr_assigns[attr] = AttrAssign(stmt.value)
                elif isinstance(target, ast.Tuple):
                    for index, element in enumerate(target.elts):
                        attr = _self_attr(element)
                        if attr is not None and attr not in info.attr_assigns:
                            info.attr_assigns[attr] = AttrAssign(
                                stmt.value, tuple_index=index
                            )


def _class_info(node: ast.ClassDef, module: str) -> ClassInfo:
    info = ClassInfo(
        name=node.name,
        qualname=f"{module}.{node.name}",
        module=module,
        node=node,
        bases=list(node.bases),
        is_dataclass="dataclass" in _decorator_names(node),
    )
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.body_fields[stmt.target.id] = stmt.annotation
            info.field_order.append(stmt.target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = _function_info(stmt)
    init = info.methods.get("__init__")
    if init is not None:
        _collect_init_attrs(info, init)
    return info


def _module_imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted import target (absolute only)."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return imports


def build_module_symbols(name: str, tree: ast.Module) -> ModuleSymbols:
    symbols = ModuleSymbols(name=name, imports=_module_imports(tree))
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.functions[stmt.name] = _function_info(stmt)
        elif isinstance(stmt, ast.ClassDef):
            symbols.classes[stmt.name] = _class_info(stmt, name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    symbols.assigns[target.id] = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                symbols.assigns[stmt.target.id] = stmt.value
    return symbols
