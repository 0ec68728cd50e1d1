"""Whole-program view: modules, imports, and cross-module resolution.

A :class:`Project` is built once per lint run from every parsed file.
It names each file as a dotted module (walking ``__init__.py`` packages
upward) and answers the questions flow rules ask: "what does this name
refer to?", "what is the type of this annotation?", "what type does
this attribute hold?".

Resolution is deliberately conservative: anything that cannot be pinned
down resolves to :data:`~repro.lint.flow.symbols.ANY`, and rules only
flag facts that are definitely wrong.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from repro.lint.flow.symbols import (
    ANY,
    ClassInfo,
    FunctionInfo,
    ModuleSymbols,
    TypeRef,
    build_module_symbols,
)
from repro.lint.flow.units import (
    BUILTIN_SCALARS,
    INT_ALIASES,
    UNIT_ALIASES,
    UNITS_MODULE,
    Dim,
)
from repro.lint.rules.base import FileContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.flow.callgraph import CallGraph
    from repro.lint.flow.summaries import SummaryTable

_SEQUENCE_NAMES = frozenset(
    {
        "Sequence",
        "Iterable",
        "Iterator",
        "List",
        "list",
        "FrozenSet",
        "frozenset",
        "Set",
        "set",
        "Collection",
    }
)
_MAPPING_NAMES = frozenset({"dict", "Dict", "Mapping", "MutableMapping"})
_WRAPPER_NAMES = frozenset({"Optional", "ClassVar", "Final", "Annotated"})


@dataclass
class ModuleInfo:
    name: str
    ctx: FileContext
    symbols: ModuleSymbols


class Project:
    """All modules of one lint run plus cross-module resolution."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        for info in modules:
            # First spelling wins; duplicate stems outside packages are
            # fixture-only and never cross-reference each other.
            self.modules.setdefault(info.name, info)
        self._ann_cache: dict[tuple[str, int], TypeRef] = {}
        self._attr_cache: dict[tuple[str, str], TypeRef] = {}
        self._call_graph: Optional["CallGraph"] = None
        self._summaries: Optional["SummaryTable"] = None

    @classmethod
    def build(cls, contexts: list[FileContext]) -> "Project":
        infos = []
        for ctx in contexts:
            name = _module_name(ctx)
            infos.append(
                ModuleInfo(
                    name=name,
                    ctx=ctx,
                    symbols=build_module_symbols(name, ctx.tree),
                )
            )
        return cls(infos)

    def call_graph(self) -> "CallGraph":
        """The project call graph, built once per run on first use."""
        if self._call_graph is None:
            from repro.lint.flow.callgraph import build_call_graph

            self._call_graph = build_call_graph(self)
        return self._call_graph

    def summaries(self) -> "SummaryTable":
        """Bounded-depth function summaries, built once per run."""
        if self._summaries is None:
            from repro.lint.flow.summaries import SummaryTable

            self._summaries = SummaryTable.build(self)
        return self._summaries

    # --------------------------------------------------------- resolution

    def resolve_class(self, qualname: str) -> Optional[ClassInfo]:
        module, _, name = qualname.rpartition(".")
        info = self.modules.get(module)
        if info is None:
            return None
        return info.symbols.classes.get(name)

    def resolve_function(
        self, qualname: str
    ) -> Optional[tuple[str, FunctionInfo]]:
        module, _, name = qualname.rpartition(".")
        info = self.modules.get(module)
        if info is None:
            return None
        func = info.symbols.functions.get(name)
        if func is None:
            return None
        return module, func

    def canonical(self, module: str, local: str) -> Optional[str]:
        """Dotted import target of a local name, if it is an import."""
        info = self.modules.get(module)
        if info is None:
            return None
        return info.symbols.imports.get(local)

    # -------------------------------------------------------- annotations

    def resolve_annotation(
        self, module: str, node: Optional[ast.expr]
    ) -> TypeRef:
        if node is None:
            return ANY
        key = (module, id(node))
        cached = self._ann_cache.get(key)
        if cached is None:
            cached = self._resolve_ann(module, node, frozenset())
            self._ann_cache[key] = cached
        return cached

    def _resolve_ann(
        self, module: str, node: ast.expr, seen: frozenset[tuple[str, str]]
    ) -> TypeRef:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return ANY
                return self._resolve_ann(module, parsed, seen)
            return ANY
        if isinstance(node, ast.Name):
            return self._resolve_ann_name(module, node.id, seen)
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                return ANY
            return self._resolve_ann_dotted(module, dotted, seen)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            halves = [
                self._resolve_ann(module, part, seen)
                for part in (node.left, node.right)
                if not (isinstance(part, ast.Constant) and part.value is None)
            ]
            if len(halves) == 1:
                return halves[0]
            return ANY
        if isinstance(node, ast.Subscript):
            return self._resolve_ann_subscript(module, node, seen)
        return ANY

    def _resolve_ann_name(
        self, module: str, name: str, seen: frozenset[tuple[str, str]]
    ) -> TypeRef:
        if name in BUILTIN_SCALARS:
            return TypeRef("num", dim=BUILTIN_SCALARS[name], integral=True)
        if (module, name) in seen:
            return ANY
        info = self.modules.get(module)
        if info is not None:
            if name in info.symbols.classes:
                return TypeRef(
                    "cls", qualname=info.symbols.classes[name].qualname
                )
            alias = info.symbols.assigns.get(name)
            if alias is not None:
                return self._resolve_ann(
                    module, alias, seen | {(module, name)}
                )
            target = info.symbols.imports.get(name)
            if target is not None:
                return self._resolve_ann_dotted(module, target, seen)
        return ANY

    def _resolve_ann_dotted(
        self, module: str, dotted: str, seen: frozenset[tuple[str, str]]
    ) -> TypeRef:
        head, _, rest = dotted.partition(".")
        canonical = self.canonical(module, head)
        if canonical is not None:
            dotted = f"{canonical}.{rest}" if rest else canonical
        owner, _, leaf = dotted.rpartition(".")
        if owner == UNITS_MODULE and leaf in UNIT_ALIASES:
            return TypeRef(
                "num",
                dim=UNIT_ALIASES[leaf],
                integral=leaf in INT_ALIASES,
            )
        target = self.modules.get(owner)
        if target is not None and leaf:
            if leaf in target.symbols.classes:
                return TypeRef(
                    "cls", qualname=target.symbols.classes[leaf].qualname
                )
            if (owner, leaf) not in seen:
                alias = target.symbols.assigns.get(leaf)
                if alias is not None:
                    return self._resolve_ann(
                        owner, alias, seen | {(owner, leaf)}
                    )
        return ANY

    def _resolve_ann_subscript(
        self, module: str, node: ast.Subscript, seen: frozenset[tuple[str, str]]
    ) -> TypeRef:
        base = node.value
        base_name = (
            base.id
            if isinstance(base, ast.Name)
            else base.attr
            if isinstance(base, ast.Attribute)
            else None
        )
        if base_name is None:
            return ANY
        args: list[ast.expr]
        if isinstance(node.slice, ast.Tuple):
            args = list(node.slice.elts)
        else:
            args = [node.slice]
        if base_name in _WRAPPER_NAMES:
            if base_name == "Annotated" and args:
                return self._resolve_ann(module, args[0], seen)
            kept = [
                part
                for part in args
                if not (isinstance(part, ast.Constant) and part.value is None)
            ]
            if len(kept) == 1:
                return self._resolve_ann(module, kept[0], seen)
            return ANY
        if base_name == "Union":
            kept = [
                part
                for part in args
                if not (isinstance(part, ast.Constant) and part.value is None)
            ]
            if len(kept) == 1:
                return self._resolve_ann(module, kept[0], seen)
            return ANY
        if base_name in ("tuple", "Tuple"):
            if len(args) == 2 and (
                isinstance(args[1], ast.Constant) and args[1].value is Ellipsis
            ):
                return TypeRef(
                    "seq", elem=self._resolve_ann(module, args[0], seen)
                )
            return TypeRef(
                "tup",
                elems=tuple(
                    self._resolve_ann(module, part, seen) for part in args
                ),
            )
        if base_name in _SEQUENCE_NAMES:
            elem = self._resolve_ann(module, args[0], seen) if args else ANY
            return TypeRef("seq", elem=elem)
        if base_name in _MAPPING_NAMES:
            value = (
                self._resolve_ann(module, args[1], seen)
                if len(args) > 1
                else ANY
            )
            return TypeRef("map", elem=value)
        if base_name == "Callable":
            ret = self._resolve_ann(module, args[-1], seen) if args else ANY
            return TypeRef("fn", elem=ret)
        return ANY

    # --------------------------------------------------- class attributes

    def class_mro(self, info: ClassInfo) -> list[ClassInfo]:
        """The class plus every project-resolvable base, depth-first."""
        out: list[ClassInfo] = []
        stack = [info]
        seen: set[str] = set()
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            out.append(current)
            for base in current.bases:
                ref = self._resolve_ann(current.module, base, frozenset())
                if ref.kind == "cls":
                    resolved = self.resolve_class(ref.qualname)
                    if resolved is not None:
                        stack.append(resolved)
        return out

    def find_method(
        self, info: ClassInfo, name: str
    ) -> Optional[tuple[ClassInfo, FunctionInfo]]:
        for owner in self.class_mro(info):
            method = owner.methods.get(name)
            if method is not None:
                return owner, method
        return None

    def attr_type(self, info: ClassInfo, attr: str) -> TypeRef:
        key = (info.qualname, attr)
        cached = self._attr_cache.get(key)
        if cached is not None:
            return cached
        self._attr_cache[key] = ANY  # cycle guard
        result = self._attr_type(info, attr)
        self._attr_cache[key] = result
        return result

    def _attr_type(self, info: ClassInfo, attr: str) -> TypeRef:
        for owner in self.class_mro(info):
            found = self._own_attr_type(owner, attr)
            if found is not None:
                return found
        return ANY

    def _own_attr_type(self, owner: ClassInfo, attr: str) -> Optional[TypeRef]:
        ann = owner.body_fields.get(attr)
        if ann is None:
            ann = owner.attr_ann.get(attr)
        if ann is not None:
            return self.resolve_annotation(owner.module, ann)
        method = owner.methods.get(attr)
        if method is not None:
            if method.is_property:
                return self.resolve_annotation(owner.module, method.returns)
            return TypeRef("fn", elem=ANY)
        assign = owner.attr_assigns.get(attr)
        if assign is None:
            return None
        value = self._init_expr_type(owner, assign.value)
        if assign.tuple_index is not None:
            if (
                value.kind == "tup"
                and assign.tuple_index < len(value.elems)
            ):
                return value.elems[assign.tuple_index]
            if value.kind == "seq" and value.elem is not None:
                return value.elem
            return ANY
        return value

    def _init_expr_type(self, owner: ClassInfo, expr: ast.expr) -> TypeRef:
        """Type of an expression assigned to ``self.X`` in ``__init__``."""
        init = owner.methods.get("__init__")
        if isinstance(expr, ast.Name) and init is not None:
            for param in init.params:
                if param.name == expr.id:
                    return self.resolve_annotation(
                        owner.module, param.annotation
                    )
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                if func.value.id == "self":
                    found = self.find_method(owner, func.attr)
                    if found is not None:
                        method_owner, method = found
                        return self.resolve_annotation(
                            method_owner.module, method.returns
                        )
            ref = self._resolve_ann(owner.module, func, frozenset())
            if ref.kind == "cls":
                return ref
            if isinstance(func, ast.Name):
                info = self.modules.get(owner.module)
                if info is not None and func.id in info.symbols.functions:
                    return self.resolve_annotation(
                        owner.module,
                        info.symbols.functions[func.id].returns,
                    )
                target = self.canonical(owner.module, func.id)
                if target is not None:
                    resolved = self.resolve_function(target)
                    if resolved is not None:
                        mod, fn = resolved
                        return self.resolve_annotation(mod, fn.returns)
        return ANY

    def sqrt_dim(self, dim: Dim) -> Dim:
        return dim ** Fraction(1, 2)


def _dotted(node: ast.expr) -> Optional[str]:
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _module_name(ctx: FileContext) -> str:
    """Dotted module name of ``ctx``'s file, walking ``__init__.py``
    packages upward."""
    path = ctx.path
    if path.stem == "__init__":
        parts: list[str] = []
        directory = path.parent
    else:
        parts = [path.stem]
        directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else path.stem
