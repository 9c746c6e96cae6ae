"""Project index: every file parsed once into a queryable symbol table.

The index is the substrate every flow rule shares.  For each ``.py`` file
it records the module name, the import table (local alias → qualified
name), top-level functions, classes with their methods and inferred
attribute types, and module-level globals.  :meth:`ProjectIndex.resolve`
turns a dotted name as written in one module into a project-wide
qualified name, which is what the call graph builds on.

Module naming mirrors the import system without ever importing anything:
``src/repro/sim/rng.py`` → ``repro.sim.rng`` (a leading ``src``
component is dropped), so fixtures in a temp directory shaped like
``<tmp>/repro/sim/engine.py`` index identically to the real tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.lint.engine import LintEngine, _parse_suppressions

#: module-level names bound to these constructors count as mutable globals
_MUTABLE_CALLS = ("list", "dict", "set", "defaultdict", "deque", "Counter")


def module_name_for(path: Path, roots: Sequence[Path]) -> str:
    """Dotted module name for ``path``, relative to the closest root.

    ``roots`` are the directories handed to the linter (e.g. ``src``,
    ``tests``); the name is the path relative to the matching root with
    a leading ``src`` component dropped and ``__init__`` trimmed.
    """
    posix = path.as_posix()
    rel: Path | None = None
    for root in sorted(roots, key=lambda r: -len(r.as_posix())):
        try:
            rel = path.relative_to(root)
            break
        except ValueError:
            continue
    if rel is None:
        rel = path
    parts = list(rel.with_suffix("").parts)
    while parts and parts[0] in ("src", "."):
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # e.g. "repro.sim.engine.Simulator.run"
    module: str
    name: str
    cls: str | None  # enclosing class name, or None for module functions
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str

    @property
    def param_names(self) -> list[str]:
        a = self.node.args
        names = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]]
        if self.cls is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names


@dataclass
class ClassInfo:
    """One class definition with method table and inferred attribute types."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)  # resolved qualified names
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` assigned from a resolvable constructor → class qualname
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attributes assigned anywhere outside ``__init__`` (mutable at runtime)
    mutated_attrs: set[str] = field(default_factory=set)
    #: attributes assigned anywhere, ``__init__`` included
    assigned_attrs: set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """Everything the flow rules need to know about one file."""

    path: str
    posix: str
    module: str
    source: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level assigned names (constants, registries, caches)
    globals: dict[str, ast.AST] = field(default_factory=dict)
    #: subset of ``globals`` bound to mutable containers
    mutable_globals: set[str] = field(default_factory=set)
    #: suppression maps, same semantics as the per-file engine
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    file_suppressions: set[str] = field(default_factory=set)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        for scope in (self.file_suppressions, self.line_suppressions.get(line, set())):
            if rule_id in scope or "all" in scope:
                return True
        return False

    def in_packages(self, packages: Sequence[str]) -> bool:
        """Path-component test, same semantics as the per-file rules."""
        slashed = f"/{self.posix}"
        return any(f"/repro/{pkg}/" in slashed for pkg in packages)


class ProjectIndex:
    """All modules of the analyzed tree, parsed once and cross-linked."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.parse_errors: list[tuple[str, str]] = []

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, paths: Sequence[Path | str]) -> "ProjectIndex":
        """Index every ``.py`` file under ``paths`` (files or directories)."""
        files = LintEngine.iter_files(paths)
        roots = [Path(p) for p in paths if Path(p).is_dir()]
        index = cls()
        for file in files:
            index._add_file(file, roots)
        index._link()
        return index

    def _add_file(self, path: Path, roots: Sequence[Path]) -> None:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.parse_errors.append((str(path), f"line {exc.lineno}: {exc.msg}"))
            return
        module = module_name_for(path, roots)
        info = ModuleInfo(
            path=str(path),
            posix=str(path).replace("\\", "/"),
            module=module,
            source=source,
            tree=tree,
        )
        info.line_suppressions, info.file_suppressions = _parse_suppressions(source)
        self._scan_module(info)
        self.modules[module] = info
        self.by_path[info.posix] = info

    def _scan_module(self, info: ModuleInfo) -> None:
        package = info.module.rsplit(".", 1)[0] if "." in info.module else ""
        for node in info.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node, package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = f"{base}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    qualname=f"{info.module}.{node.name}",
                    module=info.module,
                    name=node.name,
                    cls=None,
                    node=node,
                    path=info.path,
                )
                info.functions[node.name] = fn
            elif isinstance(node, ast.ClassDef):
                info.classes[node.name] = self._scan_class(info, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                value = node.value
                for target in targets:
                    if isinstance(target, ast.Name):
                        info.globals[target.id] = value if value is not None else node
                        if value is not None and _is_mutable_value(value):
                            info.mutable_globals.add(target.id)

    def _scan_class(self, info: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
        cinfo = ClassInfo(
            qualname=f"{info.module}.{node.name}",
            module=info.module,
            name=node.name,
            node=node,
        )
        for base in node.bases:
            name = _dotted(base)
            if name is not None:
                cinfo.bases.append(name)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    qualname=f"{cinfo.qualname}.{item.name}",
                    module=info.module,
                    name=item.name,
                    cls=node.name,
                    node=item,
                    path=info.path,
                )
                cinfo.methods[item.name] = fn
                for sub in ast.walk(item):
                    if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                        targets = (
                            sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                        )
                        for target in targets:
                            attr = _self_attr(target)
                            if attr is None:
                                continue
                            cinfo.assigned_attrs.add(attr)
                            if item.name != "__init__":
                                cinfo.mutated_attrs.add(attr)
                            value = getattr(sub, "value", None)
                            if isinstance(value, ast.Call):
                                ctor = _dotted(value.func)
                                if ctor is not None:
                                    cinfo.attr_types.setdefault(attr, ctor)
                    elif isinstance(sub, ast.Subscript) and isinstance(
                        sub.ctx, (ast.Store, ast.Del)
                    ):
                        attr = _self_attr(sub.value)
                        if attr is not None and item.name != "__init__":
                            cinfo.mutated_attrs.add(attr)
        return cinfo

    @staticmethod
    def _resolve_from(node: ast.ImportFrom, package: str) -> str | None:
        if node.level == 0:
            return node.module
        parts = package.split(".") if package else []
        # level=1 is "current package"; each extra level climbs one parent.
        climb = node.level - 1
        if climb > len(parts):
            return node.module
        base_parts = parts[: len(parts) - climb] if climb else parts
        if node.module:
            base_parts = [*base_parts, node.module]
        return ".".join(base_parts) or None

    def _link(self) -> None:
        for info in self.modules.values():
            for fn in info.functions.values():
                self.functions[fn.qualname] = fn
            for cinfo in info.classes.values():
                self.classes[cinfo.qualname] = cinfo
                for fn in cinfo.methods.values():
                    self.functions[fn.qualname] = fn

    # -- queries -------------------------------------------------------------

    def resolve(self, info: ModuleInfo, dotted: str) -> str | None:
        """Qualified name for ``dotted`` as written inside ``info``.

        Resolution order: import table (longest local prefix), then the
        module's own functions/classes/globals.  The result is qualified
        but not necessarily *indexed* — external names like
        ``numpy.random.default_rng`` resolve to themselves.
        """
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        if head in info.imports:
            return ".".join([info.imports[head], *rest])
        if head in info.functions or head in info.classes or head in info.globals:
            return ".".join([f"{info.module}.{head}", *rest])
        return dotted if "." in dotted else None

    def lookup_function(self, qualified: str) -> FunctionInfo | None:
        """Find an indexed function/method, following class constructors."""
        if qualified in self.functions:
            return self.functions[qualified]
        if qualified in self.classes:
            return self.classes[qualified].methods.get("__init__")
        return None

    def lookup_method(self, class_qualname: str, method: str) -> FunctionInfo | None:
        """Method lookup walking the project-local portion of the MRO."""
        seen: set[str] = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cinfo = self.classes.get(current)
            if cinfo is None:
                continue
            if method in cinfo.methods:
                return cinfo.methods[method]
            owner = self.modules.get(cinfo.module)
            for base in cinfo.bases:
                resolved = self.resolve(owner, base) if owner else base
                if resolved is not None:
                    queue.append(resolved)
        return None


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` target → ``"X"``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name is not None and name.split(".")[-1] in _MUTABLE_CALLS
    return False
