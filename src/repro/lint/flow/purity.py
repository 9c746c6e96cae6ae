"""Purity and race rules: RL013 (memo-impurity), RL014 (spawn-shared-state)
and RL015 (guard-coverage).

These three rules protect different invariants with the same shape — a
*region* of the call graph (a memoized computation, the worker side of
the spawn boundary, a hook call site) must not touch state the region's
contract does not cover.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Severity
from repro.lint.flow.base import FlowRule, register_flow_rule
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.index import FunctionInfo, ProjectIndex, _dotted

#: method names that mutate their receiver in place
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "add", "discard", "update", "setdefault", "appendleft", "extendleft",
        "sort", "reverse",
    }
)


# -- RL013 --------------------------------------------------------------------

#: local names whose assignment is taken as "the cache key expression"
_KEY_NAMES = ("signature", "key", "cache_key", "memo_key")


@register_flow_rule
class MemoImpurityRule(FlowRule):
    """Memoized solves must be pure functions of their cache key.

    A memo entry is only as valid as its key: if the computation behind
    ``FlowSolver.solve`` or the per-node solve cache reads instance state
    that (a) is mutated at runtime and (b) does not appear in the key
    expression, a cache hit can silently return a result computed under
    *different* state — a class of bug the ``reference_model``
    differential oracle (which keeps no memos) catches at runtime, found
    here statically.
    """

    id = "RL013"
    name = "memo-impurity"
    severity = Severity.WARNING
    description = (
        "memoized solver reads runtime-mutated attributes/globals not "
        "captured in its cache key"
    )

    def run(self, project: ProjectIndex, graph: CallGraph):
        memos: list[FunctionInfo] = []
        for suffix in self.config.flow_memo_functions:
            matched = False
            for qualname, fn in sorted(project.functions.items()):
                if qualname.endswith(suffix) and fn.cls is not None:
                    matched = True
                    memos.append(fn)
                    self._check_memo(project, graph, fn)
            if not matched:
                self._report_stale_entry(project, suffix)
        if memos:
            self._report_stale_state(
                project, min(memos, key=lambda fn: fn.qualname)
            )
        return sorted(self.findings)

    def _report_stale_state(self, project: ProjectIndex, fn: FunctionInfo) -> None:
        """Report a state entry that no class in the tree assigns as
        ``self.<name>``: it allows nothing today, and would silently allow
        a future attribute of that name.  Reported on the class of ``fn``
        (a memoized solve in the tree); a tree without one stays silent."""
        cinfo = project.classes.get(f"{fn.module}.{fn.cls}")
        info = project.modules.get(fn.module)
        if cinfo is None or info is None:
            return
        assigned: set[str] = set()
        for other in project.classes.values():
            assigned |= other.assigned_attrs
        for option, names in (
            ("flow-memo-state-allowed", self.config.flow_memo_state_allowed),
            ("flow-memo-derived-state", self.config.flow_memo_derived_state),
        ):
            for name in names:
                if name not in assigned:
                    self.report(
                        info,
                        cinfo.node,
                        f"{option} entry {name!r} is assigned as self.{name} "
                        "by no class in the tree; a stale entry would "
                        "silently exempt a future attribute of that name",
                    )

    def _report_stale_entry(self, project: ProjectIndex, suffix: str) -> None:
        """Report a ``Class.method`` entry whose class lacks the method: a
        rename left it behind, and it switches the rule off for the renamed
        solve.  Entries naming a class the tree lacks stay silent."""
        cls_suffix = suffix.rpartition(".")[0]
        for qualname, cinfo in sorted(project.classes.items()):
            info = project.modules.get(cinfo.module)
            if info is None or not f".{qualname}".endswith(f".{cls_suffix}"):
                continue
            self.report(
                info,
                cinfo.node,
                f"flow-memo-functions entry {suffix!r} names no method of "
                f"{cinfo.name}; a stale entry leaves the renamed memoized "
                "solve unchecked",
            )

    def _check_memo(
        self, project: ProjectIndex, graph: CallGraph, fn: FunctionInfo
    ) -> None:
        class_qualname = f"{fn.module}.{fn.cls}"
        cinfo = project.classes.get(class_qualname)
        if cinfo is None:
            return
        key_attrs = self._key_attrs(fn)
        allowed = (
            set(self.config.flow_memo_state_allowed)
            | set(self.config.flow_memo_derived_state)
            | key_attrs
        )
        # The whole computation: the memoized entry point plus every
        # same-class method reachable from it.
        region = [
            project.functions[q]
            for q in sorted(graph.reachable([fn.qualname]))
            if project.functions[q].cls == fn.cls
            and project.functions[q].module == fn.module
        ]
        reported: set[tuple[str, str]] = set()
        for member in region:
            info = project.modules.get(member.module)
            if info is None:
                continue
            parents = _parent_map(member.node)
            for node in ast.walk(member.node):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    continue
                # `self.X[...] = v` (possibly nested, `self.X[a][b] = v`):
                # the attribute base of a subscript-store chain is a write
                # site, not a state *read*.
                parent = parents.get(node)
                while isinstance(parent, ast.Subscript):
                    if isinstance(parent.ctx, (ast.Store, ast.Del)):
                        break
                    parent = parents.get(parent)
                if isinstance(parent, ast.Subscript):
                    continue
                attr = node.attr
                if attr in allowed or attr not in cinfo.mutated_attrs:
                    continue
                dedupe = (member.qualname, attr)
                if dedupe in reported:
                    continue
                reported.add(dedupe)
                self.report(
                    info,
                    node,
                    f"memoized {fn.cls}.{fn.name}() reads self.{attr} "
                    f"(mutated outside __init__) via {member.name}(), but "
                    "the cache key does not include it; a memo hit may "
                    "return a result computed under different state",
                )

    @staticmethod
    def _key_attrs(fn: FunctionInfo) -> set[str]:
        """``self.<attr>`` names the cache-key expression depends on.

        Keys rarely name their state directly: the idiom is ``speed =
        self._speed``, then ``demands = tuple([rate * speed[row] ...])``
        and ``signature = (token, nic, demands)`` — the attribute reads
        hide behind locals that feed the key.  A fixpoint over the
        function's simple local assignments propagates self-attribute
        provenance through those locals (including aliases like
        ``row_dem = self._row_dem``), so every attribute whose *contents*
        reach the key values counts as key-covered.  The closure is
        flow-insensitive (both arms of a branch contribute), which errs
        toward treating state as covered — acceptable for a
        WARNING-severity rule whose ground truth is the runtime
        differential oracle.
        """
        assigns = [
            node for node in ast.walk(fn.node) if isinstance(node, ast.Assign)
        ]

        def reads(expr: ast.AST, local_attrs: dict[str, set[str]]) -> set[str]:
            found: set[str] = set()
            for sub in ast.walk(expr):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    found.add(sub.attr)
                elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    found |= local_attrs.get(sub.id, set())
            return found

        local_attrs: dict[str, set[str]] = {}
        changed = True
        while changed:
            changed = False
            for node in assigns:
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if not names:
                    continue
                attrs = reads(node.value, local_attrs)
                for name in names:
                    known = local_attrs.setdefault(name, set())
                    if not attrs <= known:
                        known |= attrs
                        changed = True

        attrs: set[str] = set()
        for node in assigns:
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if any(name in _KEY_NAMES for name in names):
                attrs |= reads(node.value, local_attrs)
        return attrs


# -- RL014 --------------------------------------------------------------------


@register_flow_rule
class SpawnSharedStateRule(FlowRule):
    """Worker code must not write module- or class-level state.

    ``run_trials`` promises byte-identical results for any ``--jobs``
    because every trial is a pure function of its payload.  A write to a
    module global or a class attribute anywhere in the code reachable
    from a worker entry point breaks that promise twice over: under
    ``jobs>1`` each spawned worker mutates its *own* copy (silent
    divergence from serial runs), and under ``jobs=1`` trial N leaks
    state into trial N+1 (results depend on execution order).
    """

    id = "RL014"
    name = "spawn-shared-state"
    severity = Severity.ERROR
    description = (
        "module/class-level mutable state written by code reachable from "
        "run_trials workers"
    )

    def run(self, project: ProjectIndex, graph: CallGraph):
        roots = self._worker_roots(project, graph)
        for qualname in sorted(graph.reachable(roots)):
            fn = project.functions[qualname]
            info = project.modules.get(fn.module)
            if info is None:
                continue
            self._check_function(project, info, fn)
        return sorted(self.findings)

    def _worker_roots(self, project: ProjectIndex, graph: CallGraph) -> set[str]:
        entrypoints = set(self.config.flow_worker_entrypoints)
        roots: set[str] = set()
        for qualname, sites in graph.sites.items():
            scope = graph.scope(qualname)
            if scope is None:
                continue
            for site in sites:
                target = site.target
                if target is None or target.split(".")[-1] not in entrypoints:
                    continue
                if not site.node.args:
                    continue
                factory = site.node.args[0]
                resolved = scope.resolve_function_ref(factory)
                if resolved is not None:
                    roots.add(resolved)
                elif isinstance(factory, ast.Lambda):
                    # fan the lambda's own calls out as roots
                    for sub in ast.walk(factory.body):
                        if isinstance(sub, ast.Call):
                            callee, _ = scope.resolve_call(sub)
                            if callee is not None:
                                roots.add(callee)
        return roots

    def _check_function(self, project: ProjectIndex, info, fn: FunctionInfo) -> None:
        declared_global = {
            name
            for node in ast.walk(fn.node)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        local_names = {
            t.id
            for node in ast.walk(fn.node)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Name)
        } - declared_global
        for node in ast.walk(fn.node):
            # `global X` rebinding
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in declared_global:
                        self.report(
                            info,
                            node,
                            f"worker-reachable {fn.name}() rebinds module "
                            f"global {target.id!r}: state written behind the "
                            "spawn boundary diverges between jobs=1 and jobs>1",
                        )
                    # MODULE_GLOBAL[...] = v  /  ClassName.attr = v
                    elif isinstance(target, (ast.Subscript, ast.Attribute)):
                        self._check_store_target(project, info, fn, node, target, local_names)
            # MODULE_GLOBAL.append(...) and friends
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr not in _MUTATORS:
                    continue
                base = node.func.value
                root = self._module_global_root(info, base, local_names)
                if root is not None:
                    self.report(
                        info,
                        node,
                        f"worker-reachable {fn.name}() mutates module-level "
                        f"{root!r} via .{node.func.attr}(): shared state "
                        "written by trials breaks jobs=N reproducibility",
                    )

    def _check_store_target(
        self, project, info, fn: FunctionInfo, stmt, target, local_names: set[str]
    ) -> None:
        if isinstance(target, ast.Subscript):
            root = self._module_global_root(info, target.value, local_names)
            if root is not None:
                self.report(
                    info,
                    stmt,
                    f"worker-reachable {fn.name}() writes into module-level "
                    f"{root!r}: shared state written by trials breaks "
                    "jobs=N reproducibility",
                )
        elif isinstance(target, ast.Attribute):
            dotted = _dotted(target.value)
            if dotted is None or dotted.startswith("self"):
                return
            resolved = project.resolve(info, dotted)
            if resolved is not None and resolved in project.classes:
                self.report(
                    info,
                    stmt,
                    f"worker-reachable {fn.name}() writes class attribute "
                    f"{dotted}.{target.attr}: class-level state crosses the "
                    "spawn boundary and breaks jobs=N reproducibility",
                )

    @staticmethod
    def _module_global_root(info, node: ast.AST, local_names: set[str]) -> str | None:
        if not isinstance(node, ast.Name):
            return None
        name = node.id
        if name in local_names or name not in info.globals:
            return None
        if name in info.mutable_globals or name in info.globals:
            return name
        return None


# -- RL015 --------------------------------------------------------------------


@register_flow_rule
class GuardCoverageRule(FlowRule):
    """Optional hooks must be used behind the zero-cost guard.

    The observability and invariant hooks (``sim.obs`` / ``sim.check`` /
    ``flow_solver.check``) are ``None`` unless a collector is attached —
    that is what makes an untraced run free.  Calling through the hook
    without the ``is not None`` guard either crashes untraced runs or,
    worse, forces call sites to attach collectors defensively, paying
    the cost everywhere.
    """

    id = "RL015"
    name = "guard-coverage"
    severity = Severity.ERROR
    description = (
        "hook site (sim.obs/sim.check) called without the `is not None` "
        "zero-cost guard"
    )

    def run(self, project: ProjectIndex, graph: CallGraph):
        hooks = set(self.config.flow_guard_hooks)
        for qualname, fn in sorted(project.functions.items()):
            info = project.modules.get(fn.module)
            if info is None or not info.in_packages(self.config.flow_guard_packages):
                continue
            parents = _parent_map(fn.node)
            guards = _none_guards(fn.node)
            for node in ast.walk(fn.node):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                receiver = _dotted(node.func.value)
                if receiver is None or receiver.split(".")[-1] not in hooks:
                    continue
                if self._is_guarded(node, receiver, parents, guards):
                    continue
                self.report(
                    info,
                    node,
                    f"call through optional hook {receiver} without a guard; "
                    f"wrap in `if {receiver} is not None:` so unattached "
                    "runs stay zero-cost",
                )
        return sorted(self.findings)

    @staticmethod
    def _is_guarded(
        call: ast.Call,
        receiver: str,
        parents: dict[ast.AST, ast.AST],
        guards: list[tuple[int, str]],
    ) -> bool:
        # (a) enclosing if/while/ternary/boolop test mentioning the receiver
        current: ast.AST | None = parents.get(call)
        while current is not None:
            test = None
            if isinstance(current, (ast.If, ast.While, ast.IfExp)):
                test = current.test
            elif isinstance(current, ast.Assert):
                test = current.test
            elif isinstance(current, ast.BoolOp) and isinstance(current.op, ast.And):
                test = current
            if test is not None and _mentions(test, receiver):
                return True
            current = parents.get(current)
        # (b) an earlier `if recv is None: return/raise/continue` (or an
        # assert) anywhere above the call in the same function
        line = getattr(call, "lineno", 0)
        return any(g_line < line and g_recv == receiver for g_line, g_recv in guards)


def _parent_map(root: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(root):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _mentions(test: ast.AST, receiver: str) -> bool:
    """True if the guard expression names the receiver (``X``, ``X is not
    None`` or any compare/boolop containing it)."""
    for node in ast.walk(test):
        if _dotted(node) == receiver:
            return True
    return False


def _none_guards(fn_node: ast.AST) -> list[tuple[int, str]]:
    """(line, receiver) for early-exit `if X is None:` guards and asserts."""
    guards: list[tuple[int, str]] = []
    for node in ast.walk(fn_node):
        if isinstance(node, ast.If):
            receiver = _is_none_test(node.test)
            if receiver is not None and node.body:
                last = node.body[-1]
                if isinstance(last, (ast.Return, ast.Raise, ast.Continue)):
                    guards.append((node.lineno, receiver))
        elif isinstance(node, ast.Assert):
            receiver = _is_not_none_test(node.test)
            if receiver is not None:
                guards.append((node.lineno, receiver))
    return guards


def _is_none_test(test: ast.AST) -> str | None:
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Is)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return _dotted(test.left)
    return None


def _is_not_none_test(test: ast.AST) -> str | None:
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return _dotted(test.left)
    return None
