"""Project-wide call-graph, lock and field-access infrastructure.

This module is the shared semantic substrate of the interprocedural
checkers: the atomicity family (ATM) and the race/lockset family (RACE)
reason over the same function index, the same confident-only call
resolution, and the same may-yield fixpoint:

* :class:`FunctionCollector` extracts one :class:`FunctionInfo` per
  function/method (own scope only — nested defs are separate entries)
  and lowers its body once with :func:`scan_access_events`; its yield
  points and call sites are read off that one event stream;
* :class:`CallGraph` indexes every collected function, resolves calls
  *confidently only* (``self.m()`` through the enclosing class and its
  project-visible bases, bare names through the defining module and
  explicit imports; anything ambiguous resolves to nothing), and runs the
  may-yield fixpoint — a function may yield iff it is a generator or
  confidently reaches one;
* :func:`scan_access_events` lowers one function body into a linear,
  execution-ordered stream of lock acquire/release, ``self.<field>``
  read/write, yield-point and call events — the input of the may-yield
  fixpoint and the lockset inference alike.

One run builds one graph: :attr:`Project.call_graph
<repro.analysis.source.Project.call_graph>` constructs it on first use
and every checker shares it.

Over-approximation is deliberately avoided everywhere: a call that cannot
be resolved with confidence contributes no edges, no locks and no yields.
Suppressions should silence real findings, not analysis guesses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.source import Project, SourceFile

#: callees whose call-expression arguments are handed to the scheduler
#: for *later* execution — constructing a generator inline for them is
#: not an inline yield point.
SCHEDULER_HANDOFF = frozenset({"spawn", "schedule", "schedule_at"})

#: container methods that mutate the receiver in place — a call
#: ``self.f.append(x)`` is a *write* to the shared state behind ``self.f``.
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)


@dataclass
class CallSite:
    """One call expression inside a function's own scope."""

    kind: str  # "self" | "name" | "attr"
    name: str
    line: int
    #: dotted import resolution for kind == "name" (may equal name).
    dotted: str = ""
    #: the call is the operand of a ``yield`` / ``yield from``.
    under_yield: bool = False
    #: the call is an argument of a spawn/schedule — it only *creates* the
    #: generator; the scheduler runs it outside this scope, after the
    #: caller has released whatever locks it held.
    deferred: bool = False


@dataclass
class AccessEvent:
    """One step of a function body, in (approximate) execution order."""

    kind: str  # "acquire" | "release" | "read" | "write" | "yield" | "call"
    name: str  # lock name, field name, or callee name
    line: int
    call: Optional[CallSite] = None


@dataclass
class FunctionInfo:
    source: SourceFile
    node: ast.AST
    qualname: str
    class_name: Optional[str]
    is_generator: bool = False
    yield_lines: list[int] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    #: the body lowered by :func:`scan_access_events`.
    events: list[AccessEvent] = field(default_factory=list)
    may_yield: bool = False
    #: one callee responsible for may_yield (for witness chains).
    witness: Optional["FunctionInfo"] = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def chain(self) -> str:
        """Human witness path from this function to a generator."""
        parts = [self.qualname]
        seen = {id(self)}
        current = self.witness
        while current is not None and id(current) not in seen:
            parts.append(current.qualname)
            seen.add(id(current))
            current = current.witness
        return " -> ".join(parts)


@dataclass
class ClassInfo:
    name: str
    bases: list[str]
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


class FunctionCollector:
    """Extracts per-function info (own scope only) from one module."""

    def __init__(self, source: SourceFile, lock_names: frozenset[str]) -> None:
        self.source = source
        self.lock_names = lock_names
        self.functions: list[FunctionInfo] = []
        self.classes: list[ClassInfo] = []

    def collect(self) -> None:
        assert self.source.tree is not None
        self._visit_body(self.source.tree.body, prefix="", class_info=None)

    def _visit_body(
        self,
        body: list[ast.stmt],
        prefix: str,
        class_info: Optional[ClassInfo],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{node.name}" if prefix else node.name
                info = FunctionInfo(
                    source=self.source,
                    node=node,
                    qualname=qual,
                    class_name=class_info.name if class_info else None,
                )
                self._scan_function(node, info)
                self.functions.append(info)
                if class_info is not None:
                    class_info.methods[node.name] = info
            elif isinstance(node, ast.ClassDef):
                bases = [self._base_name(base) for base in node.bases]
                cls = ClassInfo(name=node.name, bases=[b for b in bases if b])
                self.classes.append(cls)
                self._visit_body(node.body, prefix=node.name, class_info=cls)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                # classes/functions nested in control flow at module level
                for child_body in stmt_bodies(node):
                    self._visit_body(child_body, prefix, class_info)

    @staticmethod
    def _base_name(base: ast.expr) -> str:
        if isinstance(base, ast.Name):
            return base.id
        if isinstance(base, ast.Attribute):
            return base.attr
        return ""

    # -- per-function scan (own scope: nested defs are boundaries) ---------------

    def _scan_function(self, fn: ast.AST, info: FunctionInfo) -> None:
        info.events = scan_access_events(fn, self.source, self.lock_names)
        info.calls = [e.call for e in info.events if e.call is not None]
        info.yield_lines = [e.line for e in info.events if e.kind == "yield"]
        info.is_generator = bool(info.yield_lines)
        for child in _nested_defs(fn):
            sub = FunctionInfo(
                source=self.source,
                node=child,
                qualname=f"{info.qualname}.<locals>.{child.name}",
                class_name=info.class_name,
            )
            self._scan_function(child, sub)
            self.functions.append(sub)


def _nested_defs(
    node: ast.AST,
) -> Iterator["ast.FunctionDef | ast.AsyncFunctionDef"]:
    """The defs directly nested in ``node``'s own scope, in source order."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        elif not isinstance(child, ast.Lambda):
            yield from _nested_defs(child)


def call_site_of(node: ast.Call, source: SourceFile) -> Optional[CallSite]:
    func = node.func
    if isinstance(func, ast.Name):
        return CallSite(
            kind="name",
            name=func.id,
            line=node.lineno,
            dotted=source.import_aliases.get(func.id, func.id),
        )
    if isinstance(func, ast.Attribute):
        kind = (
            "self"
            if isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")
            else "attr"
        )
        return CallSite(kind=kind, name=func.attr, line=node.lineno)
    return None


def lock_call(
    node: ast.AST, lock_names: frozenset[str]
) -> Optional[tuple[str, str]]:
    """``(op, lock)`` when ``node`` is ``<lock>.acquire()`` or
    ``<lock>.release()`` on a discovered lock name, else ``None``."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("acquire", "release")
    ):
        return None
    target = node.func.value
    name = (
        target.id
        if isinstance(target, ast.Name)
        else target.attr
        if isinstance(target, ast.Attribute)
        else ""
    )
    return (node.func.attr, name) if name in lock_names else None


def stmt_exprs(stmt: ast.stmt) -> list[ast.AST]:
    """Expression roots of a statement, excluding nested statement bodies."""
    out: list[ast.AST] = []
    for fieldname, value in ast.iter_fields(stmt):
        if fieldname in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.expr):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, ast.expr))
    return out


def stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    for fieldname in ("body", "orelse", "finalbody"):
        value = getattr(stmt, fieldname, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            bodies.append(value)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


class CallGraph:
    """Project-wide index with confident-only call resolution."""

    def __init__(self, project: Project) -> None:
        self.functions: list[FunctionInfo] = []
        self.classes: dict[str, list[ClassInfo]] = {}
        self.module_functions: dict[tuple[str, str], FunctionInfo] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.lock_names = discover_lock_names(project)
        for source in project.files:
            if source.tree is None:
                continue
            collector = FunctionCollector(source, self.lock_names)
            collector.collect()
            self.functions.extend(collector.functions)
            for cls in collector.classes:
                self.classes.setdefault(cls.name, []).append(cls)
            for fn in collector.functions:
                self.by_name.setdefault(fn.name, []).append(fn)
                if "." not in fn.qualname:
                    self.module_functions[(source.relpath, fn.qualname)] = fn
        self._compute_may_yield()

    # -- resolution ---------------------------------------------------------------

    def resolve(self, caller: FunctionInfo, site: CallSite) -> list[FunctionInfo]:
        if site.kind == "name":
            local = self.module_functions.get((caller.source.relpath, site.name))
            if local is not None:
                return [local]
            dotted = site.dotted
            if dotted and "." in dotted:
                module_path, func_name = dotted.rsplit(".", 1)
                suffix = module_path.replace(".", "/") + ".py"
                for (relpath, name), fn in self.module_functions.items():
                    if name == func_name and relpath.endswith(suffix):
                        return [fn]
            return []
        if site.kind == "self" and caller.class_name:
            return self._resolve_method(caller.class_name, site.name, set())
        return []

    def _resolve_method(
        self, class_name: str, method: str, seen: set[str]
    ) -> list[FunctionInfo]:
        if class_name in seen:
            return []
        seen.add(class_name)
        out: list[FunctionInfo] = []
        for cls in self.classes.get(class_name, []):
            if method in cls.methods:
                out.append(cls.methods[method])
                continue
            for base in cls.bases:
                out.extend(self._resolve_method(base, method, seen))
        return out

    # -- may-yield fixpoint ---------------------------------------------------------

    def _compute_may_yield(self) -> None:
        for fn in self.functions:
            fn.may_yield = fn.is_generator
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                if fn.may_yield:
                    continue
                for site in fn.calls:
                    if site.deferred:
                        continue
                    for target in self.resolve(fn, site):
                        if target.may_yield:
                            fn.may_yield = True
                            fn.witness = target
                            changed = True
                            break
                    if fn.may_yield:
                        break


def discover_lock_names(project: Project) -> frozenset[str]:
    """Attribute/variable names assigned a ``Lock(...)`` anywhere."""
    names: set[str] = set()
    for source in project.files:
        for node in source.nodes:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            func = value.func
            callee = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else ""
            )
            if not callee.endswith("Lock"):
                continue
            target = node.targets[0]
            if isinstance(target, ast.Attribute):
                names.add(target.attr)
            elif isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)


def function_at_marker(
    functions: list[FunctionInfo], marker_line: int
) -> Optional[FunctionInfo]:
    """The function a same-line / line-above ``# analysis:`` marker names."""
    for fn in functions:
        node = fn.node
        candidates = {node.lineno, node.lineno - 1}
        for decorator in getattr(node, "decorator_list", []):
            candidates.add(decorator.lineno - 1)
        if marker_line in candidates or marker_line + 1 in {node.lineno}:
            return fn
    return None


def atomic_function_ids(
    source: SourceFile, functions: list[FunctionInfo]
) -> set[int]:
    """ids of functions in ``source`` declared ``# analysis: atomic``."""
    out: set[int] = set()
    local = [fn for fn in functions if fn.source is source]
    for marker in source.directives.atomic_markers:
        if marker.kind != "function":
            continue
        fn = function_at_marker(local, marker.line)
        if fn is not None:
            out.add(id(fn))
    return out


def atomic_regions(source: SourceFile) -> list[tuple[int, int]]:
    """Paired ``atomic-begin``/``atomic-end`` line ranges in ``source``.

    Unbalanced markers are the atomicity checker's problem (ATM004); here
    they simply produce no region.
    """
    open_regions: dict[str, int] = {}
    spans: list[tuple[int, int]] = []
    for marker in source.directives.atomic_markers:
        if marker.kind == "begin":
            open_regions[marker.name] = marker.line
        elif marker.kind == "end":
            begin = open_regions.pop(marker.name, None)
            if begin is not None:
                spans.append((begin, marker.line))
    return spans


# -- execution-ordered access events ------------------------------------------------


def scan_access_events(
    fn_node: ast.AST,
    source: SourceFile,
    lock_names: frozenset[str],
) -> list[AccessEvent]:
    """Lower one function body to a linear stream of lock, ``self.<field>``
    access, yield-point and call events.

    The stream is execution-ordered *per statement* (an assignment's value
    is scanned before its targets, a ``with`` releases at block exit);
    branches are concatenated rather than forked — the lockset analyses
    on top are path-insensitive by design.  A call handed to
    ``spawn``/``schedule`` is marked *deferred*: it only constructs the
    generator, which runs later, outside this scope and its locks.
    """
    events: list[AccessEvent] = []
    #: ids of Call nodes that are the operand of a yield, or an argument
    #: of a scheduler handoff.
    under_yield: set[int] = set()
    deferred: set[int] = set()

    def self_field(node: ast.expr) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            return node.attr
        return None

    def scan_expr(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested scopes are separate functions
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                under_yield.add(id(node.value))
                scan_expr(node.value)
            events.append(AccessEvent("yield", "", node.lineno))
            return
        if isinstance(node, ast.Call):
            lock = lock_call(node, lock_names)
            if lock is not None:
                events.append(AccessEvent(*lock, node.lineno))
                return
            func = node.func
            mutated = (
                self_field(func.value)
                if isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
                else None
            )
            site = call_site_of(node, source)
            arguments = [*node.args, *(kw.value for kw in node.keywords)]
            if site is not None and site.name in SCHEDULER_HANDOFF:
                deferred.update(id(arg) for arg in arguments)
            # receiver first (a read of the binding), then arguments,
            # then the mutation and the call itself.
            scan_expr(func)
            for arg in arguments:
                scan_expr(arg)
            if mutated is not None:
                events.append(AccessEvent("write", mutated, node.lineno))
            if site is not None:
                site.under_yield = id(node) in under_yield
                site.deferred = id(node) in deferred
                events.append(
                    AccessEvent("call", site.name, node.lineno, call=site)
                )
            return
        field_name = self_field(node)
        if field_name is not None:
            ctx = getattr(node, "ctx", None)
            if isinstance(ctx, ast.Load):
                events.append(AccessEvent("read", field_name, node.lineno))
            elif isinstance(ctx, (ast.Store, ast.Del)):
                events.append(AccessEvent("write", field_name, node.lineno))
            # still scan the value side of deeper chains (self handled above)
            return
        for child in ast.iter_child_nodes(node):
            scan_expr(child)

    def scan_target(node: ast.expr) -> None:
        field_name = self_field(node)
        if field_name is not None:
            events.append(AccessEvent("write", field_name, node.lineno))
            return
        if isinstance(node, ast.Subscript):
            # ``self.f[k] = v`` reads the binding, writes the contents.
            base_field = self_field(node.value)
            scan_expr(node.slice)
            if base_field is not None:
                events.append(AccessEvent("read", base_field, node.lineno))
                events.append(AccessEvent("write", base_field, node.lineno))
            else:
                scan_expr(node.value)
            return
        if isinstance(node, ast.Attribute):
            scan_expr(node.value)
            return
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                scan_target(element)
            return
        if isinstance(node, ast.Starred):
            scan_target(node.value)

    def scan_body(body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.With):
                held: list[str] = []
                for item in stmt.items:
                    expr = item.context_expr
                    name: Optional[str] = None
                    if isinstance(expr, ast.Name):
                        name = expr.id
                    elif isinstance(expr, ast.Attribute):
                        name = expr.attr
                    if name in lock_names:
                        events.append(
                            AccessEvent("acquire", name, stmt.lineno)
                        )
                        held.append(name)
                    else:
                        scan_expr(expr)
                scan_body(stmt.body)
                end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
                for name in reversed(held):
                    events.append(AccessEvent("release", name, end))
                continue
            if isinstance(stmt, ast.Assign):
                scan_expr(stmt.value)
                for target in stmt.targets:
                    scan_target(target)
            elif isinstance(stmt, ast.AugAssign):
                scan_expr(stmt.value)
                field_name = self_field(stmt.target)
                if field_name is not None:
                    events.append(
                        AccessEvent("read", field_name, stmt.lineno)
                    )
                    events.append(
                        AccessEvent("write", field_name, stmt.lineno)
                    )
                else:
                    scan_target(stmt.target)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    scan_expr(stmt.value)
                scan_target(stmt.target)
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    scan_target(target)
            else:
                for expr in stmt_exprs(stmt):
                    scan_expr(expr)
            for body_part in stmt_bodies(stmt):
                scan_body(body_part)

    scan_body(getattr(fn_node, "body", []))
    return events
