"""IDL conformance checker (IDL).

The paper's whole fault-tolerance story rests on one contract: the system's
behaviour is *defined by its IDL*.  Servants must implement every declared
operation (the generated skeleton default raises ``NO_IMPLEMENT`` — drift
only surfaces at runtime, on the unlucky call), and an FT proxy must
intercept **every** operation of its interface, or the un-intercepted call
silently bypasses recovery and checkpointing.  This checker makes both
machine-checked:

IDL001  servant class missing an IDL operation;
IDL002  servant method arity disagrees with the IDL signature;
IDL003  FT proxy does not intercept an IDL operation;
IDL004  embedded IDL fails to parse;
IDL005  compiled stub operation table disagrees with the IDL AST
        (semantic toolchain cross-check).

Discovery is convention-based: any module-level ``NAME_IDL = \"\"\"...\"\"\"``
constant is parsed with the project's own :mod:`repro.orb.idl.parser`; any
class deriving from ``<Interface>Skeleton`` is a servant of that interface;
any class named ``*FtProxy`` (or deriving from a ``*Stub`` alongside a
proxy base) is a hand-written proxy.  When semantic checks are enabled the
checker additionally compiles every discovered IDL document and runs
:func:`repro.ft.proxies.make_ft_proxy` over each interface, verifying the
generated proxy intercepts the full operation table — including the
delta-store surface (``store_delta``) added in PR 3.
"""

from __future__ import annotations

import ast as pyast
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker
from repro.analysis.source import Project, SourceFile
from repro.errors import IdlError
from repro.orb.idl import idlast
from repro.orb.idl.parser import parse_idl

#: the checkpoint/recovery machinery itself — never wrapped by proxies.
CHECKPOINT_OPERATIONS = frozenset({"get_checkpoint", "restore_from"})


@dataclass
class IdlOperation:
    name: str
    nparams: int
    #: method name a proxy must define (attribute accessors are exposed
    #: as ``get_x``/``set_x`` on stubs and proxies).
    proxy_name: str
    #: method name a servant must define ("" = skeleton provides a
    #: default, e.g. attribute accessors backed by getattr/setattr).
    servant_name: str


@dataclass
class IdlInterface:
    name: str
    doc: "IdlDocument"
    bases: list[str] = field(default_factory=list)
    own_operations: list[IdlOperation] = field(default_factory=list)

    def all_operations(
        self, registry: dict[str, "IdlInterface"]
    ) -> list[IdlOperation]:
        seen: dict[str, IdlOperation] = {}
        for base in self.bases:
            base_iface = registry.get(base)
            if base_iface is not None and base_iface is not self:
                for op in base_iface.all_operations(registry):
                    seen[op.name] = op
        for op in self.own_operations:
            seen[op.name] = op
        return list(seen.values())


@dataclass
class IdlDocument:
    source: SourceFile
    line: int
    constant_name: str
    text: str
    interfaces: dict[str, IdlInterface] = field(default_factory=dict)


def _operations_of(node: idlast.InterfaceDecl, iface: IdlInterface) -> None:
    for member in node.body:
        if isinstance(member, idlast.OperationDecl):
            iface.own_operations.append(
                IdlOperation(
                    name=member.name,
                    nparams=len(member.params),
                    proxy_name=member.name,
                    servant_name=member.name,
                )
            )
        elif isinstance(member, idlast.AttributeDecl):
            for attr_name in member.names:
                iface.own_operations.append(
                    IdlOperation(
                        name=f"_get_{attr_name}",
                        nparams=0,
                        proxy_name=f"get_{attr_name}",
                        servant_name="",
                    )
                )
                if not member.readonly:
                    iface.own_operations.append(
                        IdlOperation(
                            name=f"_set_{attr_name}",
                            nparams=1,
                            proxy_name=f"set_{attr_name}",
                            servant_name="",
                        )
                    )


def _walk_interfaces(body: list, doc: IdlDocument) -> None:
    for node in body:
        if isinstance(node, idlast.ModuleDecl):
            _walk_interfaces(node.body, doc)
        elif isinstance(node, idlast.InterfaceDecl) and not node.forward:
            iface = IdlInterface(
                name=node.name,
                doc=doc,
                bases=[base.parts[-1] for base in node.bases],
            )
            _operations_of(node, iface)
            doc.interfaces[node.name] = iface


class IdlConformanceChecker(Checker):
    name = "idl-conformance"
    codes = {
        "IDL001": "servant class missing an IDL operation",
        "IDL002": "servant method arity disagrees with the IDL",
        "IDL003": "FT proxy does not intercept an IDL operation",
        "IDL004": "embedded IDL fails to parse",
        "IDL005": "compiled stub operation table disagrees with the IDL",
    }
    # IDL constants, servants and proxies all live in the package tree;
    # benchmarks/examples subclass stubs without owning any IDL contract.
    default_scope = ("repro/",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        documents = self._discover_idl(project, findings)
        registry: dict[str, IdlInterface] = {}
        for doc in documents:
            registry.update(doc.interfaces)
        findings.extend(self._check_servants(project, registry))
        findings.extend(self._check_handwritten_proxies(project, registry))
        if project.semantic:
            findings.extend(self._check_semantic(documents, registry))
        return findings

    # -- discovery -------------------------------------------------------------

    def _discover_idl(
        self, project: Project, findings: list[Finding]
    ) -> list[IdlDocument]:
        documents: list[IdlDocument] = []
        for source in self.scoped_files(project):
            for node in source.tree.body:
                if (
                    not isinstance(node, pyast.Assign)
                    or len(node.targets) != 1
                    or not isinstance(node.targets[0], pyast.Name)
                    or not node.targets[0].id.endswith("_IDL")
                    or not isinstance(node.value, pyast.Constant)
                    or not isinstance(node.value.value, str)
                ):
                    continue
                doc = IdlDocument(
                    source=source,
                    line=node.lineno,
                    constant_name=node.targets[0].id,
                    text=node.value.value,
                )
                try:
                    spec = parse_idl(doc.text)
                except IdlError as exc:
                    findings.append(
                        self.finding(
                            "IDL004",
                            f"{doc.constant_name} does not parse: {exc}",
                            source,
                            node,
                            context=doc.constant_name,
                        )
                    )
                    continue
                _walk_interfaces(spec.body, doc)
                documents.append(doc)
        return documents

    # -- servant conformance ------------------------------------------------------

    def _check_servants(
        self, project: Project, registry: dict[str, IdlInterface]
    ) -> list[Finding]:
        findings: list[Finding] = []
        class_index = _class_index(project)
        for source in self.scoped_files(project):
            for node in pyast.walk(source.tree):
                if not isinstance(node, pyast.ClassDef):
                    continue
                iface = _servant_interface(node, registry)
                if iface is None:
                    continue
                methods = _methods_with_inherited(node, class_index)
                for op in iface.all_operations(registry):
                    if not op.servant_name:
                        continue  # skeleton supplies attribute accessors
                    method = methods.get(op.servant_name)
                    if method is None:
                        findings.append(
                            self.finding(
                                "IDL001",
                                f"servant {node.name} does not implement "
                                f"{iface.name}.{op.servant_name} — the "
                                "skeleton default raises NO_IMPLEMENT at "
                                "runtime",
                                source,
                                node,
                                context=node.name,
                            )
                        )
                        continue
                    problem = _arity_mismatch(method, op.nparams)
                    if problem:
                        findings.append(
                            self.finding(
                                "IDL002",
                                f"servant {node.name}.{op.servant_name} "
                                f"{problem}; the IDL declares "
                                f"{op.nparams} parameter(s)",
                                source,
                                method,
                                context=f"{node.name}.{op.servant_name}",
                            )
                        )
        return findings

    # -- hand-written proxy conformance ---------------------------------------------

    def _check_handwritten_proxies(
        self, project: Project, registry: dict[str, IdlInterface]
    ) -> list[Finding]:
        findings: list[Finding] = []
        class_index = _class_index(project)
        for source in self.scoped_files(project):
            for node in pyast.walk(source.tree):
                if not isinstance(node, pyast.ClassDef):
                    continue
                iface = _proxy_interface(node, registry)
                if iface is None:
                    continue
                methods = _methods_with_inherited(
                    node, class_index, stop_at_stub=True
                )
                for op in iface.all_operations(registry):
                    if op.name in CHECKPOINT_OPERATIONS:
                        continue
                    if op.proxy_name not in methods:
                        findings.append(
                            self.finding(
                                "IDL003",
                                f"FT proxy {node.name} does not intercept "
                                f"{iface.name}.{op.proxy_name}; the call "
                                "would bypass recovery and checkpointing",
                                source,
                                node,
                                context=node.name,
                            )
                        )
        return findings

    # -- semantic cross-checks (compile the toolchain) --------------------------------

    def _check_semantic(
        self,
        documents: list[IdlDocument],
        registry: dict[str, IdlInterface],
    ) -> list[Finding]:
        from repro.ft.proxies import make_ft_proxy
        from repro.orb.idl import compile_idl
        from repro.orb.stubs import INTERFACE_ANCESTRY, USER_EXCEPTION_REGISTRY

        # Re-compiling live IDL registers fresh exception/interface classes
        # in the ORB's global registries, displacing the ones the running
        # code raises and catches — analysis must leave the runtime
        # untouched, so snapshot and restore them.
        saved_exceptions = dict(USER_EXCEPTION_REGISTRY)
        saved_ancestry = dict(INTERFACE_ANCESTRY)
        try:
            return self._check_semantic_inner(
                documents, registry, compile_idl, make_ft_proxy
            )
        finally:
            USER_EXCEPTION_REGISTRY.clear()
            USER_EXCEPTION_REGISTRY.update(saved_exceptions)
            INTERFACE_ANCESTRY.clear()
            INTERFACE_ANCESTRY.update(saved_ancestry)

    def _check_semantic_inner(
        self,
        documents: list[IdlDocument],
        registry: dict[str, IdlInterface],
        compile_idl: Callable[..., Any],
        make_ft_proxy: Callable[[type], type],
    ) -> list[Finding]:
        findings: list[Finding] = []
        for doc in documents:
            try:
                namespace = compile_idl(doc.text, name=doc.constant_name.lower())
            except IdlError as exc:
                findings.append(
                    self.finding(
                        "IDL004",
                        f"{doc.constant_name} fails to compile: {exc}",
                        doc.source,
                        doc.line,
                        context=doc.constant_name,
                    )
                )
                continue
            for iface in doc.interfaces.values():
                stub_cls = getattr(namespace, f"{iface.name}Stub", None)
                if stub_cls is None:
                    findings.append(
                        self.finding(
                            "IDL005",
                            f"compiling {doc.constant_name} produced no "
                            f"{iface.name}Stub",
                            doc.source,
                            doc.line,
                            context=iface.name,
                        )
                    )
                    continue
                expected = {
                    op.name: op.nparams
                    for op in iface.all_operations(registry)
                }
                table = stub_cls.__operations__
                for op_name, nparams in sorted(expected.items()):
                    info = table.get(op_name)
                    if info is None:
                        findings.append(
                            self.finding(
                                "IDL005",
                                f"stub {iface.name}Stub has no entry for "
                                f"IDL operation {op_name}",
                                doc.source,
                                doc.line,
                                context=iface.name,
                            )
                        )
                    elif len(info.params) != nparams:
                        findings.append(
                            self.finding(
                                "IDL005",
                                f"stub {iface.name}Stub.{op_name} carries "
                                f"{len(info.params)} parameter(s), IDL "
                                f"declares {nparams}",
                                doc.source,
                                doc.line,
                                context=iface.name,
                            )
                        )
                proxy_cls = make_ft_proxy(stub_cls)
                findings.extend(
                    check_proxy_coverage(
                        stub_cls,
                        proxy_cls,
                        source=doc.source,
                        line=doc.line,
                        checker=self,
                        interface=iface.name,
                    )
                )
        return findings


def check_proxy_coverage(
    stub_cls: type,
    proxy_cls: type,
    source: Optional[SourceFile] = None,
    line: int = 1,
    checker: Optional[Checker] = None,
    interface: str = "",
) -> list[Finding]:
    """Verify ``proxy_cls`` intercepts every operation of ``stub_cls``.

    An operation is *intercepted* when the attribute the client calls is
    defined by the proxy side of the MRO — i.e. not inherited unchanged
    from the stub.  Exposed as a standalone function so tests (and other
    tools) can run the proxy contract against any stub/proxy pair.
    """
    produced = checker or IdlConformanceChecker()
    findings: list[Finding] = []
    stub_classes = set(stub_cls.__mro__)
    for op_name in stub_cls.__operations__:
        if op_name in CHECKPOINT_OPERATIONS:
            continue
        if op_name.startswith("_get_"):
            method = f"get_{op_name[5:]}"
        elif op_name.startswith("_set_"):
            method = f"set_{op_name[5:]}"
        else:
            method = op_name
        intercepted = any(
            method in cls.__dict__
            for cls in proxy_cls.__mro__
            if cls not in stub_classes
        )
        if not intercepted:
            name = interface or stub_cls.__name__
            finding = Finding(
                code="IDL003",
                message=(
                    f"FT proxy {proxy_cls.__name__} does not intercept "
                    f"{name}.{method}; the call would bypass recovery "
                    "and checkpointing"
                ),
                path=source.relpath if source else "<runtime>",
                line=line,
                severity=Severity.ERROR,
                checker=produced.name,
                context=name,
            )
            findings.append(finding)
    return findings


# -- AST helpers -------------------------------------------------------------------


def _base_names(node: pyast.ClassDef) -> list[str]:
    names: list[str] = []
    for base in node.bases:
        if isinstance(base, pyast.Name):
            names.append(base.id)
        elif isinstance(base, pyast.Attribute):
            names.append(base.attr)
    return names


def _servant_interface(
    node: pyast.ClassDef, registry: dict[str, IdlInterface]
) -> Optional[IdlInterface]:
    for base in _base_names(node):
        if base.endswith("Skeleton"):
            iface = registry.get(base[: -len("Skeleton")])
            if iface is not None:
                return iface
    return None


def _proxy_interface(
    node: pyast.ClassDef, registry: dict[str, IdlInterface]
) -> Optional[IdlInterface]:
    bases = _base_names(node)
    stub_iface: Optional[IdlInterface] = None
    for base in bases:
        if base.endswith("Stub"):
            stub_iface = registry.get(base[: -len("Stub")])
    if stub_iface is None:
        return None
    looks_like_proxy = node.name.endswith("FtProxy") or any(
        "Proxy" in base for base in bases if not base.endswith("Stub")
    )
    return stub_iface if looks_like_proxy else None


def _class_index(project: Project) -> dict[str, list[pyast.ClassDef]]:
    index: dict[str, list[pyast.ClassDef]] = {}
    for source in project.files:
        if source.tree is None:
            continue
        for node in pyast.walk(source.tree):
            if isinstance(node, pyast.ClassDef):
                index.setdefault(node.name, []).append(node)
    return index


def _methods_with_inherited(
    node: pyast.ClassDef,
    class_index: dict[str, list[pyast.ClassDef]],
    stop_at_stub: bool = False,
    _seen: Optional[set[str]] = None,
) -> dict[str, pyast.FunctionDef]:
    """Methods of ``node`` plus statically-visible project base classes.

    ``stop_at_stub`` prevents the walk from descending into generated
    stub/skeleton bases (they provide *defaults*, not interceptions).
    """
    seen = _seen if _seen is not None else set()
    if node.name in seen:
        return {}
    seen.add(node.name)
    methods: dict[str, pyast.FunctionDef] = {}
    for base in _base_names(node):
        if stop_at_stub and (base.endswith("Stub") or base.endswith("Skeleton")):
            continue
        for base_node in class_index.get(base, []):
            for name, method in _methods_with_inherited(
                base_node, class_index, stop_at_stub, seen
            ).items():
                methods.setdefault(name, method)
    for child in node.body:
        if isinstance(child, (pyast.FunctionDef, pyast.AsyncFunctionDef)):
            methods[child.name] = child  # type: ignore[assignment]
    return methods


def _arity_mismatch(method: pyast.FunctionDef, nparams: int) -> str:
    """'' when the method accepts self + nparams positionals, else why not."""
    args = method.args
    if args.vararg is not None:
        return ""
    positional = len(args.posonlyargs) + len(args.args)
    required = positional - len(args.defaults)
    accepted_low = required
    accepted_high = positional
    want = nparams + 1  # + self
    if accepted_low <= want <= accepted_high:
        return ""
    declared = positional - 1
    return f"accepts {declared} parameter(s)"
