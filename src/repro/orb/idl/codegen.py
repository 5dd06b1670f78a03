"""Python code generation from the IDL AST.

For every IDL construct the generator emits real Python source — struct and
enum classes, :class:`~repro.errors.UserException` subclasses, typed stub
classes derived from :class:`~repro.orb.stubs.ObjectStub` and servant
skeletons derived from :class:`~repro.orb.core.Servant` — then executes it
into a namespace.  :func:`generate_source` exposes the source itself, which
is handy for inspecting what "the IDL compiler" produced, exactly as one
would read omniidl's output.
"""

from __future__ import annotations

import keyword
from dataclasses import dataclass
from types import SimpleNamespace

from repro.errors import IdlSemanticError
from repro.orb.idl import idlast as ast
from repro.orb.idl.parser import parse_idl

_PRELUDE = '''\
# Generated by repro.orb.idl — do not edit.
import enum as _enum

from repro.orb import typecodes as _tc
from repro.orb.cdr import (
    register_struct_class as _reg_struct,
    register_enum_class as _reg_enum,
)
from repro.orb.stubs import (
    ObjectStub as _ObjectStub,
    OpInfo as _OpInfo,
    register_interface as _reg_iface,
    register_user_exception as _reg_exc,
)
from repro.orb.core import Servant as _Servant
from repro.errors import UserException as _UserException, NO_IMPLEMENT as _NO_IMPLEMENT
'''

_BASIC_TC = {
    "boolean": "_tc.TC_BOOLEAN",
    "octet": "_tc.TC_OCTET",
    "short": "_tc.TC_SHORT",
    "unsigned short": "_tc.TC_USHORT",
    "long": "_tc.TC_LONG",
    "unsigned long": "_tc.TC_ULONG",
    "long long": "_tc.TC_LONGLONG",
    "unsigned long long": "_tc.TC_ULONGLONG",
    "float": "_tc.TC_FLOAT",
    "double": "_tc.TC_DOUBLE",
    "string": "_tc.TC_STRING",
    "any": "_tc.TC_ANY",
    "Object": "_tc.TC_OBJREF",
    "void": "_tc.TC_VOID",
}


@dataclass
class _Symbol:
    kind: str  # struct|enum|enum-member|typedef|exception|interface
    fq: tuple[str, ...]
    pyname: str
    tc_expr: str = ""
    repo_id: str = ""
    forward: bool = False


def _safe(name: str) -> str:
    return name + "_" if keyword.iskeyword(name) else name


class _CodeGenerator:
    def __init__(self) -> None:
        self._symbols: dict[tuple[str, ...], _Symbol] = {}
        self._taken_pynames: set[str] = set()
        self._scope: list[str] = []
        self._lines: list[str] = [_PRELUDE]
        self._exports: list[str] = []

    # -- name handling -----------------------------------------------------------

    def _fq(self, name: str) -> tuple[str, ...]:
        return tuple(self._scope) + (name,)

    def _repo_id(self, fq: tuple[str, ...]) -> str:
        return "IDL:" + "/".join(fq) + ":1.0"

    def _pyname(self, fq: tuple[str, ...]) -> str:
        candidate = _safe(fq[-1])
        if candidate in self._taken_pynames:
            candidate = "_".join(_safe(p) for p in fq)
        if candidate in self._taken_pynames:
            raise IdlSemanticError(f"duplicate declaration of {'::'.join(fq)}")
        self._taken_pynames.add(candidate)
        return candidate

    def _declare(self, symbol: _Symbol) -> None:
        existing = self._symbols.get(symbol.fq)
        if existing is not None and not existing.forward:
            raise IdlSemanticError(
                f"duplicate declaration of {'::'.join(symbol.fq)}"
            )
        self._symbols[symbol.fq] = symbol

    def _resolve(self, scoped: ast.ScopedName) -> _Symbol:
        if scoped.absolute:
            symbol = self._symbols.get(scoped.parts)
            if symbol is not None:
                return symbol
        else:
            for depth in range(len(self._scope), -1, -1):
                key = tuple(self._scope[:depth]) + scoped.parts
                symbol = self._symbols.get(key)
                if symbol is not None:
                    return symbol
        raise IdlSemanticError(f"unknown name {scoped}")

    # -- type mapping ---------------------------------------------------------------

    def _tc_expr(self, type_ref: ast.TypeRef) -> str:
        if isinstance(type_ref, ast.BasicType):
            try:
                return _BASIC_TC[type_ref.name]
            except KeyError:
                raise IdlSemanticError(
                    f"unsupported basic type {type_ref.name!r}"
                ) from None
        if isinstance(type_ref, ast.SequenceType):
            return f"_tc.sequence({self._tc_expr(type_ref.element)})"
        assert isinstance(type_ref, ast.ScopedName)
        symbol = self._resolve(type_ref)
        if symbol.kind == "interface":
            return f"_tc.objref({symbol.repo_id!r})"
        if symbol.kind == "enum-member":
            raise IdlSemanticError(f"{type_ref} is a constant, not a type")
        if symbol.kind == "exception":
            raise IdlSemanticError(
                f"{type_ref} is an exception; exceptions are not value types"
            )
        return symbol.tc_expr

    # -- emission helpers --------------------------------------------------------------

    def _emit(self, text: str = "") -> None:
        self._lines.append(text)

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"

    # -- walking ------------------------------------------------------------------------

    def generate(self, spec: ast.Specification) -> str:
        for declaration in spec.body:
            self._visit(declaration)
        unresolved = [
            "::".join(s.fq) for s in self._symbols.values() if s.forward
        ]
        if unresolved:
            raise IdlSemanticError(
                f"forward-declared interfaces never defined: {', '.join(unresolved)}"
            )
        self._emit()
        self._emit(f"__all__ = {sorted(self._exports)!r}")
        return self.render()

    def _visit(self, node: object) -> None:
        if isinstance(node, ast.ModuleDecl):
            self._scope.append(node.name)
            try:
                for child in node.body:
                    self._visit(child)
            finally:
                self._scope.pop()
        elif isinstance(node, ast.StructDecl):
            self._visit_struct(node)
        elif isinstance(node, ast.EnumDecl):
            self._visit_enum(node)
        elif isinstance(node, ast.TypedefDecl):
            self._visit_typedef(node)
        elif isinstance(node, ast.ExceptionDecl):
            self._visit_exception(node)
        elif isinstance(node, ast.InterfaceDecl):
            self._visit_interface(node)
        else:
            raise IdlSemanticError(f"unexpected declaration {node!r}")

    # -- structs -----------------------------------------------------------------------

    def _visit_struct(self, node: ast.StructDecl) -> None:
        fq = self._fq(node.name)
        pyname = self._pyname(fq)
        tc_name = "::".join(fq)
        field_names = [_safe(name) for _, name in node.members]
        if len(set(field_names)) != len(field_names):
            raise IdlSemanticError(f"duplicate field name in struct {tc_name}")
        field_exprs = ", ".join(
            f"({_safe(name)!r}, {self._tc_expr(type_ref)})"
            for type_ref, name in node.members
        )
        tc_var = f"_TC_{pyname}"
        self._emit()
        self._emit(f"{tc_var} = _tc.struct({tc_name!r}, ({field_exprs}{',' if node.members else ''}))")
        self._emit()
        self._emit(f"class {pyname}:")
        self._emit(f'    """IDL struct ``{tc_name}``."""')
        self._emit(f"    __slots__ = {tuple(field_names)!r}")
        self._emit(f"    __tc__ = {tc_var}")
        self._emit(f"    __fields__ = {tuple(field_names)!r}")
        params = ", ".join(f"{name}=None" for name in field_names)
        self._emit(f"    def __init__(self{', ' + params if params else ''}):")
        if field_names:
            for name in field_names:
                self._emit(f"        self.{name} = {name}")
        else:
            self._emit("        pass")
        self._emit("    def __eq__(self, other):")
        self._emit(
            "        return isinstance(other, type(self)) and all("
        )
        self._emit(
            "            getattr(self, f) == getattr(other, f) for f in self.__fields__)"
        )
        self._emit("    def __repr__(self):")
        self._emit(
            "        body = ', '.join(f'{f}={getattr(self, f)!r}' for f in self.__fields__)"
        )
        self._emit(f"        return f'{pyname}({{body}})'")
        self._emit(f"_reg_struct({tc_name!r}, {pyname})")
        self._declare(_Symbol("struct", fq, pyname, tc_expr=tc_var))
        self._exports.append(pyname)

    # -- enums ---------------------------------------------------------------------------

    def _visit_enum(self, node: ast.EnumDecl) -> None:
        fq = self._fq(node.name)
        pyname = self._pyname(fq)
        tc_name = "::".join(fq)
        if len(set(node.members)) != len(node.members):
            raise IdlSemanticError(f"duplicate member in enum {tc_name}")
        tc_var = f"_TC_{pyname}"
        members_expr = ", ".join(repr(m) for m in node.members)
        self._emit()
        self._emit(f"{tc_var} = _tc.enum_tc({tc_name!r}, ({members_expr},))")
        self._emit()
        self._emit(f"class {pyname}(_enum.IntEnum):")
        self._emit(f'    """IDL enum ``{tc_name}``."""')
        for index, member in enumerate(node.members):
            self._emit(f"    {_safe(member)} = {index}")
        self._emit(f"{pyname}.__tc__ = {tc_var}")
        self._emit(f"_reg_enum({tc_name!r}, {pyname})")
        self._declare(_Symbol("enum", fq, pyname, tc_expr=tc_var))
        # IDL enum members live in the *enclosing* scope.
        for member in node.members:
            self._declare(
                _Symbol("enum-member", self._fq(member), f"{pyname}.{_safe(member)}")
            )
        self._exports.append(pyname)

    # -- typedefs -------------------------------------------------------------------------

    def _visit_typedef(self, node: ast.TypedefDecl) -> None:
        fq = self._fq(node.name)
        pyname = self._pyname(fq)
        tc_var = f"_TC_{pyname}"
        self._emit()
        self._emit(f"{tc_var} = {self._tc_expr(node.type)}  # typedef {'::'.join(fq)}")
        self._declare(_Symbol("typedef", fq, pyname, tc_expr=tc_var))

    # -- exceptions ------------------------------------------------------------------------

    def _visit_exception(self, node: ast.ExceptionDecl) -> None:
        fq = self._fq(node.name)
        pyname = self._pyname(fq)
        tc_name = "::".join(fq)
        repo_id = self._repo_id(fq)
        field_names = [_safe(name) for _, name in node.members]
        field_exprs = ", ".join(
            f"({_safe(name)!r}, {self._tc_expr(type_ref)})"
            for type_ref, name in node.members
        )
        tc_var = f"_TC_{pyname}"
        self._emit()
        self._emit(
            f"{tc_var} = _tc.exception({tc_name!r}, ({field_exprs}{',' if node.members else ''}))"
        )
        self._emit()
        self._emit(f"class {pyname}(_UserException):")
        self._emit(f'    """IDL exception ``{tc_name}``."""')
        self._emit(f"    __repo_id__ = {repo_id!r}")
        self._emit(f"    __fields__ = {tuple(field_names)!r}")
        self._emit(f"    __tc__ = {tc_var}")
        self._emit(f"_reg_exc({repo_id!r}, {pyname})")
        self._emit(f"_reg_struct({tc_name!r}, {pyname})")
        self._declare(
            _Symbol("exception", fq, pyname, tc_expr=tc_var, repo_id=repo_id)
        )
        self._exports.append(pyname)

    # -- interfaces ----------------------------------------------------------------------------

    def _visit_interface(self, node: ast.InterfaceDecl) -> None:
        fq = self._fq(node.name)
        if node.forward:
            if fq not in self._symbols:
                pyname = self._pyname(fq)
                self._declare(
                    _Symbol(
                        "interface",
                        fq,
                        pyname,
                        repo_id=self._repo_id(fq),
                        forward=True,
                    )
                )
            return
        existing = self._symbols.get(fq)
        if existing is not None and not existing.forward:
            raise IdlSemanticError(f"duplicate declaration of {'::'.join(fq)}")
        if existing is not None:
            pyname = existing.pyname
            existing.forward = False  # the body may reference the interface
        else:
            pyname = self._pyname(fq)
        repo_id = self._repo_id(fq)
        if existing is None:
            # Declare up front so operations may use the interface type
            # recursively (e.g. NamingContext::bind_new_context).
            self._declare(_Symbol("interface", fq, pyname, repo_id=repo_id))

        base_symbols: list[_Symbol] = []
        for base in node.bases:
            symbol = self._resolve(base)
            if symbol.kind != "interface" or symbol.forward:
                raise IdlSemanticError(
                    f"interface {node.name} inherits from non-interface {base}"
                )
            base_symbols.append(symbol)

        # Nested type declarations first (they may be used by operations).
        operations: list[ast.OperationDecl] = []
        self._scope.append(node.name)
        try:
            for child in node.body:
                if isinstance(child, ast.OperationDecl):
                    operations.append(child)
                else:
                    self._visit(child)
            op_entries, method_sources = self._build_operations(
                node.name, operations
            )
        finally:
            self._scope.pop()

        ops_var = f"_OPS_{pyname}"
        self._emit()
        base_merges = "".join(f"**_OPS_{b.pyname}, " for b in base_symbols)
        self._emit(f"{ops_var} = {{{base_merges}")
        for entry in op_entries:
            self._emit(f"    {entry}")
        self._emit("}")

        stub_bases = ", ".join(f"{b.pyname}Stub" for b in base_symbols) or "_ObjectStub"
        skel_bases = ", ".join(f"{b.pyname}Skeleton" for b in base_symbols) or "_Servant"

        self._emit()
        self._emit(f"class {pyname}Stub({stub_bases}):")
        self._emit(f'    """Client stub for IDL interface ``{"::".join(fq)}``."""')
        self._emit(f"    __repo_id__ = {repo_id!r}")
        self._emit(f"    __operations__ = {ops_var}")
        for source in method_sources["stub"]:
            self._emit(source)
        self._emit()
        self._emit(f"class {pyname}Skeleton({skel_bases}):")
        self._emit(f'    """Servant skeleton for IDL interface ``{"::".join(fq)}``."""')
        self._emit(f"    __repo_id__ = {repo_id!r}")
        self._emit(f"    __operations__ = {ops_var}")
        for source in method_sources["skel"]:
            self._emit(source)
        base_ids = tuple(b.repo_id for b in base_symbols)
        self._emit(f"_reg_iface({repo_id!r}, {base_ids!r})")
        self._exports.extend([f"{pyname}Stub", f"{pyname}Skeleton"])

    def _build_operations(
        self,
        interface_name: str,
        operations: list[ast.OperationDecl],
    ) -> tuple[list[str], dict[str, list[str]]]:
        entries: list[str] = []
        methods: dict[str, list[str]] = {"stub": [], "skel": []}
        seen: set[str] = set()

        def add_op(
            op_name: str,
            params: list[tuple[str, str]],  # (pyname, tc_expr)
            result_expr: str,
            raises_ids: tuple[str, ...],
            oneway: bool,
        ) -> None:
            if op_name in seen:
                raise IdlSemanticError(
                    f"duplicate operation {op_name!r} in interface {interface_name}"
                )
            seen.add(op_name)
            params_expr = ", ".join(f"({n!r}, {t})" for n, t in params)
            trailing = "," if params else ""
            entries.append(
                f"{op_name!r}: _OpInfo({op_name!r}, ({params_expr}{trailing}), "
                f"{result_expr}, {raises_ids!r}, {oneway!r}),"
            )

        for op in operations:
            params: list[tuple[str, str]] = []
            for param in op.params:
                if param.direction != "in":
                    raise IdlSemanticError(
                        f"{interface_name}.{op.name}: {param.direction!r} "
                        "parameters are not supported (use a struct return)"
                    )
                params.append((_safe(param.name), self._tc_expr(param.type)))
            raises_ids = tuple(
                self._require_exception(scoped).repo_id for scoped in op.raises
            )
            result_expr = self._tc_expr(op.returns)
            add_op(op.name, params, result_expr, raises_ids, op.oneway)
            arg_list = ", ".join(name for name, _ in params)
            signature = f"self{', ' + arg_list if arg_list else ''}"
            call_args = f"({arg_list},)" if arg_list else "()"
            methods["stub"].append(
                f"    def {_safe(op.name)}({signature}):\n"
                f"        return self._invoke({op.name!r}, {call_args})"
            )
            methods["skel"].append(
                f"    def {_safe(op.name)}({signature}):\n"
                f"        raise _NO_IMPLEMENT({interface_name + '.' + op.name!r})"
            )

        return entries, methods

    def _require_exception(self, scoped: ast.ScopedName) -> _Symbol:
        symbol = self._resolve(scoped)
        if symbol.kind != "exception":
            raise IdlSemanticError(f"raises clause names non-exception {scoped}")
        return symbol


class IdlNamespace(SimpleNamespace):
    """The result of compiling an IDL source: generated classes as
    attributes, plus ``__source__`` (the generated Python) and ``__ast__``."""


def generate_source(source: str) -> str:
    """Compile IDL to Python source text without executing it."""
    spec = parse_idl(source)
    return _CodeGenerator().generate(spec)


def compile_idl(source: str, name: str = "idl", save_to=None) -> IdlNamespace:
    """Compile IDL source and return the generated namespace.

    :param save_to: optional path; writes the generated Python stub source
        there (the ``omniidl -bpython`` workflow, for inspection or
        vendoring).
    """
    spec = parse_idl(source)
    python_source = _CodeGenerator().generate(spec)
    if save_to is not None:
        from pathlib import Path

        Path(save_to).write_text(python_source)
    namespace: dict[str, object] = {}
    exec(compile(python_source, f"<idl:{name}>", "exec"), namespace)
    result = IdlNamespace(
        **{
            key: value
            for key, value in namespace.items()
            if not key.startswith("_") and key != "__builtins__"
        }
    )
    result.__source__ = python_source
    result.__ast__ = spec
    return result
