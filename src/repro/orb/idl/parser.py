"""Recursive-descent parser for the IDL subset."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import IdlSyntaxError
from repro.orb.idl import idlast as ast
from repro.orb.idl.lexer import Token, tokenize

_BASIC_SINGLE = frozenset(
    ("boolean", "octet", "short", "float", "double", "string", "any", "Object")
)


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers --------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _error(self, message: str, token: Optional[Token] = None) -> IdlSyntaxError:
        token = token or self._current
        return IdlSyntaxError(message, token.line, token.column)

    def _advance(self) -> Token:
        token = self._current
        if token.kind != "eof":
            self._pos += 1
        return token

    def _check(self, kind: str, value: Optional[str] = None) -> bool:
        token = self._current
        return token.kind == kind and (value is None or token.value == value)

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        if not self._check(kind, value):
            want = value if value is not None else kind
            got = self._current.value or self._current.kind
            raise self._error(f"expected {want!r}, got {got!r}")
        return self._advance()

    def _expect_ident(self) -> str:
        if not self._check("ident"):
            got = self._current.value or self._current.kind
            raise self._error(f"expected identifier, got {got!r}")
        return self._advance().value

    # -- grammar ----------------------------------------------------------------

    def parse_specification(self) -> ast.Specification:
        spec = ast.Specification()
        while not self._check("eof"):
            spec.body.append(self._parse_definition())
        return spec

    def _parse_definition(self):
        if self._check("keyword", "module"):
            return self._parse_module()
        if self._check("keyword", "interface"):
            return self._parse_interface()
        return self._parse_type_dcl()

    def _parse_type_dcl(self):
        if self._check("keyword", "struct"):
            return self._parse_struct()
        if self._check("keyword", "enum"):
            return self._parse_enum()
        if self._check("keyword", "typedef"):
            return self._parse_typedef()
        if self._check("keyword", "exception"):
            return self._parse_exception()
        got = self._current.value or self._current.kind
        raise self._error(f"expected a declaration, got {got!r}")

    def _parse_module(self) -> ast.ModuleDecl:
        self._expect("keyword", "module")
        name = self._expect_ident()
        self._expect("punct", "{")
        body = []
        while not self._check("punct", "}"):
            body.append(self._parse_definition())
        self._expect("punct", "}")
        self._expect("punct", ";")
        return ast.ModuleDecl(name, body)

    def _parse_interface(self) -> ast.InterfaceDecl:
        self._expect("keyword", "interface")
        name = self._expect_ident()
        if self._accept("punct", ";"):
            return ast.InterfaceDecl(name, forward=True)
        bases: list[ast.ScopedName] = []
        if self._accept("punct", ":"):
            bases.append(self._parse_scoped_name())
            while self._accept("punct", ","):
                bases.append(self._parse_scoped_name())
        self._expect("punct", "{")
        body: list[object] = []
        while not self._check("punct", "}"):
            body.append(self._parse_export())
        self._expect("punct", "}")
        self._expect("punct", ";")
        return ast.InterfaceDecl(name, bases, body)

    def _parse_export(self):
        if self._check("keyword", "struct") or self._check("keyword", "enum") \
                or self._check("keyword", "typedef") \
                or self._check("keyword", "exception"):
            return self._parse_type_dcl()
        return self._parse_operation()

    def _parse_operation(self) -> ast.OperationDecl:
        oneway = self._accept("keyword", "oneway") is not None
        if self._check("keyword", "void"):
            self._advance()
            returns: ast.TypeRef = ast.BasicType("void")
        else:
            returns = self._parse_type()
        name = self._expect_ident()
        self._expect("punct", "(")
        params: list[ast.ParamDecl] = []
        if not self._check("punct", ")"):
            params.append(self._parse_param())
            while self._accept("punct", ","):
                params.append(self._parse_param())
        self._expect("punct", ")")
        raises: list[ast.ScopedName] = []
        if self._accept("keyword", "raises"):
            self._expect("punct", "(")
            raises.append(self._parse_scoped_name())
            while self._accept("punct", ","):
                raises.append(self._parse_scoped_name())
            self._expect("punct", ")")
        self._expect("punct", ";")
        if oneway and (returns != ast.BasicType("void") or raises):
            raise self._error(
                f"oneway operation {name!r} must return void and raise nothing"
            )
        return ast.OperationDecl(name, returns, params, raises, oneway)

    def _parse_param(self) -> ast.ParamDecl:
        direction_token = self._current
        direction = None
        for candidate in ("in", "out", "inout"):
            if self._accept("keyword", candidate):
                direction = candidate
                break
        if direction is None:
            got = direction_token.value or direction_token.kind
            raise self._error(f"expected parameter direction, got {got!r}")
        type_ref = self._parse_type()
        name = self._expect_ident()
        return ast.ParamDecl(direction, type_ref, name)

    def _parse_struct(self) -> ast.StructDecl:
        self._expect("keyword", "struct")
        name = self._expect_ident()
        self._expect("punct", "{")
        members = self._parse_members()
        self._expect("punct", "}")
        self._expect("punct", ";")
        return ast.StructDecl(name, members)

    def _parse_exception(self) -> ast.ExceptionDecl:
        self._expect("keyword", "exception")
        name = self._expect_ident()
        self._expect("punct", "{")
        members = self._parse_members()
        self._expect("punct", "}")
        self._expect("punct", ";")
        return ast.ExceptionDecl(name, members)

    def _parse_members(self) -> list[Tuple[ast.TypeRef, str]]:
        members: list[Tuple[ast.TypeRef, str]] = []
        while not self._check("punct", "}"):
            type_ref = self._parse_type()
            while True:
                members.append((type_ref, self._expect_ident()))
                if not self._accept("punct", ","):
                    break
            self._expect("punct", ";")
        return members

    def _parse_enum(self) -> ast.EnumDecl:
        self._expect("keyword", "enum")
        name = self._expect_ident()
        self._expect("punct", "{")
        members = [self._expect_ident()]
        while self._accept("punct", ","):
            members.append(self._expect_ident())
        self._expect("punct", "}")
        self._expect("punct", ";")
        return ast.EnumDecl(name, members)

    def _parse_typedef(self) -> ast.TypedefDecl:
        self._expect("keyword", "typedef")
        type_ref = self._parse_type()
        name = self._expect_ident()
        self._expect("punct", ";")
        return ast.TypedefDecl(type_ref, name)

    # -- types -----------------------------------------------------------------

    def _parse_type(self) -> ast.TypeRef:
        token = self._current
        if token.kind == "keyword":
            if token.value == "sequence":
                self._advance()
                self._expect("punct", "<")
                element = self._parse_type()
                self._expect("punct", ">")
                return ast.SequenceType(element)
            if token.value == "unsigned":
                self._advance()
                if self._accept("keyword", "short"):
                    return ast.BasicType("unsigned short")
                self._expect("keyword", "long")
                if self._accept("keyword", "long"):
                    return ast.BasicType("unsigned long long")
                return ast.BasicType("unsigned long")
            if token.value == "long":
                self._advance()
                if self._accept("keyword", "long"):
                    return ast.BasicType("long long")
                return ast.BasicType("long")
            if token.value in _BASIC_SINGLE:
                self._advance()
                return ast.BasicType(token.value)
            if token.value == "void":
                raise self._error("void is only valid as an operation return type")
            raise self._error(f"unsupported type keyword {token.value!r}")
        if token.kind == "ident" or (token.kind == "punct" and token.value == "::"):
            return self._parse_scoped_name()
        raise self._error(f"expected a type, got {token.value or token.kind!r}")

    def _parse_scoped_name(self) -> ast.ScopedName:
        absolute = self._accept("punct", "::") is not None
        parts = [self._expect_ident()]
        while self._accept("punct", "::"):
            parts.append(self._expect_ident())
        return ast.ScopedName(tuple(parts), absolute)


def parse_idl(source: str) -> ast.Specification:
    """Parse IDL source into a :class:`~repro.orb.idl.idlast.Specification`."""
    return _Parser(tokenize(source)).parse_specification()
