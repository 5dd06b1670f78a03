"""Tests for the IDL compiler: lexer, parser, codegen."""

import os
import subprocess
import sys

import pytest

from repro.errors import IdlSemanticError, IdlSyntaxError
from repro.orb import typecodes as tc
from repro.orb.idl import compile_idl, generate_source, parse_idl
from repro.orb.idl.lexer import tokenize
from repro.orb.idl import idlast as ast


# -- lexer --------------------------------------------------------------------


def test_tokenize_basic():
    tokens = tokenize("interface Foo { void op(); };")
    kinds = [t.kind for t in tokens]
    values = [t.value for t in tokens]
    assert values[:2] == ["interface", "Foo"]
    assert kinds[0] == "keyword" and kinds[1] == "ident"
    assert kinds[-1] == "eof"


def test_tokenize_comments_and_preprocessor():
    source = """
    // line comment
    #include "other.idl"
    /* block
       comment */
    interface X {};
    """
    tokens = tokenize(source)
    assert [t.value for t in tokens[:2]] == ["interface", "X"]


def test_tokenize_scoped_name_operator():
    tokens = tokenize("A::B")
    assert [t.value for t in tokens[:-1]] == ["A", "::", "B"]


def test_tokenize_error_position():
    with pytest.raises(IdlSyntaxError) as excinfo:
        tokenize("interface X {\n  @bad\n};")
    assert excinfo.value.line == 2


# -- parser --------------------------------------------------------------------


def test_parse_module_nesting():
    spec = parse_idl("module A { module B { struct S { long x; }; }; };")
    module_a = spec.body[0]
    assert isinstance(module_a, ast.ModuleDecl)
    module_b = module_a.body[0]
    assert isinstance(module_b, ast.ModuleDecl)
    assert isinstance(module_b.body[0], ast.StructDecl)


def test_parse_interface_inheritance():
    spec = parse_idl("""
        interface A {};
        interface B {};
        interface C : A, B { void op(); };
    """)
    iface_c = spec.body[2]
    assert [str(b) for b in iface_c.bases] == ["A", "B"]


def test_parse_operation_full():
    spec = parse_idl("""
        exception E { string why; };
        interface I {
            double op(in double a, in sequence<long> xs) raises (E);
        };
    """)
    op = spec.body[1].body[0]
    assert op.name == "op"
    assert op.params[0].direction == "in"
    assert isinstance(op.params[1].type, ast.SequenceType)
    assert [str(r) for r in op.raises] == ["E"]


def test_parse_unsigned_and_longlong_types():
    spec = parse_idl("""
        struct S {
            unsigned short a;
            unsigned long b;
            unsigned long long c;
            long long d;
        };
    """)
    names = [member[0].name for member in spec.body[0].members]
    assert names == [
        "unsigned short",
        "unsigned long",
        "unsigned long long",
        "long long",
    ]


def test_parse_oneway_constraints():
    with pytest.raises(IdlSyntaxError):
        parse_idl("interface I { oneway long bad(); };")


def test_parse_syntax_errors():
    with pytest.raises(IdlSyntaxError):
        parse_idl("interface {};")
    with pytest.raises(IdlSyntaxError):
        parse_idl("interface I { void op() }")  # missing semicolons
    with pytest.raises(IdlSyntaxError):
        parse_idl("struct S { void x; };")  # void not a member type
    # declarations no service's IDL uses are outside the subset
    for source in (
        "union U switch (long) { case 1: long a; };",
        "const long N = 42;",
        "interface I { readonly attribute long a; };",
        "struct S { double m[4]; };",
    ):
        with pytest.raises(IdlSyntaxError):
            parse_idl(source)


# -- codegen -------------------------------------------------------------------


def test_generated_source_is_readable_python():
    source = generate_source("interface Adder { double add(in double a, in double b); };")
    assert "class AdderStub" in source
    assert "class AdderSkeleton" in source
    compile(source, "<test>", "exec")  # must be valid Python


def test_compile_idl_save_to_writes_source(tmp_path):
    out = tmp_path / "stubs.py"
    ns = compile_idl("interface Saver { void op(); };", save_to=out)
    source = out.read_text()
    assert "class SaverStub" in source
    assert source == ns.__source__
    compile(source, str(out), "exec")


def test_compiled_namespace_contents():
    ns = compile_idl("""
        module demo {
            struct P { double x; };
            enum E { A, B };
            exception Bad { string why; };
            interface I { void op(); };
        };
    """)
    assert ns.P(1.5).x == 1.5
    assert ns.E.B == 1
    assert ns.Bad(why="w").why == "w"
    assert hasattr(ns, "IStub") and hasattr(ns, "ISkeleton")


def test_struct_equality_and_repr():
    ns = compile_idl("struct Q { long a; string b; };")
    assert ns.Q(1, "x") == ns.Q(1, "x")
    assert ns.Q(1, "x") != ns.Q(2, "x")
    assert "Q(a=1" in repr(ns.Q(1, "x"))


def test_repo_ids_include_module_path():
    ns = compile_idl("module a { module b { interface C {}; }; };")
    assert ns.CStub.__repo_id__ == "IDL:a/b/C:1.0"


def test_interface_inheritance_merges_operations():
    ns = compile_idl("""
        interface Base { void base_op(); };
        interface Derived : Base { void derived_op(); };
    """)
    assert set(ns.DerivedStub.__operations__) == {"base_op", "derived_op"}
    assert issubclass(ns.DerivedStub, ns.BaseStub)
    assert issubclass(ns.DerivedSkeleton, ns.BaseSkeleton)


def test_typedef_resolves_to_underlying_type():
    ns = compile_idl("""
        typedef sequence<double> Vec;
        interface I { Vec get(in Vec v); };
    """)
    info = ns.IStub.__operations__["get"]
    assert info.result == tc.sequence(tc.TC_DOUBLE)
    assert info.params[0][1] == tc.sequence(tc.TC_DOUBLE)


def test_interface_as_parameter_type_is_objref():
    ns = compile_idl("""
        interface Target {};
        interface Registry { void register(in Target t); };
    """)
    info = ns.RegistryStub.__operations__["register"]
    assert info.params[0][1].kind is tc.TCKind.OBJREF
    assert info.params[0][1].name == "IDL:Target:1.0"


def test_out_params_rejected():
    with pytest.raises(IdlSemanticError, match="out"):
        compile_idl("interface I { void op(out long x); };")


def test_unknown_type_rejected():
    with pytest.raises(IdlSemanticError, match="unknown name"):
        compile_idl("interface I { void op(in Missing x); };")


def test_raises_must_name_exception():
    with pytest.raises(IdlSemanticError, match="non-exception"):
        compile_idl("""
            struct S { long x; };
            interface I { void op() raises (S); };
        """)


def test_duplicate_declarations_rejected():
    with pytest.raises(IdlSemanticError, match="duplicate"):
        compile_idl("struct S { long x; }; struct S { long y; };")


def test_forward_declaration_resolves():
    ns = compile_idl("""
        interface Fwd;
        interface User { void take(in Fwd f); };
        interface Fwd { void op(); };
    """)
    assert hasattr(ns, "FwdStub")


def test_forward_never_defined_rejected():
    with pytest.raises(IdlSemanticError, match="never defined"):
        compile_idl("interface Fwd; interface User { void take(in Fwd f); };")


def test_python_keyword_identifiers_are_mangled():
    ns = compile_idl("interface I { void op(in long lambda); };")
    assert ns.IStub.__operations__["op"].params[0][0] == "lambda_"


def test_scoped_name_resolution_across_modules():
    ns = compile_idl("""
        module a { struct S { long x; }; };
        module b { interface I { a::S get(); }; };
    """)
    info = ns.IStub.__operations__["get"]
    assert info.result.name == "a::S"


def test_nested_types_inside_interface():
    ns = compile_idl("""
        interface I {
            struct Inner { long v; };
            Inner get();
        };
    """)
    assert ns.Inner(5).v == 5


# -- command line -------------------------------------------------------------


def test_idl_cli_smoke(tmp_path):
    idl_file = tmp_path / "cli.idl"
    idl_file.write_text(
        "struct CliPoint { double x; double y; };\n"
        "interface CliEcho { CliPoint echo(in CliPoint p); };\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro.orb.idl", *args],
            capture_output=True, text=True, env=env,
        )

    printed = run(str(idl_file))
    assert printed.returncode == 0
    assert "class CliPoint:" in printed.stdout
    assert "class CliEchoStub" in printed.stdout
    assert printed.stdout == generate_source(idl_file.read_text())

    out_file = tmp_path / "cli_idl.py"
    written = run(str(idl_file), "-o", str(out_file))
    assert written.returncode == 0 and written.stdout == ""
    assert out_file.read_text() == printed.stdout

    missing = run(str(tmp_path / "nope.idl"))
    assert missing.returncode == 2
    assert "cannot read" in missing.stderr
