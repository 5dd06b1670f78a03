"""An OMG IDL compiler (subset) producing Python stubs and skeletons.

The paper's system is defined by IDL interfaces compiled to stub/skeleton
code; its fault-tolerance discussion even weighs "extending the client side
stub code generated by the IDL compiler" as a design alternative.  This
package is that compiler for our ORB:

* :mod:`repro.orb.idl.lexer` — tokenizer with comment/preprocessor handling;
* :mod:`repro.orb.idl.idlast` — the abstract syntax tree;
* :mod:`repro.orb.idl.parser` — recursive-descent parser;
* :mod:`repro.orb.idl.codegen` — generates Python source defining struct /
  enum / exception classes, typed stubs and servant skeletons, then
  executes it into an importable namespace.

Supported IDL: modules, interfaces (with multiple inheritance), operations
(``in`` parameters, ``raises``, ``oneway``), structs, enums, typedefs,
``sequence<T>``, exceptions, basic types, ``string``, ``any``, ``Object``:
what the paper's services declare.  Everything else is rejected with a
syntax or semantic error: attributes, unions, arrays, ``const``, ``out`` /
``inout`` parameters, fixed-point and wide types.

Usage::

    ns = compile_idl('''
        interface Adder {
            double add(in double a, in double b);
        };
    ''')
    stub_cls, skel_cls = ns.AdderStub, ns.AdderSkeleton
"""

from repro.orb.idl.parser import parse_idl
from repro.orb.idl.codegen import compile_idl, generate_source

__all__ = ["compile_idl", "generate_source", "parse_idl"]
