"""Property-based tests of the IDL → codegen → CDR pipeline.

Hypothesis generates random struct/interface definitions; the property is
that values of the generated classes survive a full marshal/unmarshal
round trip through the generated TypeCodes, and that generated stubs and
skeletons stay structurally consistent.
"""

import keyword
import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orb import typecodes as tc
from repro.orb.cdr import CdrInputStream, CdrOutputStream
from repro.orb.idl import compile_idl

# -- strategies --------------------------------------------------------------

_FIELD_TYPES = {
    "boolean": st.booleans(),
    "short": st.integers(min_value=-(2**15), max_value=2**15 - 1),
    "long": st.integers(min_value=-(2**31), max_value=2**31 - 1),
    "long long": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "unsigned long": st.integers(min_value=0, max_value=2**32 - 1),
    "double": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(
        alphabet=string.ascii_letters + string.digits + " _", max_size=20
    ),
    "sequence<double>": st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=8
    ),
    "sequence<string>": st.lists(st.text(max_size=6), max_size=5),
}

from repro.orb.idl.lexer import KEYWORDS

_IDL_KEYWORDS_LOWER = {kw.lower() for kw in KEYWORDS}

_identifier = st.text(
    alphabet=string.ascii_lowercase, min_size=1, max_size=8
).filter(
    lambda s: not keyword.iskeyword(s) and s not in _IDL_KEYWORDS_LOWER
)

_fields = st.dictionaries(
    _identifier, st.sampled_from(sorted(_FIELD_TYPES)), min_size=1, max_size=6
)


@settings(max_examples=40, deadline=None)
@given(fields=_fields, data=st.data())
def test_generated_struct_roundtrips_through_cdr(fields, data):
    members = "\n".join(
        f"        {idl_type} {name};" for name, idl_type in fields.items()
    )
    ns = compile_idl(f"struct Gen {{\n{members}\n    }};", name="prop-struct")
    values = {
        name: data.draw(_FIELD_TYPES[idl_type], label=name)
        for name, idl_type in fields.items()
    }
    instance = ns.Gen(**values)

    out = CdrOutputStream()
    out.write_value(ns.Gen.__tc__, instance)
    decoded = CdrInputStream(out.getvalue()).read_value(ns.Gen.__tc__)

    assert isinstance(decoded, ns.Gen)
    for name, idl_type in fields.items():
        got, want = getattr(decoded, name), values[name]
        if idl_type == "sequence<double>":
            np.testing.assert_array_equal(got, np.asarray(want))
        else:
            assert got == want


@settings(max_examples=30, deadline=None)
@given(
    op_names=st.lists(_identifier, min_size=1, max_size=5, unique=True),
    oneway_mask=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_generated_interface_structure(op_names, oneway_mask):
    body = "\n".join(
        (
            f"        oneway void {name}(in long x);"
            if oneway
            else f"        double {name}(in double x);"
        )
        for name, oneway in zip(op_names, oneway_mask)
    )
    ns = compile_idl(f"interface Gen {{\n{body}\n    }};", name="prop-iface")
    stub_cls, skel_cls = ns.GenStub, ns.GenSkeleton
    assert set(stub_cls.__operations__) == set(op_names)
    assert stub_cls.__operations__ is skel_cls.__operations__
    for name, oneway in zip(op_names, oneway_mask):
        info = stub_cls.__operations__[name]
        assert info.oneway == oneway
        assert callable(getattr(stub_cls, name))
        assert callable(getattr(skel_cls, name))
        # Generated result typecodes match the declaration.
        assert info.result is (tc.TC_VOID if oneway else tc.TC_DOUBLE)


@settings(max_examples=30, deadline=None)
@given(members=st.lists(_identifier, min_size=1, max_size=6, unique=True))
def test_generated_enum_roundtrips(members):
    ns = compile_idl(
        f"enum GenEnum {{ {', '.join(m.upper() for m in members)} }};",
        name="prop-enum",
    )
    for index in range(len(members)):
        value = ns.GenEnum(index)
        out = CdrOutputStream()
        out.write_value(ns.GenEnum.__tc__, value)
        decoded = CdrInputStream(out.getvalue()).read_value(ns.GenEnum.__tc__)
        assert decoded is value


@settings(max_examples=25, deadline=None)
@given(
    why=st.text(max_size=30),
    code=st.integers(min_value=-(2**31), max_value=2**31 - 1),
)
def test_generated_exception_carries_fields(why, code):
    ns = compile_idl(
        "exception GenExc { string why; long code; };", name="prop-exc"
    )
    exc = ns.GenExc(why=why, code=code)
    assert exc.why == why
    assert exc.code == code
    assert exc.fields == {"why": why, "code": code}
