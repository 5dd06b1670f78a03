"""Tests for Name/NameComponent utilities."""

import pytest

from repro.errors import NamingError
from repro.services.naming import NameComponent, name_from_string
from repro.services.naming.names import to_name


def test_simple_name_roundtrip():
    name = name_from_string("services/worker.obj")
    assert name == [NameComponent("services"), NameComponent("worker", "obj")]


def test_component_without_kind():
    assert name_from_string("plain") == [NameComponent("plain", "")]


def test_empty_strings_rejected():
    with pytest.raises(NamingError):
        name_from_string("")
    with pytest.raises(NamingError):
        name_from_string("a//b")
    with pytest.raises(NamingError):
        name_from_string(".kindonly")


def test_component_equality_and_hash():
    assert NameComponent("a", "k") == NameComponent("a", "k")
    assert NameComponent("a", "k") != NameComponent("a", "j")
    assert len({NameComponent("a", "k"), NameComponent("a", "k")}) == 1


def test_to_name_coercions():
    assert to_name("x/y") == [NameComponent("x"), NameComponent("y")]
    components = [NameComponent("q")]
    assert to_name(components) == components
    with pytest.raises(NamingError):
        to_name([])
    with pytest.raises(NamingError):
        to_name([object()])
