"""Names and name components (CosNaming's ``Name`` type).

A name is a sequence of ``(id, kind)`` components.  The string form follows
the CORBA Interoperable Naming Service convention: components separated by
``/``, id and kind separated by ``.`` (no escape sequences — ids and kinds
here may not contain ``/`` or ``.``)."""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.errors import NamingError


class NameComponent:
    """One ``(id, kind)`` pair. Equality and hashing by value."""

    __slots__ = ("id", "kind")

    def __init__(self, id: str = "", kind: str = "") -> None:
        self.id = id
        self.kind = kind

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NameComponent)
            and self.id == other.id
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return hash((self.id, self.kind))

    def __repr__(self) -> str:
        return f"NameComponent({self.id!r}, {self.kind!r})"


Name = List[NameComponent]
NameLike = Union[str, Sequence[NameComponent]]


def to_name(value: NameLike) -> Name:
    """Coerce a string or component sequence to a Name."""
    if isinstance(value, str):
        return name_from_string(value)
    name = list(value)
    if not name or not all(isinstance(c, NameComponent) for c in name):
        raise NamingError(f"invalid name {value!r}")
    return name


def name_from_string(text: str) -> Name:
    """Parse ``"a/b.kind/c"`` into components."""
    if not text:
        raise NamingError("empty name string")
    components: Name = []
    for chunk in text.split("/"):
        if not chunk:
            raise NamingError(f"empty component in name {text!r}")
        if "." in chunk:
            id_part, _, kind_part = chunk.partition(".")
        else:
            id_part, kind_part = chunk, ""
        if not id_part:
            raise NamingError(f"component with empty id in {text!r}")
        components.append(NameComponent(id_part, kind_part))
    return components

