"""The error every JSON document reader raises, and the one object check they share."""

from __future__ import annotations

from typing import AbstractSet, Any


class SchemaError(Exception):
    """A document does not match its expected JSON shape.

    `pointer` is a JSON-pointer-style path ("/Premises/0/symbol") locating the
    offending value.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer or '/'}: {message}")


def check_object(doc: Any, pointer: str, keys: AbstractSet[str]) -> dict[str, Any]:
    """`doc` when it is an object whose keys are all in `keys`; else SchemaError "expected
    object" at `pointer`, or "unknown field" at `pointer`/<first unknown key in sorted order>."""
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected object")
    if not doc.keys() <= keys:
        raise SchemaError(f"{pointer}/{min(doc.keys() - keys)}", "unknown field")
    return doc
