"""The error every JSON document reader raises, and the decoding and object checks they share."""

from __future__ import annotations

import json
from typing import AbstractSet, Any

# Deeply nested arrays or objects make the decoder recurse past the limit;
# an integer past Python's digit limit raises a plain ValueError, of which
# JSONDecodeError is a subclass.
JSON_ERRORS = (ValueError, RecursionError)


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


def parse_json(text: str) -> Any:
    """The JSON document `text` holds; SchemaError "not valid JSON" at the root when it holds none."""
    try:
        return json.loads(text)
    except JSON_ERRORS as err:
        raise SchemaError("", f"not valid JSON: {err}") from err
