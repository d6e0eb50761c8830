"""Dependency-free JSON-Schema-subset validator.

The repo cannot grow a ``jsonschema`` dependency, but the CI smoke job
and the tests still need to pin the ``repro why`` / ``repro diff``
JSON document shapes against checked-in schemas (``tests/schemas/``).
This module implements the subset those schemas use:

``type`` (including type lists), ``properties``, ``required``,
``additionalProperties`` (boolean or schema), ``items`` (single
schema), ``enum``, ``const``, ``minimum``/``maximum``,
``minItems``, ``patternProperties`` (match-all semantics).

Usage as a module (the CI job's entry point)::

    python -m repro.obs.attribution.schema SCHEMA.json < payload.json

exits 0 when the payload validates, 1 with the error paths otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Any, Callable, Dict, List, Tuple

#: JSON-Schema type name -> accepted Python types.
_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "null": (type(None),),
}


#: A compiled schema: ``check(instance, path, errors)`` appends one
#: message per problem found at or below ``path``.
Check = Callable[[Any, str, List[str]], None]


def _accepted(expected: Any) -> Tuple[Tuple[type, ...], bool]:
    """The Python types a ``type`` keyword accepts, and whether bool is
    one of them: bool is an int subclass in Python, not in JSON."""
    names = expected if isinstance(expected, list) else [expected]
    for name in names:
        if name not in _TYPES:
            raise ValueError(f"unknown schema type {name!r}")
    return (tuple(t for name in names for t in _TYPES[name]),
            "boolean" in names)


def compile_schema(schema: Dict[str, Any]) -> Check:
    """Compile ``schema`` once into a :data:`Check`.

    Every keyword is looked up and every subschema compiled here, so a
    check only runs the tests its schema asks for.  An unknown ``type``
    name is a ValueError here.
    """
    has_const, const = "const" in schema, schema.get("const")
    has_enum, enum = "enum" in schema, schema.get("enum")
    typed, expected = "type" in schema, schema.get("type")
    accepted, bool_ok = _accepted(expected) if typed else ((), True)
    minimum, maximum = schema.get("minimum"), schema.get("maximum")
    bounded = minimum is not None or maximum is not None
    properties = {key: compile_schema(sub) for key, sub
                  in schema.get("properties", {}).items()}
    required = tuple(schema.get("required", ()))
    patterns = [(re.compile(pattern), compile_schema(sub)) for pattern, sub
                in schema.get("patternProperties", {}).items()]
    extra = schema.get("additionalProperties", True)
    extra_check = compile_schema(extra) if isinstance(extra, dict) else None
    keyed = bool(properties or required or patterns) or extra is not True
    min_items = schema.get("minItems")
    items = schema.get("items")
    item_check = compile_schema(items) if isinstance(items, dict) else None
    listed = min_items is not None or item_check is not None

    def check(instance: Any, path: str, errors: List[str]) -> None:
        if has_const and instance != const:
            errors.append(f"{path}: expected const {const!r}, "
                          f"got {instance!r}")
            return
        if has_enum and instance not in enum:
            errors.append(f"{path}: {instance!r} not in enum {enum!r}")
            return
        if typed and not (isinstance(instance, accepted) and (
                bool_ok or instance.__class__ is not bool)):
            errors.append(f"{path}: expected {expected}, "
                          f"got {type(instance).__name__}")
            return
        if bounded and isinstance(instance, (int, float)) \
                and not isinstance(instance, bool):
            if minimum is not None and instance < minimum:
                errors.append(f"{path}: {instance} < minimum {minimum}")
            if maximum is not None and instance > maximum:
                errors.append(f"{path}: {instance} > maximum {maximum}")
        if keyed and isinstance(instance, dict):
            for key in required:
                if key not in instance:
                    errors.append(f"{path}: missing required property "
                                  f"{key!r}")
            for key, value in instance.items():
                sub = properties.get(key)
                if sub is not None:
                    sub(value, f"{path}.{key}", errors)
                    continue
                matched = False
                for pattern, sub in patterns:
                    if pattern.search(key):
                        matched = True
                        sub(value, f"{path}.{key}", errors)
                if matched:
                    continue
                if extra is False:
                    errors.append(f"{path}: unexpected property {key!r}")
                elif extra_check is not None:
                    extra_check(value, f"{path}.{key}", errors)
        if listed and isinstance(instance, list):
            if min_items is not None and len(instance) < min_items:
                errors.append(f"{path}: {len(instance)} items < minItems "
                              f"{min_items}")
            if item_check is not None:
                for i, value in enumerate(instance):
                    item_check(value, f"{path}[{i}]", errors)

    return check


def validate(instance: Any, schema: Dict[str, Any]) -> List[str]:
    """Validate ``instance``; returns the (possibly empty) error list.

    Compiles ``schema`` on every call: a caller validating many
    instances against one schema keeps :func:`compile_schema`'s check.
    """
    errors: List[str] = []
    compile_schema(schema)(instance, "$", errors)
    return errors


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.obs.attribution.schema SCHEMA.json "
              "< payload.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        schema = json.load(fh)
    instance = json.load(sys.stdin)
    errors = validate(instance, schema)
    if errors:
        for error in errors:
            print(f"schema: {error}", file=sys.stderr)
        return 1
    print("schema: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover - CI entry point
    sys.exit(main(sys.argv[1:]))
