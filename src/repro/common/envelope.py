"""The ``repro-*/1`` report envelope: one encoder, writer and field checker.

Every analysis report this package writes (fault, availability, reshard,
frontier, overload, live, prof, compare, critpath, what-if, decompose) is a
JSON object with a ``schema`` key, serialized the same deterministic way:
sorted keys, ``(",", ":")`` separators and a trailing newline, so the same
seed always produces byte-identical files.  The validators share
:func:`check_envelope` and :func:`check_fields`; the semantic checks (an
invariant agrees with its rows, a knee meets its SLO, ...) stay with each
schema.

Kept free of the ``repro.obs`` package on purpose: importing this module
pulls in nothing but :mod:`json` and the error types.
"""

from __future__ import annotations

import json

from repro.common.errors import ConfigurationError


def dumps_report(doc: dict) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_text(text: str, path: str) -> None:
    """Write ``text`` to ``path``; an unwritable path is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def write_report(doc: dict, path: str) -> None:
    """Write :func:`dumps_report` output; an unwritable path is a usage error."""
    write_text(dumps_report(doc), path)


def stable_round(value: float, digits: int = 6) -> float:
    """Stable rounding so report JSON is robust to float formatting noise."""
    return round(float(value), digits)


def check_envelope(data, schema: str, what: str) -> None:
    """``data`` must be an object whose ``schema`` key is ``schema``."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be an object")
    if data.get("schema") != schema:
        raise ConfigurationError(
            f"{what} schema is {data.get('schema')!r}, expected {schema!r}")


def _has_type(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_has_type(value, k) for k in kind)
    if kind is float:
        kind = (int, float)
    elif kind is not int:
        return isinstance(value, kind)
    return isinstance(value, kind) and not isinstance(value, bool)


def _type_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(_type_name(k) for k in kind)
    return "null" if kind is type(None) else kind.__name__


def check_fields(obj, required: dict, where: str) -> None:
    """``obj`` must be an object holding each field of ``required`` typed.

    ``required`` maps a field name to a type or a tuple of types.  ``float``
    accepts an int, neither ``int`` nor ``float`` accepts a bool, and
    ``object`` only asks for the field to be present.
    """
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} is not an object")
    for field, kind in required.items():
        if field not in obj:
            raise ConfigurationError(f"{where} is missing {field!r}")
        value = obj[field]
        if not _has_type(value, kind):
            raise ConfigurationError(
                f"{where} field {field!r} has type {type(value).__name__}, "
                f"expected {_type_name(kind)}")
