"""Shared fixtures: a small generated TPC-H database reused across tests,
and a field-replacement check for the ``repro-*/1`` report validators."""

import copy

import pytest

from repro.common.errors import ConfigurationError
from repro.tpch.dbgen import DbGen

#: What each field of a valid report is replaced with, one at a time.
FIELD_REPLACEMENTS = (None, "x", True, -1, [], {})


@pytest.fixture(scope="session")
def tiny_db():
    """SF 0.005 database (~750 customers, ~7.5k orders, ~30k lineitems)."""
    return DbGen(scale_factor=0.005, seed=42).generate()


@pytest.fixture(scope="session")
def small_db():
    """SF 0.01 database for the query-answer tests."""
    return DbGen(scale_factor=0.01, seed=42).generate()


@pytest.fixture(scope="session")
def causal_study():
    """Unfitted DSS study shared by the critical-path/what-if/decompose tests.

    ``fit=False`` skips the per-query weight fitting (the slow part of a
    fresh study); the causal layer only needs traced structure, not
    paper-calibrated absolute times.
    """
    from repro.core.dss import DssStudy

    return DssStudy(fit=False)


def _fields(node, path="doc"):
    """``(container, key, path)`` for every field, depth first.

    Inside lists only the first two elements are visited.
    """
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(min(len(node), 2))
    else:
        return
    for key in keys:
        where = f"{path}[{key!r}]"
        yield node, key, where
        yield from _fields(node[key], where)


@pytest.fixture
def assert_validator_total():
    """``check(validate, doc)``: no field replacement crashes ``validate``.

    Each field of (a copy of) the valid ``doc`` is replaced in turn with
    every value of :data:`FIELD_REPLACEMENTS`; the validator may accept
    the result or raise :class:`ConfigurationError`, and nothing else.
    """
    def check(validate, doc):
        doc = copy.deepcopy(doc)
        validate(doc)
        for container, key, where in list(_fields(doc)):
            original = container[key]
            for value in FIELD_REPLACEMENTS:
                container[key] = copy.copy(value)
                try:
                    validate(doc)
                except ConfigurationError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{where} = {value!r}: "
                                f"{type(exc).__name__}: {exc}")
            container[key] = original

    return check
