"""Shared fixtures: a small generated TPC-H database reused across tests,
a call spy for codec-count tests, and a field-replacement check for the
``repro-*/1`` report validators."""

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


@pytest.fixture
def spy_calls(monkeypatch):
    """``spy((module, name), ...)``: wrap each named function so that each
    call appends its name to the list ``spy`` returns, then runs it.
    ``monkeypatch.undo()`` ends the spying early."""
    def spy(*pairs) -> list:
        calls = []
        for module, name in pairs:
            call = getattr(module, name)

            def logged(*args, _call=call, _name=name):
                calls.append(_name)
                return _call(*args)
            monkeypatch.setattr(module, name, logged)
        return calls
    return spy


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


#: ``(start index, count)`` of the scans the scan-contract check runs, in
#: order: single rows, ranges across chunk and page boundaries, a tail
#: shorter than ``count``, and a start past every key.
SCAN_SEQUENCE = ((0, 1), (0, 10), (37, 25), (90, 100), (150, 60), (199, 5),
                 (250, 10))


@pytest.fixture
def assert_scan_contract(monkeypatch):
    """``check(cluster, shadow)``: every scan of :data:`SCAN_SEQUENCE` keeps
    the scan contract.

    ``shadow`` maps each key to the row a scan returns for it.  Each scan's
    rows must equal the sorted shadow from its start key on, and it must
    decode exactly one entry (BSON document or SQL row) per row returned.
    On a hash-sharded cluster every live shard must still have returned
    ``min(count, its keys >= start)`` entries, strays included: the
    broadcast is modelled work, only host-side decoding is saved.
    """
    from repro.docstore import bson
    from repro.docstore.cluster import HashShardedCluster
    from repro.docstore.mongod import Mongod
    from repro.sqlstore import server
    from repro.ycsb.workloads import make_key

    decodes = [0]
    returned: dict[str, list[int]] = {}

    def counting(decode):
        def spy(data):
            decodes[0] += 1
            return decode(data)
        return spy

    def recording(scan_entries):
        def spy(node, *args):
            entries = scan_entries(node, *args)
            returned.setdefault(node.name, []).append(len(entries))
            return entries
        return spy

    monkeypatch.setattr(bson, "decode", counting(bson.decode))
    monkeypatch.setattr(server, "decode_row", counting(server.decode_row))
    for node in (Mongod, server.SqlServerNode):
        monkeypatch.setattr(node, "scan_entries",
                            recording(node.scan_entries))

    def check(cluster, shadow):
        hashed = isinstance(cluster, HashShardedCluster)
        for start, count in SCAN_SEQUENCE:
            start_key = make_key(start)
            expected = {}
            if hashed:
                for index, shard in enumerate(cluster.shards):
                    if index not in cluster.retired_shards:
                        held = [k for k in cluster._keys(index)
                                if k >= start_key]
                        expected[shard.name] = [min(count, len(held))]
            decodes[0] = 0
            returned.clear()
            rows = cluster.scan(start_key, count)
            want = [shadow[k] for k in sorted(shadow) if k >= start_key]
            assert rows == want[:count], (start, count)
            assert decodes[0] == len(rows), (start, count)
            if hashed:
                assert returned == expected, (start, count)

    return check
