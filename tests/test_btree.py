"""Tests for the shared B+-tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.btree import BTree
from repro.common.errors import StorageError


class TestBasics:
    def test_insert_get(self):
        tree = BTree()
        assert tree.insert("b", 2)
        assert tree.insert("a", 1)
        assert tree.get("a") == 1
        assert tree.get("b") == 2
        assert tree.get("c") is None
        assert tree.get("c", default=-1) == -1

    def test_overwrite(self):
        tree = BTree()
        assert tree.insert("k", 1) is True
        assert tree.insert("k", 2) is False  # update, not new
        assert tree.get("k") == 2
        assert len(tree) == 1

    def test_insert_if_absent_refuses_without_writing(self):
        tree = BTree(order=4)
        for i in range(40):  # several levels, so the refusal descends
            assert tree.insert_if_absent(i, i)
        writes = tree.writes
        assert tree.insert_if_absent(17, "replacement") is False
        assert tree.get(17) == 17
        assert len(tree) == 40
        assert tree.writes == writes + 1  # counted like insert and delete
        assert list(tree.items()) == [(i, i) for i in range(40)]

    def test_contains_and_len(self):
        tree = BTree()
        for i in range(100):
            tree.insert(i, i * 10)
        assert len(tree) == 100
        assert 50 in tree
        assert 101 not in tree

    def test_delete(self):
        tree = BTree()
        for i in range(50):
            tree.insert(i, i)
        assert tree.delete(25)
        assert not tree.delete(25)
        assert 25 not in tree
        assert len(tree) == 49

    def test_min_max(self):
        tree = BTree()
        with pytest.raises(StorageError):
            tree.min_key()
        for i in (5, 1, 9, 3):
            tree.insert(i, i)
        assert tree.min_key() == 1
        assert tree.max_key() == 9

    def test_invalid_order(self):
        with pytest.raises(StorageError):
            BTree(order=2)


class TestSplitsAndScans:
    def test_many_inserts_force_splits(self):
        tree = BTree(order=8)
        n = 5000
        for i in range(n):
            tree.insert(i, i * 2)
        assert len(tree) == n
        assert tree.height > 2
        for probe in (0, 1, 2500, 4999):
            assert tree.get(probe) == probe * 2

    def test_reverse_and_shuffled_inserts(self):
        from repro.common.rng import TpchRandom64

        tree = BTree(order=8)
        keys = list(range(2000))
        TpchRandom64(5).shuffle(keys)
        for k in keys:
            tree.insert(k, k)
        assert list(k for k, _ in tree.items()) == sorted(keys)

    def test_range_scan(self):
        tree = BTree(order=8)
        for i in range(0, 1000, 2):  # even keys only
            tree.insert(i, i)
        scan = tree.range_scan(100, 5)
        assert [k for k, _ in scan] == [100, 102, 104, 106, 108]
        # Start between keys.
        scan = tree.range_scan(101, 3)
        assert [k for k, _ in scan] == [102, 104, 106]

    def test_range_scan_crosses_leaves(self):
        tree = BTree(order=4)
        for i in range(200):
            tree.insert(i, i)
        scan = tree.range_scan(0, 200)
        assert len(scan) == 200
        assert [k for k, _ in scan] == list(range(200))

    def test_range_scan_edge_cases(self):
        tree = BTree()
        tree.insert(1, "a")
        assert tree.range_scan(2, 10) == []
        assert tree.range_scan(1, 0) == []
        assert tree.range_scan(0, 10) == [(1, "a")]

    @given(st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_sorted_iteration_property(self, keys):
        tree = BTree(order=6)
        for k in keys:
            tree.insert(k, str(k))
        assert [k for k, _ in tree.items()] == sorted(keys)
        assert len(tree) == len(keys)

    @given(
        st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)), min_size=1, max_size=200)
    )
    @settings(max_examples=30)
    def test_matches_dict_semantics(self, ops):
        tree = BTree(order=6)
        reference = {}
        for key, value in ops:
            tree.insert(key, value)
            reference[key] = value
        for key, value in reference.items():
            assert tree.get(key) == value
        assert len(tree) == len(reference)


_LOWS = st.one_of(st.just(""), st.just("\uffff"),
                  st.text(alphabet="abcd", max_size=4))
_HIGHS = st.one_of(st.none(), _LOWS)  # None: no upper bound


class TestKeysInRange:
    """``keys_in_range`` seeks to ``low`` and bisects each leaf; it must
    return what a walk of every key from the first one returns."""

    @given(st.sets(st.text(alphabet="abcd", max_size=4), max_size=150),
           st.sets(st.text(alphabet="abcd", max_size=4), max_size=60),
           st.integers(4, 8), _LOWS, _HIGHS)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_linear_walk(self, keys, deleted, order, low, high):
        tree = BTree(order=order)
        for key in sorted(keys, key=hash):
            tree.insert(key, key)
        for key in deleted:  # lazy deletion leaves short or empty leaves
            tree.delete(key)
        walk = [key for key, _ in tree.items()
                if low <= key and (high is None or key < high)]
        reads = tree.reads
        assert tree.keys_in_range(low, high) == walk
        assert tree.keys_in_range("") == sorted(keys - deleted)
        assert tree.reads == reads  # metadata only: no read counted

    def test_bounds_between_and_on_keys(self):
        tree = BTree(order=4)
        for i in range(0, 200, 2):
            tree.insert(i, i)
        assert tree.keys_in_range(10, 20) == [10, 12, 14, 16, 18]
        assert tree.keys_in_range(11, 21) == [12, 14, 16, 18, 20]
        assert tree.keys_in_range(198, 1000) == [198]
        assert tree.keys_in_range(20, 20) == []
        assert tree.keys_in_range(30, 10) == []
        assert tree.keys_in_range(150) == list(range(150, 200, 2))
        assert BTree().keys_in_range("") == []

    def test_no_upper_bound_keeps_keys_past_uffff(self):
        """A "\\uffff" bound standing for +inf dropped every key at or
        above it."""
        keys = ["user0001", "\uffff", "\uffffz", "\U0001F600k"]
        tree = BTree(order=4)
        for key in keys:
            tree.insert(key, key)
        assert tree.keys_in_range("", None) == sorted(keys)
        assert tree.keys_in_range("", "\uffff") == ["user0001"]
