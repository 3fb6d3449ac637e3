"""An in-memory B+-tree used by both storage engines.

Both SQL Server's clustered index and MongoDB's ``_id`` index are B-trees;
this implementation backs the functional layer of each engine: ordered keys,
point lookup, insert/update/delete, and ordered range scans (the YCSB SCAN
operation and Mongo-AS chunk splits both need them).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional

from repro.common.errors import StorageError

DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: list = []
        self.children: list[_Node] = []  # internal nodes only
        self.values: list = []  # leaves only
        self.next_leaf: Optional[_Node] = None


class BTree:
    """A B+-tree: values live in linked leaves, internal nodes route keys."""

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 4:
            raise StorageError("B-tree order must be >= 4")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._count = 0
        # Instrumentation for the performance layer and tests.
        self.reads = 0
        self.writes = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key) -> bool:
        return self.get(key, default=_MISSING) is not _MISSING

    @property
    def height(self) -> int:
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    # -- lookup -------------------------------------------------------------------

    def _find_leaf(self, key) -> _Node:
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def get(self, key, default=None) -> Any:
        """Point lookup; returns ``default`` when the key is absent."""
        self.reads += 1
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def range_scan(self, start_key, count: int) -> list[tuple]:
        """Up to ``count`` (key, value) pairs with key >= start_key, in order."""
        if count <= 0:
            return []
        self.reads += 1
        leaf = self._find_leaf(start_key)
        index = bisect.bisect_left(leaf.keys, start_key)
        out: list[tuple] = []
        while leaf is not None and len(out) < count:
            while index < len(leaf.keys) and len(out) < count:
                out.append((leaf.keys[index], leaf.values[index]))
                index += 1
            leaf = leaf.next_leaf
            index = 0
        return out

    def keys_in_range(self, low, high=None) -> list:
        """All keys in ``[low, high)``, in order: a seek to ``low`` and a
        bisection of each leaf up to ``high``; ``high=None`` means no upper
        bound.  Metadata only, so it counts no read (a split or migration
        enumerating a shard's keys)."""
        leaf = self._find_leaf(low)
        start = bisect.bisect_left(leaf.keys, low)
        out: list = []
        while leaf is not None:
            keys = leaf.keys
            end = len(keys) if high is None else bisect.bisect_left(keys, high)
            out.extend(keys[start:end])
            if end < len(keys):
                break
            leaf = leaf.next_leaf
            start = 0
        return out

    def items(self) -> Iterator[tuple]:
        """All (key, value) pairs in key order."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next_leaf

    def min_key(self):
        if self._count == 0:
            raise StorageError("min_key of empty tree")
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    def max_key(self):
        if self._count == 0:
            raise StorageError("max_key of empty tree")
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1]

    # -- mutation -----------------------------------------------------------------

    def insert(self, key, value) -> bool:
        """Insert or overwrite; returns True if the key was new."""
        return self._put(key, value, overwrite=True)

    def insert_if_absent(self, key, value) -> bool:
        """Insert a new key in one descent; returns False, and writes
        nothing, when the key is already present."""
        return self._put(key, value, overwrite=False)

    def _put(self, key, value, overwrite: bool) -> bool:
        self.writes += 1
        self._existed = False
        result = self._insert(self._root, key, value, overwrite)
        if result is not None:
            sep, right = result
            new_root = _Node(is_leaf=False)
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
        return not self._existed

    def _insert(self, node: _Node, key, value, overwrite: bool):
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                if overwrite:
                    node.values[index] = value
                self._existed = True
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self._count += 1
            self._existed = False
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        index = bisect.bisect_right(node.keys, key)
        result = self._insert(node.children[index], key, value, overwrite)
        if result is None:
            return None
        sep, right = result
        node.keys.insert(index, sep)
        node.children.insert(index + 1, right)
        if len(node.keys) > self.order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node):
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _Node):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    def delete(self, key) -> bool:
        """Remove a key; returns False when absent.

        Uses lazy deletion (no rebalancing): leaves may underflow, which is
        fine for the engines' workloads (YCSB never deletes; chunk migration
        drains whole ranges and the emptied leaves are garbage-collected on
        the next split cycle).
        """
        self.writes += 1
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        leaf.keys.pop(index)
        leaf.values.pop(index)
        self._count -= 1
        return True


class _Missing:
    def __repr__(self):
        return "<missing>"


_MISSING = _Missing()
