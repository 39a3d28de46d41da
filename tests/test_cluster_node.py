"""Tests for nodes and the node pool."""

import pytest

from repro.cluster.node import Node, NodePool


class TestNode:
    def test_invalid_cores_rejected(self):
        with pytest.raises(ValueError):
            Node(index=0, cores=0)


class TestNodePool:
    def test_acquire_lowest_indices_first(self):
        pool = NodePool(4)
        taken = pool.acquire(2)
        assert [n.index for n in taken] == [0, 1]

    def test_acquire_release_cycle(self):
        pool = NodePool(3)
        taken = pool.acquire(3)
        assert pool.free_count == 0
        pool.release(taken)
        assert pool.free_count == 3

    def test_over_acquire_rejected(self):
        pool = NodePool(2)
        pool.acquire(2)
        with pytest.raises(RuntimeError, match="only 0 free"):
            pool.acquire(1)

    def test_double_release_rejected(self):
        pool = NodePool(2)
        taken = pool.acquire(1)
        pool.release(taken)
        with pytest.raises(RuntimeError, match="released twice"):
            pool.release(taken)

    def test_release_restores_low_index_priority(self):
        pool = NodePool(4)
        first = pool.acquire(2)  # 0, 1
        pool.acquire(2)  # 2, 3
        pool.release(first)
        again = pool.acquire(1)
        assert again[0].index == 0

    def test_len(self):
        assert len(NodePool(5)) == 5

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            NodePool(0)
