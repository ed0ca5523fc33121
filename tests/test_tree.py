"""Tree representation, growth, serialization, and enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings

from rootrank import RngStream, enumerate_recursive_trees, grow_urrt, subtree_sizes
from rootrank.engine import generate_parent_matrix
from rootrank.tree import (
    EdgeListParseError,
    RecursiveTree,
    depth_dtype,
    group_by,
    parse_edge_list,
    read_edge_list,
    serialize_tree,
    write_edge_list,
)

from conftest import compact_strategy


class TestRecursiveTree:
    def test_singleton(self):
        t = RecursiveTree([])
        assert t.n == 1
        assert t.parent[2:].tolist() == []

    def test_t4_structure(self, t4):
        assert t4.n == 4
        assert t4.parent[2] == 1 and t4.parent[3] == 1 and t4.parent[4] == 3

    def test_parent_bounds_rejected(self):
        with pytest.raises(ValueError):
            RecursiveTree([2])  # parent of 2 must be 1
        with pytest.raises(ValueError):
            RecursiveTree([1, 3])  # parent of 3 must precede it

    def test_immutable(self, t4):
        with pytest.raises(AttributeError):
            t4.n = 5
        assert not t4.parent.flags.writeable

    def test_equality_and_hash(self, t4):
        assert t4 == RecursiveTree([1, 1, 3])
        assert hash(t4) == hash(RecursiveTree([1, 1, 3]))
        assert t4 != RecursiveTree([1, 1, 2])

    def test_subtree_sizes_t4(self, t4):
        assert subtree_sizes(t4)[1:].tolist() == [4, 1, 2, 1]


class TestGrowth:
    def test_deterministic(self):
        a = grow_urrt(500, RngStream(7))
        b = grow_urrt(500, RngStream(7))
        assert a == b
        assert a != grow_urrt(500, RngStream(8))

    def test_streams_differ(self):
        assert grow_urrt(100, RngStream(7, 0)) != grow_urrt(100, RngStream(7, 1))

    def test_batched_generation_matches(self):
        mat = generate_parent_matrix(99, 40, 0, 8)
        for j in range(8):
            assert grow_urrt(40, RngStream(99, j)) == RecursiveTree(
                mat[2:, j].tolist()
            )

    def test_uniformity_chi_square(self):
        # 7! = 5040 equally likely trees at n=8; chi-square on 10 draws
        # per class.  Threshold is the 0.999 quantile of chi2(5039).
        scipy_stats = pytest.importorskip("scipy.stats")
        n, reps = 8, 50_400
        mat = generate_parent_matrix(2024, n, 0, reps)
        idx = np.zeros(reps, dtype=np.int64)
        for v in range(2, n + 1):
            idx = idx * (v - 1) + (mat[v] - 1)
        counts = np.bincount(idx, minlength=5040)
        expected = reps / 5040
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < scipy_stats.chi2.ppf(0.999, 5039)


class TestSerialization:
    def test_frozen_format(self, t4):
        assert serialize_tree(t4) == "4\n2 1\n3 1\n4 3\n"
        assert serialize_tree(RecursiveTree([])) == "1\n"

    def test_round_trip(self, t4):
        assert parse_edge_list(serialize_tree(t4)) == t4

    @settings(max_examples=60, derandomize=True)
    @given(compact_strategy())
    def test_round_trip_property(self, compact):
        t = RecursiveTree(list(compact))
        assert parse_edge_list(serialize_tree(t)) == t

    def test_file_round_trip(self, tmp_path, t4):
        path = tmp_path / "t4.txt"
        write_edge_list(t4, path)
        assert path.read_bytes() == b"4\n2 1\n3 1\n4 3\n"
        assert read_edge_list(path) == t4

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("x\n", 1),
            ("3\n2 1\n", 3),
            ("2\n2 1\n3 1\n", 3),
            ("3\n2 1\nx 1\n", 3),
            ("3\n2 1\n3 1 9\n", 3),
            ("3\n3 1\n2 1\n", 2),
            ("3\n2 1\n3 3\n", 3),
            ("2\n2 0\n", 2),
        ],
    )
    def test_parse_errors_carry_line(self, text, line):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list(text)
        assert err.value.line == line


class TestEnumeration:
    def test_enumeration_is_complete_and_indexed(self):
        # tree i is the i-th parent list in mixed-radix (lexicographic) order
        compacts = [tuple(t.parent[2:].tolist()) for t in enumerate_recursive_trees(5)]
        assert compacts == sorted(set(compacts))
        assert len(compacts) == 24


def _direct_depths(tree):
    par = tree.parent.tolist()
    depth = [0] * (tree.n + 1)
    for v in range(2, tree.n + 1):
        depth[v] = depth[par[v]] + 1
    return depth


def _level_depths(tree):
    depth = [0] * (tree.n + 1)
    levels = tree.levels
    for d in range(levels.height + 1):
        for v in levels.level(d).tolist():
            depth[v] = d
    return depth


def _direct_sizes(tree):
    par = tree.parent.tolist()
    size = [0] + [1] * tree.n
    for v in range(tree.n, 1, -1):
        size[par[v]] += size[v]
    return size


class TestLevels:
    @pytest.mark.parametrize(
        "compact",
        [[], [1], [1, 1, 3], [1] * 99, list(range(1, 300)), [min(v - 1, 40) for v in range(2, 200)]],
        ids=["n1", "n2", "t4", "star", "path", "broom"],
    )
    def test_depths_match_direct_loop(self, compact):
        tree = RecursiveTree(compact)
        levels = tree.levels
        depth = _direct_depths(tree)
        assert levels.height == max(depth[1:])
        assert levels.bounds[0] == 0 and levels.bounds[-1] == tree.n
        for d in range(levels.height + 1):
            assert levels.level(d).tolist() == [v for v in range(1, tree.n + 1) if depth[v] == d]
        assert subtree_sizes(tree).tolist() == _direct_sizes(tree)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(compact_strategy(max_n=200))
    def test_depths_property(self, compact):
        tree = RecursiveTree(list(compact))
        assert _level_depths(tree) == _direct_depths(tree)

    def test_cached(self):
        tree = grow_urrt(1000, RngStream(3))
        assert tree.levels is tree.levels

    def test_path_above_radix_groups(self):
        # height n - 1 > 2^16: one level per vertex, grouped by composite keys
        n = 70_000
        levels = RecursiveTree(np.arange(1, n)).levels
        assert levels.height == n - 1
        assert levels.order.tolist() == list(range(1, n + 1))  # depth[v] = v - 1
        assert levels.bounds.tolist() == list(range(n + 1))

    def test_depth_dtype_rule(self):
        # int32 holds every depth and partial depth while n + 1 < 2^31
        assert depth_dtype(1) is np.int32
        assert depth_dtype(2**31 - 2) is np.int32
        assert depth_dtype(2**31 - 1) is np.int64
        assert depth_dtype(10**12) is np.int64


class TestGroupBy:
    """``group_by`` is a stable argsort by key with bincount offsets, on both sides of 2^16."""

    @pytest.mark.parametrize("groups", [1, 7, 2**16, 2**16 + 1, 200_000])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_stable_argsort(self, groups, dtype):
        rng = np.random.default_rng(groups)
        # few distinct keys, the largest among them, so most groups get none;
        # 20_000 keys take int32 composites past 2^31 at 200_000 groups
        values = rng.choice(groups, size=min(groups, 50), replace=False)
        values[0] = groups - 1
        keys = rng.choice(values, size=20_000).astype(dtype)
        order, bounds = group_by(keys, groups)
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()
        assert bounds.tolist() == [0] + np.cumsum(np.bincount(keys, minlength=groups)).tolist()

    @pytest.mark.parametrize("groups", [3, 200_000])
    def test_empty_keys(self, groups):
        order, bounds = group_by(np.zeros(0, dtype=np.int64), groups)
        assert order.size == 0
        assert bounds.tolist() == [0] * (groups + 1)

    @pytest.mark.parametrize("groups, size", [(2**16, 2**47), (2**62, 2)])
    def test_composite_overflow_rejected(self, groups, size):
        # a zero-stride view: the check must come before any array of that size
        with pytest.raises(ValueError, match="overflow"):
            group_by(np.broadcast_to(np.int64(0), (size,)), groups)
