"""Trajectory tracking versus full per-tree recomputation.

The tracker must replay grow_urrt's draws exactly, so every checkpoint
can be cross-checked by rebuilding the prefix tree and running the
reference profile on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootrank import RngStream, compute_profile, grow_urrt, subtree_sizes
from rootrank.centrality import SWEEP_MEASURES, closeness_scores, jordan_scores, phi_sign
from rootrank.persistence import (
    _last_change,
    _track,
    checkpoint_grid,
    default_stride,
    run_trajectory,
)
from rootrank.tree import RecursiveTree

from conftest import NEAR_PATH, adversarial_compact, compact_strategy


def _replay_targets(horizon, seed, rep):
    gen = RngStream(seed, rep).generator()
    u = gen.random(horizon - 1)
    return (1 + (u * np.arange(1, horizon, dtype=np.float64)).astype(np.int64)).tolist()


def _prefix_tree(targets, m):
    return RecursiveTree(targets[: m - 1])


def _assert_matches_profile(res, targets, positions):
    """Checkpoint rows at ``positions`` equal compute_profile on the prefix trees."""
    for pos in positions:
        m = int(res.checkpoints[pos])
        tree = _prefix_tree(targets, m)
        for tag, measure in SWEEP_MEASURES.items():
            report = compute_profile(tree, measure).report
            got = (res.series["rank"][tag][pos], res.series["index"][tag][pos])
            assert got == (report.root_rank, report.center_index), (tag, m)


class TestGrid:
    def test_default_stride(self):
        assert default_stride(100) == 1
        assert default_stride(10_000) == 1
        assert default_stride(10_001) == 16
        assert default_stride(100_000) == 16

    def test_grid_contents(self):
        assert checkpoint_grid(10, 2).tolist() == [2, 4, 6, 8, 10]
        assert checkpoint_grid(6, 1).tolist() == [1, 2, 3, 4, 5, 6]
        assert checkpoint_grid(8, 8).tolist() == [8]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            checkpoint_grid(10, 3)
        with pytest.raises(ValueError):
            checkpoint_grid(10, 0)
        with pytest.raises(ValueError):
            checkpoint_grid(0, 1)


class TestStepwiseAgreement:
    @pytest.mark.parametrize("rep", [0, 1, 2, 3])
    def test_every_step_matches_recompute(self, rep):
        horizon = 200
        res = run_trajectory(horizon, RngStream(31, rep), stride=1,
                             keep_series=True, replicate=rep)
        targets = _replay_targets(horizon, 31, rep)
        assert res.checkpoints.tolist() == list(range(1, horizon + 1))
        for pos, m in enumerate(res.checkpoints.tolist()):
            tree = _prefix_tree(targets, m)
            for tag, measure in SWEEP_MEASURES.items():
                report = compute_profile(tree, measure).report
                assert res.series["rank"][tag][pos] == report.root_rank, (tag, m)
                assert res.series["index"][tag][pos] == report.center_index, (tag, m)

    def test_single_checkpoint_matches_fixed_size_growth(self):
        horizon = 500
        res = run_trajectory(horizon, RngStream(77, 5), stride=500, keep_series=True)
        tree = grow_urrt(horizon, RngStream(77, 5))
        for tag, measure in SWEEP_MEASURES.items():
            report = compute_profile(tree, measure).report
            assert res.series["rank"][tag][0] == report.root_rank
            assert res.series["index"][tag][0] == report.center_index

    def test_strided_checkpoints_match(self):
        horizon, stride = 2_000, 100
        res = run_trajectory(horizon, RngStream(44, 1), stride=stride, keep_series=True)
        _assert_matches_profile(res, _replay_targets(horizon, 44, 1), range(horizon // stride))


class TestCentroidTracking:
    @pytest.mark.slow
    def test_hundred_trajectories_to_ten_thousand(self):
        # incremental centroid against full recomputation at checkpoints
        horizon, stride = 10_000, 500
        for rep in range(100):
            res = run_trajectory(horizon, RngStream(60, rep), stride=stride,
                                 keep_series=True)
            targets = _replay_targets(horizon, 60, rep)
            for pos, m in enumerate(res.checkpoints.tolist()):
                psi = jordan_scores(_prefix_tree(targets, m))
                body = psi[1:]
                best = body.min()
                center = int(np.nonzero(body == best)[0].max()) + 1
                assert res.series["index"]["jordan"][pos] == center, (rep, m)

    def test_centroid_moves_at_most_one_edge(self):
        horizon = 400
        res = run_trajectory(horizon, RngStream(61, 0), stride=1, keep_series=True)
        targets = _replay_targets(horizon, 61, 0)
        centers = res.series["index"]["jordan"]
        for pos in range(1, horizon):
            a, b = int(centers[pos - 1]), int(centers[pos])
            if a == b:
                continue
            tree = _prefix_tree(targets, pos + 1)
            assert tree.parent[a] == b or tree.parent[b] == a, (a, b, pos)


class TestAdversarialShapes:
    """Every step of a tracked horizon tree against the per-tree profile.

    Paths and brooms move or tie the centroid at almost every step, which
    uniform draws rarely do; twins make exact rumor ties that are not
    siblings.
    """

    @staticmethod
    def _check_every_step(compact):
        horizon = len(compact) + 1
        res = _track(RecursiveTree(list(compact)), 1, keep_series=True)
        rank, index = res.series["rank"], res.series["index"]
        for m in range(1, horizon + 1):
            prefix = RecursiveTree(list(compact[: m - 1]))
            sizes = subtree_sizes(prefix)
            assert index["jordan"][m - 1] == int(np.flatnonzero(2 * sizes >= m).max()), m
            for tag, measure in SWEEP_MEASURES.items():
                report = compute_profile(prefix, measure).report
                assert (rank[tag][m - 1], index[tag][m - 1]) == (
                    report.root_rank, report.center_index), (tag, m)
        grid = res.checkpoints
        for tag in SWEEP_MEASURES:
            assert res.last_change_rank[tag] == _last_change(rank[tag], grid), tag
            assert res.last_change_index[tag] == _last_change(index[tag], grid), tag

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.one_of(adversarial_compact(), compact_strategy()))
    def test_every_step_matches_profile(self, compact):
        self._check_every_step(compact)

    def test_rumor_region_beyond_cone_and_ball(self):
        tree = RecursiveTree(list(NEAR_PATH))
        m, v = tree.n, 30
        sizes = subtree_sizes(tree)
        root_score = int((sizes[2:][tree.parent[2:] == 1] ** 2).sum())
        assert (m - sizes[v]) ** 2 > root_score
        closeness = closeness_scores(tree)
        assert closeness[v] > closeness[1]
        assert phi_sign(tree.parent.tolist(), sizes.tolist(), m, v, 1) <= 0
        self._check_every_step(NEAR_PATH)


class TestStrideSampling:
    @pytest.mark.parametrize("stride", [4, 16, 100])
    def test_stride_samples_the_stepwise_run(self, stride):
        """A strided run is the stride-1 run read at its grid.

        Rank change times and the betweenness index's are read off the
        sampled series; the centroid and degree leader change times are
        exact per step either way.
        """
        horizon = 3_200  # the smallest multiple of 16 and 100 above 3000
        full = run_trajectory(horizon, RngStream(45, 2), stride=1, keep_series=True)
        res = run_trajectory(horizon, RngStream(45, 2), stride=stride, keep_series=True)
        grid = res.checkpoints
        for kind in ("rank", "index"):
            for tag in SWEEP_MEASURES:
                sampled = full.series[kind][tag][grid - 1]
                assert np.array_equal(res.series[kind][tag], sampled), (kind, tag)
        for tag in SWEEP_MEASURES:
            assert res.last_change_rank[tag] == _last_change(
                full.series["rank"][tag][grid - 1], grid), tag
        assert res.last_change_index["betweenness"] == _last_change(
            full.series["index"]["betweenness"][grid - 1], grid)
        for tag in ("jordan", "closeness", "rumor", "degree"):
            assert res.last_change_index[tag] == full.last_change_index[tag], tag

    @pytest.mark.slow
    def test_deep_candidate_sets(self):
        """Every 25th checkpoint of three 2*10^4-step trajectories.

        Longer histories reach deeper candidate sets (more vertices that
        were once central) than the small horizons above.
        """
        horizon, stride = 20_000, 16
        for rep in range(3):
            res = run_trajectory(horizon, RngStream(46, rep), stride=stride, keep_series=True)
            targets = _replay_targets(horizon, 46, rep)
            _assert_matches_profile(res, targets, range(24, horizon // stride, 25))


class TestChangeTracking:
    def test_flags_match_last_change_times(self):
        res = run_trajectory(3_000, RngStream(52, 9), stride=10)
        half = 1_500
        for tag in SWEEP_MEASURES:
            li = res.last_change_index[tag]
            lr = res.last_change_rank[tag]
            assert 0 <= li <= 3_000
            assert lr == 0 or lr in res.checkpoints
            assert res.changed_index[tag] == (li > half)
            assert res.changed_rank[tag] == (lr > half)

    def test_rank_changes_match_series(self):
        res = run_trajectory(600, RngStream(53, 2), stride=4, keep_series=True)
        for tag in SWEEP_MEASURES:
            ranks = res.series["rank"][tag]
            moved = np.nonzero(ranks[1:] != ranks[:-1])[0]
            expect = int(res.checkpoints[moved[-1] + 1]) if moved.size else 0
            assert res.last_change_rank[tag] == expect

    def test_index_changes_match_series_for_betweenness(self):
        res = run_trajectory(600, RngStream(54, 3), stride=1, keep_series=True)
        for tag in SWEEP_MEASURES:
            idx = res.series["index"][tag]
            moved = np.nonzero(idx[1:] != idx[:-1])[0]
            expect = int(res.checkpoints[moved[-1] + 1]) if moved.size else 0
            assert res.last_change_index[tag] == expect, tag

    def test_horizon_one(self):
        res = run_trajectory(1, RngStream(1, 0), keep_series=True)
        assert res.checkpoints.tolist() == [1]
        for tag in SWEEP_MEASURES:
            assert res.series["rank"][tag].tolist() == [1]
            assert res.series["index"][tag].tolist() == [1]
            assert res.last_change_index[tag] == 0
            assert res.changed_rank[tag] is False

    def test_series_dropped_by_default(self):
        res = run_trajectory(50, RngStream(2, 0))
        assert res.series is None
        assert res.replicate == 0
        assert res.stride == 1
