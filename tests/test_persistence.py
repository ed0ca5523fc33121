"""Incremental trajectory tracking versus full per-tree recomputation.

The tracker must replay grow_urrt's draws exactly, so every checkpoint
can be cross-checked by rebuilding the prefix tree and running the
reference profile on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootrank import RngStream, compute_profile, grow_urrt, subtree_sizes
from rootrank.centrality import CENTROID_GROUP, SWEEP_MEASURES, jordan_scores
from rootrank.persistence import (
    _Trajectory,
    checkpoint_grid,
    default_stride,
    run_trajectory,
)
from rootrank.tree import RecursiveTree
from rootrank.walks import ball_ranks, cone_stats

from conftest import adversarial_compact, compact_strategy


def _replay_targets(horizon, seed, rep):
    gen = RngStream(seed, rep).generator()
    u = gen.random(horizon - 1)
    return (1 + (u * np.arange(1, horizon, dtype=np.float64)).astype(np.int64)).tolist()


def _prefix_tree(targets, m):
    return RecursiveTree(targets[: m - 1])


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
        targets = _replay_targets(horizon, 44, 1)
        for pos, m in enumerate(res.checkpoints.tolist()):
            tree = _prefix_tree(targets, m)
            for tag, measure in SWEEP_MEASURES.items():
                report = compute_profile(tree, measure).report
                assert res.series["rank"][tag][pos] == report.root_rank, (tag, m)
                assert res.series["index"][tag][pos] == report.center_index, (tag, m)


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
    """Tracker state against the per-tree profile at every step.

    Paths and brooms move or tie the centroid at almost every step, which
    uniform draws rarely do.
    """

    @staticmethod
    def _check_state(traj, compact):
        m = traj.m
        prefix = RecursiveTree(list(compact[: m - 1]))
        sizes = subtree_sizes(prefix)
        assert traj.centroid == int(np.flatnonzero(2 * sizes >= m).max()), m
        report = {tag: compute_profile(prefix, measure).report
                  for tag, measure in SWEEP_MEASURES.items()}
        assert (traj.degree_rank(), traj.best_deg_label) == (
            report["degree"].root_rank, report["degree"].center_index), m
        for tag in CENTROID_GROUP:
            assert traj.centroid == report[tag].center_index, (tag, m)
        children, size = traj.children, traj.size
        assert cone_stats(children, size, m) == (
            report["jordan"].root_rank, report["betweenness"].root_rank,
            report["betweenness"].center_index), m
        assert ball_ranks(traj.parent, size, children, m, traj.centroid) == (
            report["closeness"].root_rank, report["rumor"].root_rank), m

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.one_of(adversarial_compact(), compact_strategy()))
    def test_every_step_matches_profile(self, compact):
        traj = _Trajectory(len(compact) + 1)
        self._check_state(traj, compact)
        for target in compact:
            traj.step(target)
            self._check_state(traj, compact)


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
