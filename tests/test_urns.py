"""Polya and Hoppe urns plus the max-Dickman sampler.

Statistical assertions use analytic targets with 3-sigma margins at
scales chosen so the margin stays well inside the asserted band.
"""

import math

import numpy as np
import pytest

from rootrank import RngStream, grow_urrt, subtree_sizes
from rootrank.centrality import degree_scores, jordan_scores
from rootrank.tree import RecursiveTree
from rootrank.urns import (
    hoppe_run,
    polya_diagonal_hit_exact,
    polya_diagonal_hits,
    polya_final_counts,
    polya_run,
    sample_dickman,
    sample_dickman_many,
)


def _gens(seed, count, base=0):
    return [RngStream(seed, base + i).generator() for i in range(count)]


class TestDickman:
    def test_range_and_determinism(self):
        a = sample_dickman(RngStream(1).generator())
        b = sample_dickman(RngStream(1).generator())
        assert a == b
        assert 0.0 < a <= 1.0

    def test_batch_matches_scalar(self):
        batch = sample_dickman_many(RngStream(42).generator(), 200)
        gen = RngStream(42).generator()
        scalar = [sample_dickman(gen) for _ in range(200)]
        assert batch.tolist() == scalar

    def test_tail_above_half_is_log_two(self):
        samples = sample_dickman_many(RngStream(7).generator(), 200_000)
        p = float((samples >= 0.5).mean())
        assert abs(p - math.log(2)) < 0.006  # 3*SE ~ 0.0031

    def test_density_mode_near_two(self):
        # density is 1/x on [1/2, 1]; mass of [0.5, 0.52] is ln(1.04)
        samples = sample_dickman_many(RngStream(8).generator(), 200_000)
        p = float(((samples >= 0.5) & (samples < 0.52)).mean())
        density = p / 0.02
        assert 1.83 < density < 2.09


class TestPolya:
    def test_zero_steps_state(self):
        rows = polya_run(3, 0, RngStream(1).generator())
        assert rows.tolist() == [[0, 3, 1]]

    def test_conservation(self):
        rows = polya_run(2, 500, RngStream(4).generator())
        for t, x, y in rows.tolist():
            assert x + y == 2 + 1 + t
            assert x >= 2 and y >= 1

    def test_vectorized_matches_scalar_runs(self):
        finals = polya_final_counts(2, 300, _gens(11, 40))
        for i in range(40):
            rows = polya_run(2, 300, RngStream(11, i).generator())
            assert rows[-1][1] == finals[i]

    def test_beta_three_one_mean(self):
        # martingale: E x/(a+1+t) = a/(a+1) = 3/4 at every t
        steps, reps = 20_000, 4_000
        finals = polya_final_counts(3, steps, _gens(12, reps))
        mean = float((finals / (3 + 1 + steps)).mean())
        assert abs(mean - 0.75) < 0.01

    def test_uniform_limit_ks(self):
        # a=1 fraction is discrete uniform on {1..t+1}/(t+2)
        steps, reps = 20_000, 10_000
        finals = polya_final_counts(1, steps, _gens(13, reps))
        frac = np.sort(finals / (1 + 1 + steps))
        grid = np.arange(1, reps + 1) / reps
        ks = float(np.max(np.maximum(np.abs(grid - frac), np.abs(frac - (grid - 1 / reps)))))
        assert ks < 0.02

    def test_diagonal_hits_match_exact_recursion(self):
        horizon, reps = 18, 6_000
        exact = polya_diagonal_hit_exact(1, 0.5, horizon)
        hits = polya_diagonal_hits(1, 0.5, horizon, _gens(14, reps))
        p = float(hits.mean())
        se = math.sqrt(exact * (1 - exact) / reps)
        assert abs(p - exact) < 3 * se + 1e-9

    def test_diagonal_hit_decreasing_in_a(self):
        reps = 1_500
        estimates = []
        for ai, a in enumerate((1, 3, 5)):
            hits = polya_diagonal_hits(a, 0.5, 2_000, _gens(15, reps, base=ai * reps))
            estimates.append(float(hits.mean()))
        assert estimates[0] > estimates[1] > estimates[2]

    def test_threshold_zero_never_hits(self):
        hits = polya_diagonal_hits(1, 1e-9, 200, _gens(16, 50))
        assert not hits.any()


class TestHoppe:
    def test_first_step(self):
        run = hoppe_run(1, RngStream(1).generator())
        # no color exists before the first ball
        assert run.num_colors.tolist() == [0, 1]
        assert run.leader.tolist() == [0, 1]
        assert run.leader_count.tolist() == [0, 1]
        assert run.change_times.tolist() == [1]

    def test_conservation_and_birth_order(self):
        run = hoppe_run(3_000, RngStream(21).generator())
        t = np.arange(3_001)
        # every other color holds at least one of the t balls
        assert (run.leader_count + np.maximum(run.num_colors - 1, 0) <= t).all()
        assert (np.diff(run.num_colors) >= 0).all()
        assert (run.leader_count[1:] >= 1).all()
        assert (run.leader <= run.num_colors).all()

    @pytest.mark.parametrize("steps", [0, 1, 2, 5, 60, 300])
    def test_every_step_is_a_prefix_tree(self, steps):
        # Ball i is vertex i + 1 and black is the root: at step t the colors
        # are the root subtrees of the tree on vertices 1..t+1.
        for i in range(4):
            run = hoppe_run(steps, RngStream(25, i).generator())
            tree = grow_urrt(steps + 1, RngStream(25, i))
            for t in range(steps + 1):
                prefix = RecursiveTree(tree.parent[2 : t + 2])
                assert run.num_colors[t] == degree_scores(prefix)[1]
                assert run.leader_count[t] == jordan_scores(prefix)[1]
                sizes = subtree_sizes(prefix)[prefix.parent == 1]
                # argmax takes the first largest, the earliest-born color
                leader = int(np.argmax(sizes)) + 1 if sizes.size else 0
                assert run.leader[t] == leader

    def test_change_times_strictly_increasing(self):
        run = hoppe_run(5_000, RngStream(22).generator())
        times = run.change_times.tolist()
        assert times and times[0] == 1  # establishment counts as a change
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(1 <= t <= 5_000 for t in times)

    def test_mean_colors_harmonic(self):
        t, reps = 2_000, 4_000
        target = sum(1.0 / k for k in range(1, t + 1))
        totals = 0
        for i in range(reps):
            totals += hoppe_run(t, RngStream(23, i).generator()).num_colors[t]
        mean = totals / reps
        assert abs(mean - target) < 0.02 * target

    def test_leader_change_tail_monotone(self):
        reps = 400
        last = []
        for i in range(reps):
            run = hoppe_run(20_000, RngStream(24, i).generator())
            times = run.change_times
            last.append(int(times[-1]) if times.size else 0)
        last = np.asarray(last)
        tail = [float((last > t).mean()) for t in (10, 100, 1_000)]
        assert tail[0] >= tail[1] >= tail[2]
