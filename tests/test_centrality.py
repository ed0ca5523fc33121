"""Centrality scores, pessimistic ranking, and oracle agreement.

Frozen values for the reference trees were computed by hand and cross
checked against the brute-force oracles:

  T4 (parents 1,1,3): sizes [4,1,2,1]
      Jordan    [2,3,2,3]     closeness [4,6,4,6]
      rumor phi [2,6,2,6]     B' (q=2)  [5,9,5,9]
      B pairs   [2,0,2,0]     degree    [2,1,2,1]
      pessimistic Jordan ranking: centers {1,3}, I=3, R=2, gamma [2,4,1,3]
  P3 path: B^3 scores [8,2,8]
  S4 star: closeness ranking [1,4,3,2], I=1, R=1
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootrank import MEASURES, RngStream, compute_profile, grow_urrt, subtree_sizes
from rootrank.centrality import (
    BETWEENNESS_PAIRS,
    BETWEENNESS_SQ,
    CLOSENESS,
    DEGREE,
    JORDAN,
    RUMOR,
    ScoreOverflowError,
    _check_closeness_int64,
    _check_rank_int64,
    _rank_exact,
    _resolve_rumor_ties,
    betweenness_pairs_scores,
    betweenness_q,
    betweenness_sq_scores,
    closeness_scores,
    degree_scores,
    jordan_scores,
    phi_sign,
    profile_csv,
    rank_vertices,
    rumor_scores,
)
from rootrank.oracles import (
    oracle_betweenness_sq,
    oracle_jordan,
    oracle_rank,
    oracle_rumor,
    verify_tree,
)
from rootrank.tree import RecursiveTree, enumerate_recursive_trees

from conftest import adversarial_compact, children_lists, compact_strategy, twin_compact


class TestFrozenScores:
    def test_t4_all_measures(self, t4):
        assert jordan_scores(t4)[1:].tolist() == [2, 3, 2, 3]
        assert closeness_scores(t4)[1:].tolist() == [4, 6, 4, 6]
        logs, _ = rumor_scores(t4)
        assert np.allclose(logs[1:], np.log([2.0, 6.0, 2.0, 6.0]))
        assert betweenness_sq_scores(t4)[1:].tolist() == [5, 9, 5, 9]
        assert betweenness_pairs_scores(t4)[1:].tolist() == [2, 0, 2, 0]
        assert degree_scores(t4)[1:].tolist() == [2, 1, 2, 1]

    def test_p3_betweenness_cubed(self, p3):
        assert betweenness_sq_scores(p3, q=3)[1:].tolist() == [8, 2, 8]

    def test_singleton_scores(self):
        t = RecursiveTree([])
        for tag, measure in MEASURES.items():
            profile = compute_profile(t, measure)
            assert profile.rank[1:].tolist() == [1]
            assert profile.report.center_index == 1
            assert profile.report.root_rank == 1


class TestPessimisticRanking:
    def test_t4_jordan_ranking(self, t4):
        profile = compute_profile(t4, JORDAN)
        assert profile.rank[1:].tolist() == [2, 4, 1, 3]
        assert profile.report.center_index == 3
        assert profile.report.root_rank == 2
        assert profile.report.tied_center_set == (1, 3)

    def test_s4_closeness_ranking(self, s4):
        profile = compute_profile(s4, CLOSENESS)
        assert profile.rank[1:].tolist() == [1, 4, 3, 2]
        assert profile.report.center_index == 1
        assert profile.report.root_rank == 1

    def test_rank_is_permutation(self):
        t = grow_urrt(300, RngStream(5))
        for measure in MEASURES.values():
            profile = compute_profile(t, measure)
            assert sorted(profile.rank[1:].tolist()) == list(range(1, 301))

    def test_ties_ranked_by_descending_label(self, s4):
        # leaves 2,3,4 share degree 1; later arrivals rank ahead
        profile = compute_profile(s4, DEGREE)
        assert profile.rank[1:].tolist() == [1, 4, 3, 2]

    def test_profile_csv_shape(self, t4):
        text = profile_csv(compute_profile(t4, JORDAN))
        lines = text.strip().split("\n")
        assert lines[0] == "vertex,score,rank"
        assert lines[1] == "1,2,2"
        assert len(lines) == 5


def _lexsort_order(scores, larger_is_central):
    """Indices by ascending key, the larger index first on ties."""
    key = -scores if larger_is_central else scores
    return np.lexsort((-np.arange(scores.size), key))


_ULP_ONE = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]


class TestRankOrder:
    """``_rank_exact`` against an independent lexsort, both directions."""

    def _check(self, scores):
        for larger in (False, True):
            got = _rank_exact(scores, larger)
            assert got.tolist() == _lexsort_order(scores, larger).tolist(), larger

    def test_single_item(self):
        self._check(np.array([7], dtype=np.int64))
        self._check(np.array([0.5]))

    def test_all_equal(self):
        self._check(np.full(50, 3, dtype=np.int64))
        self._check(np.full(50, -2.25))
        assert _rank_exact(np.zeros(5, dtype=np.int64), False).tolist() == [4, 3, 2, 1, 0]

    def test_integer_ties(self):
        rng = np.random.default_rng(1)
        self._check(rng.integers(-4, 5, size=2000))

    def test_float_ties_and_ulp_neighbours(self):
        rng = np.random.default_rng(2)
        values = np.array(_ULP_ONE + [0.0, -0.0, -1.0, np.nextafter(-1.0, 0.0)])
        self._check(values[rng.integers(0, values.size, size=500)])

    def test_wide_integers_take_run_ids(self):
        scores = np.array([2**62, -(2**62), 5, 2**62, -(2**62), 5, 0], dtype=np.int64)
        span = int(scores.max()) - int(scores.min()) + 1
        assert span * scores.size >= 2**63  # the key-less-minimum branch would overflow
        self._check(scores)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(-3, 3), min_size=1, max_size=40).map(
                lambda x: np.array(x, dtype=np.int64)
            ),
            st.lists(st.integers(-(2**63) + 1, 2**63 - 1), min_size=1, max_size=40).map(
                lambda x: np.array(x, dtype=np.int64)
            ),
            st.lists(
                st.one_of(st.sampled_from(_ULP_ONE + [0.0, -0.0]), st.floats(allow_nan=False)),
                min_size=1,
                max_size=40,
            ).map(lambda x: np.array(x, dtype=np.float64)),
        )
    )
    def test_property_small_arrays(self, scores):
        self._check(scores)

    @pytest.mark.parametrize("seed", range(3))
    def test_profiles_match_stable_argsort(self, seed):
        tree = grow_urrt(10**5, RngStream(seed))
        sizes = subtree_sizes(tree)
        for tag, measure in MEASURES.items():
            profile = compute_profile(tree, measure, sizes)
            if tag == "rumor":
                key = profile.comparator.rel[1:]
            else:
                key = -profile.scores[1:] if measure.larger_is_central else profile.scores[1:]
            want = (key.size - 1) - np.argsort(key[::-1], kind="stable")
            if tag == "rumor":
                assert _rank_exact(key, False).tolist() == want.tolist()
                _resolve_rumor_ties(want, profile.comparator)
            rank = np.zeros(tree.n + 1, dtype=np.int64)
            rank[want + 1] = np.arange(1, tree.n + 1)
            assert profile.rank.tolist() == rank.tolist(), tag

    def test_rank_int64_rule(self):
        # run ids stay below m, so m * m - 1 is the largest composite key
        m = math.isqrt(2**63)
        assert m == 3_037_000_499
        _check_rank_int64(m)
        with pytest.raises(ScoreOverflowError):
            _check_rank_int64(m + 1)
        # rank_vertices checks before it reads a score: nothing is allocated
        scores = np.broadcast_to(np.int64(0), (m + 2,))
        with pytest.raises(ScoreOverflowError):
            rank_vertices(scores, DEGREE)


class TestOracleAgreement:
    def test_exhaustive_small(self):
        # every recursive tree with at most 6 vertices, all measures
        for n in range(1, 7):
            for t in enumerate_recursive_trees(n):
                verify_tree(t)

    @pytest.mark.parametrize("n,seed", [(30, 0), (137, 1), (400, 2)])
    def test_random_trees(self, n, seed):
        verify_tree(grow_urrt(n, RngStream(77, seed)))

    def test_jordan_against_oracle_directly(self):
        t = grow_urrt(80, RngStream(3))
        assert jordan_scores(t)[1:].tolist() == oracle_jordan(t)[1:].tolist()

    def test_rank_against_oracle(self):
        t = grow_urrt(40, RngStream(9))
        expected = oracle_rank(degree_scores(t).tolist(), larger_is_central=True)
        got = compute_profile(t, DEGREE).rank.tolist()
        assert got == expected

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.one_of(compact_strategy(max_n=10), adversarial_compact()))
    def test_property_small_trees(self, compact):
        verify_tree(RecursiveTree(list(compact)))

    def test_rumor_twin_tree_exact_order(self):
        # n = 20001: the float band is about 1e-12 here, far below the old
        # per-vertex band of 2e-3, and mirrored vertices tie exactly.
        tree = RecursiveTree(twin_compact(grow_urrt(10_000, RngStream(406))))
        sizes = subtree_sizes(tree)
        par, size = tree.parent.tolist(), sizes.tolist()

        def cmp(a, b):
            return phi_sign(par, size, tree.n, a, b) or b - a

        want = sorted(range(1, tree.n + 1), key=functools.cmp_to_key(cmp))
        rank = compute_profile(tree, RUMOR, sizes).rank
        assert np.argsort(rank[1:]).tolist() == [v - 1 for v in want]

    @pytest.mark.parametrize(
        "compact,v,forge",
        [
            # 4 and 5 have equal sizes but parents of sizes 3 and 2: not tied
            ([1, 1, 2, 3, 2], 5, lambda rel: rel[4]),
            # the path's end forged onto its center: the tied set stays {2}
            ([1, 2], 3, lambda rel: rel[2]),
            # 2 and 3 tie exactly; a float gap inside the band must not split them
            ([1, 1], 3, lambda rel: np.nextafter(rel[2], np.inf)),
        ],
    )
    def test_rumor_forged_float_collisions(self, compact, v, forge):
        tree = RecursiveTree(compact)
        scores, comparator = rumor_scores(tree)
        comparator.rel[v] = forge(comparator.rel)
        rank, report = rank_vertices(scores, RUMOR, comparator)
        phi = oracle_rumor(tree)
        assert rank[1:].tolist() == oracle_rank(phi, False)[1:]
        best = min(phi[1:])
        assert report.tied_center_set == tuple(w for w in range(1, tree.n + 1) if phi[w] == best)


class TestStructuralInvariants:
    """Centroid facts: at most two tied centers, adjacency, coincidence."""

    @pytest.mark.parametrize("seed", range(12))
    def test_center_set_facts(self, seed):
        t = grow_urrt(500, RngStream(400, seed))
        psi = jordan_scores(t)
        centers = compute_profile(t, JORDAN).report.tied_center_set
        assert 1 <= len(centers) <= 2
        if len(centers) == 2:
            a, b = centers
            assert t.parent[a] == b or t.parent[b] == a
        assert int(psi[list(centers)].max()) <= t.n // 2

    @pytest.mark.parametrize("seed", range(12))
    def test_tied_sets_coincide(self, seed):
        t = grow_urrt(500, RngStream(401, seed))
        sets = {
            tag: compute_profile(t, MEASURES[tag]).report.tied_center_set
            for tag in ("jordan", "closeness", "rumor")
        }
        assert sets["jordan"] == sets["closeness"] == sets["rumor"]

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_away_from_centroid(self, seed):
        t = grow_urrt(300, RngStream(402, seed))
        profile = compute_profile(t, JORDAN)
        centers = set(profile.report.tied_center_set)
        psi = jordan_scores(t)
        close = closeness_scores(t)
        logs, comparator = rumor_scores(t)
        c = profile.report.center_index
        # walk outward from the center; scores must strictly increase
        # once both endpoints are outside the tied set
        children = children_lists(t)
        seen = {c}
        frontier = [c]
        while frontier:
            v = frontier.pop()
            neighbors = list(children[v])
            if v != 1:
                neighbors.append(int(t.parent[v]))
            for w in neighbors:
                if w in seen:
                    continue
                seen.add(w)
                frontier.append(w)
                if v in centers:
                    assert psi[w] >= psi[v]
                    assert close[w] >= close[v]
                    assert comparator.compare(w, v) >= 0
                else:
                    assert psi[w] > psi[v]
                    assert close[w] > close[v]
                    assert comparator.compare(w, v) > 0
        assert len(seen) == t.n


class TestBetweennessFamily:
    @pytest.mark.parametrize("seed", range(8))
    def test_pairs_and_sq_rank_identically(self, seed):
        t = grow_urrt(250, RngStream(403, seed))
        r_sq = compute_profile(t, BETWEENNESS_SQ).rank[1:].tolist()
        r_pairs = compute_profile(t, BETWEENNESS_PAIRS).rank[1:].tolist()
        assert r_sq == r_pairs

    def test_q_factory_tags(self, t4):
        m = betweenness_q(5)
        assert m.tag == "betweenness-q5"
        assert not m.larger_is_central
        scores = compute_profile(t4, m).scores
        assert scores.tolist() == betweenness_sq_scores(t4, q=5).tolist()

    def test_overflow_guard(self, t4):
        with pytest.raises(ScoreOverflowError):
            betweenness_sq_scores(t4, q=70)
        with pytest.raises(ScoreOverflowError):
            compute_profile(t4, betweenness_q(70))

    def test_closeness_int64_rule(self):
        # a total distance is at most n(n - 1)/2; find the last n it fits
        n = math.isqrt(2**64)
        while n * (n - 1) // 2 >= 2**63:
            n -= 1
        _check_closeness_int64(n)
        with pytest.raises(ScoreOverflowError):
            _check_closeness_int64(n + 1)

    @pytest.mark.parametrize("q", [3, 22])
    def test_power_sums_match_oracle_n8(self, q):
        # int64 sums of q-th powers, up to the largest q the guard admits
        # at n = 8: 2 * 7^22 < 2^63 <= 2 * 7^23
        for t in enumerate_recursive_trees(8):
            assert betweenness_sq_scores(t, q=q).tolist() == oracle_betweenness_sq(t, q)
        with pytest.raises(ScoreOverflowError):
            betweenness_sq_scores(t, q=23)


class TestRerootingIdentities:
    def test_closeness_parent_identity(self):
        t = grow_urrt(600, RngStream(404))
        sizes = subtree_sizes(t)
        close = closeness_scores(t)
        for v in range(2, t.n + 1):
            assert close[v] - close[t.parent[v]] == t.n - 2 * sizes[v]

    def test_rumor_parent_identity(self):
        t = grow_urrt(600, RngStream(405))
        sizes = subtree_sizes(t)
        logs, _ = rumor_scores(t)
        for v in range(2, t.n + 1):
            gain = math.log(t.n - sizes[v]) - math.log(sizes[v])
            assert abs((logs[v] - logs[t.parent[v]]) - gain) < 1e-9

    def test_rumor_root_score_is_log_product(self, t4):
        logs, _ = rumor_scores(t4)
        sizes = subtree_sizes(t4)
        assert abs(logs[1] - sum(math.log(int(s)) for s in sizes[2:])) < 1e-12


def _caterpillar(n, spine, seed):
    rng = np.random.default_rng(seed)
    return [v - 1 if v <= spine else int(rng.integers(1, spine + 1)) for v in range(2, n + 1)]


class TestLevelPasses:
    """The per-level passes against the oracles, on bushy and on tall trees."""

    @pytest.mark.parametrize(
        "tree",
        [
            RecursiveTree([1] * 199),
            # root, its 11 children, and 288 grandchildren spread over them
            RecursiveTree([1] * 11 + [2 + (v - 13) % 11 for v in range(13, 301)]),
            grow_urrt(600, RngStream(61, 0)),
            grow_urrt(700, RngStream(61, 1)),
            RecursiveTree(list(range(1, 250))),
            RecursiveTree(_caterpillar(250, 60, 0)),
            RecursiveTree(_caterpillar(250, 10, 1)),
        ],
        ids=["star", "broom2", "urrt600", "urrt700", "path", "caterpillar60", "caterpillar10"],
    )
    def test_against_oracles(self, tree):
        verify_tree(tree)
