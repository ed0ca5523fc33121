"""Exact distributional references against enumeration and a plain recursion.

P(R_n = 1) for degree is the chance that the root's degree strictly beats
every other vertex's.  The recursion in exact_degree_root_probability is
checked exactly against a count over all recursive trees for n <= 8, and
against the same recursion written as a direct loop for larger n.  The
closed forms for the centroid's P(I_n = 1), the mean jordan root rank and
its truncated mean are checked in exact fractions against the oracle
jordan scorer on every recursive tree with n <= 8.
"""

from fractions import Fraction

import numpy as np
import pytest

from rootrank.oracles import (
    exact_centroid_root_probability,
    exact_degree_root_probability,
    exact_jordan_mean_root_rank,
    exact_jordan_truncated_mean,
    oracle_degree,
    oracle_jordan,
    oracle_rank,
)
from rootrank.tree import enumerate_recursive_trees, subtree_sizes

# P(R_n = 1) for n = 2..8 by full enumeration
ENUMERATED = {
    2: Fraction(0),
    3: Fraction(1, 2),
    4: Fraction(1, 6),
    5: Fraction(7, 24),
    6: Fraction(3, 10),
    7: Fraction(191, 720),
    8: Fraction(599, 2520),
}


def _enumerated_probability(n):
    hits = trees = 0
    for tree in enumerate_recursive_trees(n):
        deg = oracle_degree(tree)
        hits += int((deg[1:] >= deg[1]).sum() == 1)
        trees += 1
    return Fraction(hits, trees)


def _direct_recursion(n):
    """(n-1) A_n^a(m) = sum_k B_k(m) A_{n-k}^{a-1}(m), every m, no truncation."""
    if n == 1:
        return 1.0
    total = 0.0
    for m in range(n - 1):
        A = np.zeros((m + 2, n + 1))
        B = np.zeros(n + 1)
        A[0, 1] = 1.0
        B[1] = A[:m, 1].sum()
        for j in range(2, n + 1):
            A[1:, j] = A[:-1, j - 1 : 0 : -1] @ B[1:j] / (j - 1)
            B[j] = A[:m, j].sum()
        total += A[m + 1, n]
    return total


@pytest.mark.parametrize("n", range(1, 9))
def test_matches_enumeration(n):
    want = _enumerated_probability(n)
    if n in ENUMERATED:
        assert want == ENUMERATED[n]
    assert exact_degree_root_probability(n) == pytest.approx(float(want), abs=1e-15)


@pytest.mark.parametrize("n", [9, 17, 40, 129, 200])
def test_matches_direct_recursion(n):
    # 129 and 200 sum root degrees up to 27 over two series batches; 40 and
    # 200 skip the unused top of a power-of-two block
    assert exact_degree_root_probability(n) == pytest.approx(
        _direct_recursion(n), abs=1e-12
    )


@pytest.mark.slow
def test_reference_values():
    assert exact_degree_root_probability(1_000) == pytest.approx(0.100157, abs=1e-6)
    assert exact_degree_root_probability(10_000) == pytest.approx(0.072101, abs=1e-6)


def test_rejects_empty_tree():
    with pytest.raises(ValueError):
        exact_degree_root_probability(0)


@pytest.mark.parametrize("n", range(1, 9))
def test_jordan_closed_forms_match_enumeration(n):
    centroid_at_root = rank_sum = trees = 0
    rank_by_largest = [0] * n  # rank sums by the root's largest subtree M
    for tree in enumerate_recursive_trees(n):
        rank = oracle_rank(oracle_jordan(tree), larger_is_central=False)
        centroid_at_root += rank.index(1) == 1  # ties rank the largest label first
        rank_sum += rank[1]
        trees += 1
        rank_by_largest[int(subtree_sizes(tree)[tree.parent == 1].max(initial=0))] += rank[1]
    assert exact_centroid_root_probability(n) == Fraction(centroid_at_root, trees)
    assert exact_jordan_mean_root_rank(n) == Fraction(rank_sum, trees)
    for b0 in range((n + 1) // 2 - 1, n):
        want = Fraction(sum(rank_by_largest[: b0 + 1]), trees)
        assert exact_jordan_truncated_mean(n, b0) == want, b0


def test_jordan_truncated_mean_values():
    assert float(exact_jordan_truncated_mean(1_000, 900)) == pytest.approx(2.5111409, abs=1e-7)
    assert float(exact_jordan_truncated_mean(10_000, 9000)) == pytest.approx(2.5047830, abs=1e-7)


@pytest.mark.parametrize("n, b0", [(0, 0), (1, 1), (10, 3), (10, 10), (9, 3), (9, -1)])
def test_jordan_truncated_mean_rejects_b0_outside_range(n, b0):
    with pytest.raises(ValueError):
        exact_jordan_truncated_mean(n, b0)


@pytest.mark.parametrize("closed_form", [exact_centroid_root_probability,
                                         exact_jordan_mean_root_rank])
def test_closed_forms_reject_empty_tree(closed_form):
    with pytest.raises(ValueError):
        closed_form(0)
