"""Shared fixtures.

Reference trees used across the suite (labels are arrival times, vertex 1
is the root):

  T4   parents (2,3,4) -> (1,1,3)     root with children 2,3; 3 has child 4
       sizes [4,1,2,1], Jordan [2,3,2,3], closeness [4,6,4,6]
  P3   path 1-2-3                      parents (1,2)
  S4   star, all attached to the root  parents (1,1,1)

Hypothesis strategies for compact parent lists (parent of v for
v = 2..n) are shared from here: ``compact_strategy`` draws uniform-shape
recursive trees and ``adversarial_compact`` draws the shapes that stress
tie handling.
"""

import pytest
from hypothesis import strategies as st

from rootrank.tree import RecursiveTree


# A near-path tree: at m = 36 vertex 30 is at least as rumor-central as the
# root but lies in neither the betweenness cone nor the closeness region, so
# only the rumor bound of a root-down rank walk reaches it.
NEAR_PATH = (1, 2, 1, 4, 5, 6, 5, 7, 8, 8, 10, 12, 13, 14, 11, 15, 16, 16, 18, 18,
             20, 22, 22, 24, 23, 26, 27, 24, 27, 28, 30, 31, 31, 31, 33)


def compact_strategy(max_n: int = 24):
    """Random valid compact parent lists: parent of v drawn from 1..v-1."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            *[st.integers(min_value=1, max_value=v - 1) for v in range(2, n + 1)]
        )
    )


def children_lists(tree: RecursiveTree) -> list[list[int]]:
    """Children of every vertex in increasing label order, from ``tree.parent``."""
    out: list[list[int]] = [[] for _ in range(tree.n + 1)]
    for v, p in enumerate(tree.parent[2:].tolist(), start=2):
        out[p].append(v)
    return out


def twin_compact(base: RecursiveTree) -> list[int]:
    """Two copies of ``base`` under a new root, labels interleaved.

    Vertex i of the copies becomes 2i and 2i + 1, so the tree stays
    recursive and mirrored vertices are exact rumor ties that are not
    siblings.
    """
    out = [1, 1]
    for p in base.parent[2:].tolist():
        out += [2 * p, 2 * p + 1]
    return out


@st.composite
def adversarial_compact(draw, max_n: int = 60):
    """Stars, paths, brooms, caterpillars and twin trees with n <= max_n."""
    shape = draw(st.sampled_from(["star", "path", "broom", "caterpillar", "twin"]))
    if shape == "twin":
        base = draw(compact_strategy(max_n=(max_n - 1) // 2))
        return twin_compact(RecursiveTree(list(base)))
    n = draw(st.integers(min_value=2, max_value=max_n))
    spine = draw(st.integers(min_value=1, max_value=n))
    if shape == "star":
        return [1] * (n - 1)
    if shape == "path":
        return list(range(1, n))
    if shape == "broom":
        return [min(v - 1, spine) for v in range(2, n + 1)]
    return [
        v - 1 if v <= spine else draw(st.integers(min_value=1, max_value=spine))
        for v in range(2, n + 1)
    ]


@pytest.fixture
def t4() -> RecursiveTree:
    return RecursiveTree([1, 1, 3])


@pytest.fixture
def p3() -> RecursiveTree:
    return RecursiveTree([1, 2])


@pytest.fixture
def s4() -> RecursiveTree:
    return RecursiveTree([1, 1, 1])
