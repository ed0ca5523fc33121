"""Root ranks by one local walk down from the root.

A root rank counts the vertices at least as central as the root.  For
jordan, betweenness, closeness and rumor those vertices form a small
connected region that contains the root, the root-finding sets of
Bubeck, Devroye and Lugosi ("Finding Adam in random growing trees",
2017), so each rank is found by walking that region instead of scoring
all m vertices.  ``root_walk`` descends from the root once for all four
ranks and the betweenness index.  The batch engine calls it on children
found from one parent column on demand.  The growth trajectories of
:mod:`rootrank.persistence` apply the same region rule to their horizon
tree, as vectors over all checkpoints; the tests hold both shapes to
``compute_profile``.

The walk reads ``children[v]``, the children of v, and ``size[v]``, the
subtree sizes; ``phi_sign`` also reads ``parent[v]``.  ``size`` and
``parent`` may be any sequences whose items are Python ints, such as a
list or a memoryview of an int64 array.  Scores are exact Python
integers, so none can overflow.
"""

from __future__ import annotations

from math import exp, isqrt, log

from .centrality import phi_sign, rumor_band

__all__ = ["root_walk"]


def root_walk(parent, size, children, m: int) -> tuple[int, int, int, int, int]:
    """(jordan rank, betweenness rank, betweenness index, closeness rank,
    rumor rank) by one depth-first walk from the root.

    Three regions hold every vertex that can count, each closed upwards,
    so a child w of v is visited when s(w) reaches the least size one of
    them asks for:

    * betweenness scores v by the squared component sizes left by removing
      it, so score(v) <= score(root) needs (m - s(v))^2 <= score(root):
      the cone s(v) >= m - isqrt(score(root)).  The best score, largest
      label on ties, lies in it.  Jordan scores v by max(m - s(v), largest
      child size); a child of v != 1 is smaller than psi(root), the root's
      score, so v counts for jordan exactly when s(v) >= m - psi(root),
      which lies in the cone as score(root) >= psi(root)^2.
    * closeness and rumor count v by the root-relative diffs
      d(w) = d(v) + m - 2 s(w) and r(w) = r(v) + log(m - s(w)) - log(s(w)),
      which grow convexly down any root path, so their regions d <= 0 and
      r <= 0 are closed upwards.  d(w) <= 0 needs
      s(w) >= (d(v) + m + 1) // 2, and a float r(w) <= tol needs
      s(w) >= m / (1 + exp(tol - r(v))), lowered here by a margin far above
      the rounding of that bound.

    Rumor diffs within ``rumor_band`` of 0 are settled by ``phi_sign``.
    Any path has at most m - 1 edges, so that band is sound for any shape.
    """
    kids = children[1]
    root_score = sum(size[w] ** 2 for w in kids)
    jordan = m - max((size[w] for w in kids), default=0)
    cone = m - isqrt(root_score)
    tol = rumor_band(m, m - 1)
    rank_j = rank_b = rank_c = rank_r = 0
    best_score, best = root_score, 1
    # (vertex, closeness diff, rumor log diff); the root counts for every rank
    stack = [(1, 0, 0.0)]
    while stack:
        v, d, r = stack.pop()
        s = size[v]
        rank_j += s >= jordan
        rank_c += d <= 0
        if r < -tol:
            rank_r += 1
        elif r <= tol:
            rank_r += phi_sign(parent, size, m, v, 1) <= 0
        try:
            rumor = m / (1 + exp(tol - r)) * (1 - 1e-9)
        except OverflowError:
            rumor = 0
        least = min(cone, (d + m + 1) // 2, rumor)
        score = (m - s) ** 2
        for w in children[v]:
            s = size[w]
            score += s * s
            if s >= least:
                stack.append((w, d + m - 2 * s, r + log(m - s) - log(s)))
        if score <= root_score:
            rank_b += 1
            if score < best_score or (score == best_score and v > best):
                best_score, best = score, v
    return rank_j, rank_b, best, rank_c, rank_r
