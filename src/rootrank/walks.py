"""Root ranks by two local walks: the root cone and the centroid ball.

A root rank counts the vertices at least as central as the root.  For
jordan, closeness, rumor and betweenness those vertices form a small
connected region at the centroid, the root-finding sets of Bubeck,
Devroye and Lugosi ("Finding Adam in random growing trees", 2017), so
each rank is found by walking that region instead of scoring all m
vertices.  Jordan and betweenness share one up-closed cone below the
root (``cone_stats``, which also finds the betweenness index); closeness
and rumor share one ball around the centroid (``ball_ranks``).  The
batch engine calls both walks on children found from one parent column
on demand.  The growth trajectories of :mod:`rootrank.persistence` read
the same regions from their horizon tree by code of their own, so the
two are independent implementations that the tests hold to each other.

Every walk reads ``children[v]``, the children of v, and ``size[v]``,
the subtree sizes; the ball walk also reads ``parent[v]``.  ``size`` and
``parent`` may be any sequences whose items are Python ints, such as a
list or a memoryview of an int64 array.  Scores are exact Python
integers, so none can overflow.
"""

from __future__ import annotations

from math import isqrt, log

from .centrality import phi_sign, rumor_band

__all__ = ["cone_stats", "ball_ranks"]


def cone_stats(children, size, m: int) -> tuple[int, int, int]:
    """(jordan rank, betweenness rank, betweenness index) by one cone walk.

    The betweenness score of v is the sum of squared component sizes left
    by removing it.  Any v with score <= score(root) satisfies
    (m - size(v))^2 <= score(root), so candidates form an up-closed cone
    reachable from the root by descending while sizes stay large enough.
    The best score, largest label on ties, is always among them.

    The jordan score of v is max(m - size(v), max child size).  A child of
    v != 1 lies inside a root subtree, so its size is below psi(root),
    the root's score; v thus counts for jordan exactly when
    size(v) >= m - psi(root).  As score(root) >= psi(root)^2, every such v
    lies in the cone.
    """
    root_sizes = [size[ch] for ch in children[1]]
    psi_root = max(root_sizes, default=0)
    root_score = sum(s * s for s in root_sizes)
    s_min = m - isqrt(root_score)
    jordan_min = m - psi_root
    rank_j = 0
    rank_b = 0
    best_score = root_score
    best_label = 1
    stack = [1]
    while stack:
        v = stack.pop()
        s = size[v]
        if s >= jordan_min:
            rank_j += 1
        score = (m - s) ** 2
        for ch in children[v]:
            s = size[ch]
            score += s * s
            if s >= s_min:
                stack.append(ch)
        if score <= root_score:
            rank_b += 1
        if score < best_score or (score == best_score and v > best_label):
            best_score = score
            best_label = v
    return rank_j, rank_b, best_label


def ball_ranks(parent, size, children, m: int, c: int) -> tuple[int, int]:
    """(closeness rank, rumor rank) via one ball walk from centroid ``c``.

    ``c`` is the centroid index, the last vertex of the root path
    {v : 2 size(v) >= m}, as the batch engine passes it.  Both scores
    increase weakly along any path leaving the centroid, so every vertex
    at least as central as the root lies inside the region where the
    running diff stays at or below the root's diff.  Rumor diffs within
    the float band of the root's are settled by ``phi_sign``.
    """
    droot_c = 0
    droot_r = 0.0
    w = c
    while w != 1:
        s = size[w]
        droot_c += 2 * s - m
        droot_r += log(s) - log(m - s)
        w = parent[w]

    # Any path has at most m - 1 edges, so this band is sound for any shape.
    tol = rumor_band(m, m - 1)
    count_c = 0
    count_r = 0
    pending: list[int] = []
    # (vertex, came_from, closeness diff, rumor log diff, c in ball, r in ball)
    stack = [(c, 0, 0, 0.0, True, True)]
    while stack:
        v, src, dc, dr, in_c, in_r = stack.pop()
        if in_c:
            count_c += 1
        if in_r:
            count_r += 1
        for w in children[v]:
            if w == src:
                continue
            s = size[w]
            ndc = dc + (m - 2 * s)
            ndr = dr + (log(m - s) - log(s))
            nin_c = in_c and ndc <= droot_c
            nin_r = in_r and ndr <= droot_r + tol
            if nin_c or nin_r:
                if nin_r and ndr >= droot_r - tol:
                    pending.append(w)
                    nin_r = False
                stack.append((w, v, ndc, ndr, nin_c, nin_r))
        p = parent[v]
        if p and p != src:
            s = size[v]
            ndc = dc + (2 * s - m)
            ndr = dr + (log(s) - log(m - s))
            nin_c = in_c and ndc <= droot_c
            nin_r = in_r and ndr <= droot_r + tol
            if nin_c or nin_r:
                if nin_r and ndr >= droot_r - tol:
                    pending.append(p)
                    nin_r = False
                stack.append((p, v, ndc, ndr, nin_c, nin_r))
    for v in pending:
        if phi_sign(parent, size, m, v, 1) <= 0:
            count_r += 1
    return count_c, count_r
