"""Root ranks by one local walk down from the root.

A root rank counts the vertices at least as central as the root.  For
jordan, betweenness, closeness and rumor they lie in small regions that
contain the root and are closed upwards, the root-finding sets of
Bubeck, Devroye and Lugosi ("Finding Adam in random growing trees",
2017), so each rank is found by walking them instead of scoring all m
vertices; the centroid path lies in them too.  This module alone states
that rule, in two shapes that the tests hold to ``compute_profile`` and
to each other: ``root_walk`` reads one tree, for the batch engine, and
``checkpoint_walk`` the horizon tree of a growth trajectory, at all its
checkpoints at once.

Rumor diffs are float sums down the root path.  A vertex at depth h gets
the band ``rumor_band(m, h + 1)``, which covers its own diff and its
children's, and diffs within it are settled by ``phi_sign``.  Scores are
exact Python integers, so none can overflow.
"""

from __future__ import annotations

from math import exp, isqrt, log

import numpy as np

from .centrality import phi_sign, rumor_band

__all__ = ["root_walk", "checkpoint_walk"]


def _rumor_least(m, r, tol, exp):
    """Least size s at which a child of a vertex with rumor diff r can
    lie in the rumor region.

    tol bounds the float error of the child's diff r + log(m - s) - log(s),
    so it is <= 0 only if (m - s) / s <= exp(tol - r), that is
    s >= m / (1 + exp(tol - r)), lowered here by a margin far above the
    rounding of that bound.  Where ``exp`` overflows the bound is 0:
    ``np.exp`` gives inf, ``math.exp`` raises OverflowError.
    """
    return m / (1 + exp(tol - r)) * (1 - 1e-9)


def root_walk(parent, size, children, m: int) -> tuple[int, int, int, int, int, int]:
    """(jordan rank, betweenness rank, betweenness index, closeness rank,
    rumor rank, centroid index) by one depth-first walk from the root.

    The walk reads ``children[v]``, the children of v, and ``size[v]``,
    the subtree sizes; ``phi_sign`` also reads ``parent[v]``.  ``size``
    and ``parent`` may be any sequences whose items are Python ints, such
    as a list or a memoryview of an int64 array.

    Three regions hold every vertex that can count, each closed upwards,
    so a child w of v is visited when s(w) reaches the least size one of
    them asks for:

    * betweenness scores v by the squared component sizes left by removing
      it, so score(v) <= score(root) needs (m - s(v))^2 <= score(root):
      the cone s(v) >= m - isqrt(score(root)).  The best score, largest
      label on ties, lies in it.  Jordan scores v by max(m - s(v), largest
      child size); a child of v != 1 is smaller than psi(root), the root's
      score, so v counts for jordan exactly when s(v) >= m - psi(root),
      which lies in the cone as score(root) >= psi(root)^2.  So does the
      path {v : 2 s(v) >= m}: its v != 1 lie in a root subtree of size
      M >= m/2, and cone <= m - M <= s(v).  The walk pops the path in depth
      order; its last pop is the centroid index, or a tied pair's child.
    * closeness and rumor count v by the root-relative diffs
      d(w) = d(v) + m - 2 s(w) and r(w) = r(v) + log(m - s(w)) - log(s(w)),
      which grow convexly down any root path, so their regions d <= 0 and
      r <= 0 are closed upwards.  d(w) <= 0 needs
      s(w) >= (d(v) + m + 1) // 2, and r(w) <= 0 needs ``_rumor_least``.
    """
    kids = children[1]
    root_score = sum(size[w] ** 2 for w in kids)
    jordan = m - max((size[w] for w in kids), default=0)
    cone = m - isqrt(root_score)
    rank_j = rank_b = rank_c = rank_r = 0
    best_score, best = root_score, 1
    # (vertex, depth, closeness diff, rumor log diff); the root counts for every rank
    stack = [(1, 0, 0, 0.0)]
    bands = []  # bands[h] for depth h; the walk reaches h only after h - 1
    while stack:
        v, h, d, r = stack.pop()
        if h == len(bands):
            bands.append(rumor_band(m, h + 1))
        tol = bands[h]
        s = size[v]
        if 2 * s >= m:
            center = v
        rank_j += s >= jordan
        rank_c += d <= 0
        if r < -tol:
            rank_r += 1
        elif r <= tol:
            rank_r += v == 1 or phi_sign(parent, size, m, v, 1) <= 0
        score = (m - s) ** 2
        kids = children[v]
        if kids:
            try:
                least = min(cone, (d + m + 1) // 2, _rumor_least(m, r, tol, exp))
            except OverflowError:  # every child can be in the rumor region
                least = 0
            for w in kids:
                s = size[w]
                score += s * s
                if s >= least:
                    stack.append((w, h + 1, d + m - 2 * s, r + log(m - s) - log(s)))
        if score <= root_score:
            rank_b += 1
            if score < best_score or (score == best_score and v > best):
                best_score, best = score, v
    return rank_j, rank_b, best, rank_c, rank_r, center


def checkpoint_walk(horizon, grid: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Jordan, betweenness, closeness and rumor root ranks at each
    checkpoint, and the betweenness index.

    ``horizon`` is read through ``horizon.n`` and
    ``horizon.child_series(v, a, b)``, v's children and their sizes at
    checkpoints a..b-1.  A child is visited when its size reaches the
    least one of ``root_walk``'s regions asks for at some checkpoint m of
    ``grid``.  Its window, the checkpoints from the first such to the
    last, bounds where it or any vertex below it can count, so its series
    span only that window.  Bands are taken at the largest m, ``n``.
    """
    checks, n = grid.size, horizon.n
    ranks = {t: np.ones(checks, dtype=np.int64)
             for t in ("jordan", "betweenness", "closeness", "rumor")}
    kids, sizes = horizon.child_series(1, 0, checks)
    root = (sizes * sizes).sum(0)
    jordan = grid - sizes.max(0, initial=0)
    root_sd = np.sqrt(root).astype(np.int64)  # off by one at most, and rarely
    for k in np.flatnonzero((root_sd**2 > root) | ((root_sd + 1) ** 2 <= root)).tolist():
        root_sd[k] = isqrt(int(root[k]))
    cone = grid - root_sd
    best = root.copy()
    best_label = np.ones(checks, dtype=np.int64)
    stack = []

    def push(a, kids, sizes, d, r, tol, path):
        """Stack the children that lie in a region at some checkpoint."""
        m = grid[a : a + d.size]
        with np.errstate(over="ignore"):
            rumor = _rumor_least(m, r, tol, np.exp)
        least = np.minimum(np.minimum(cone[a : a + d.size], (d + m + 1) // 2), rumor)
        hit = sizes >= np.maximum(least, 1)
        for j in np.flatnonzero(hit.any(1)).tolist():
            cols = np.flatnonzero(hit[j])
            lo, hi = int(cols[0]), int(cols[-1]) + 1
            s = sizes[j, lo:hi]
            mc = m[lo:hi]
            stack.append((int(kids[j]), a + lo, s.copy(), d[lo:hi] + mc - 2 * s,
                          r[lo:hi] + (np.log(mc - s) - np.log(s)), path))

    push(0, kids, sizes, np.zeros(checks, dtype=np.int64), np.zeros(checks),
         rumor_band(n, 1), ())
    while stack:
        v, a, s, d, r, path = stack.pop()
        path += ((v, a, s),)  # (u, first checkpoint, u's sizes) from the root down to v
        tol = rumor_band(n, len(path) + 1)
        w = slice(a, a + s.size)
        kids, sizes = horizon.child_series(v, w.start, w.stop)
        m = grid[w]
        score = (m - s) ** 2 + (sizes * sizes).sum(0)
        ranks["jordan"][w] += s >= jordan[w]
        ranks["betweenness"][w] += score <= root[w]
        tail, tail_label = best[w], best_label[w]
        better = (score < tail) | ((score == tail) & (v > tail_label))
        tail[better] = score[better]
        tail_label[better] = v
        ranks["closeness"][w] += d <= 0
        ranks["rumor"][w] += r < -tol
        for k in (a + np.flatnonzero(np.abs(r) <= tol)).tolist():
            size = {u: int(su[k - b]) for u, b, su in path}  # at checkpoint k
            labels = [u for u, _, _ in path]
            parent = dict(zip(labels, [1] + labels[:-1]))
            ranks["rumor"][k] += phi_sign(parent, size, int(grid[k]), v, 1) <= 0
        push(a, kids, sizes, d, r, tol, path)
    return ranks, best_label

