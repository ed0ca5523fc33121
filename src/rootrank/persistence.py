"""Growth trajectories: the center index I_m and the root rank R_m along one tree.

A fixed-size sweep answers "what does the profile look like at size n";
this module answers "how does it evolve along one growth history".  A
trajectory grows a tree to a horizon N and watches two statistics per
centrality measure: the center index I_m and the root rank R_m.

All N - 1 attachments are drawn before any statistic is read, so the
horizon tree is known in full, and every prefix tree is its restriction
to the labels 1..m: a descendant of v born by m has its whole path to v
born by m.  So the subtree size s_m(v) is the number of labels <= m in
v's slice of the horizon tree's preorder, and nothing is stepped:

* The centroid index, which jordan, closeness and rumor share, is the
  last vertex of the root path {v : 2 s_m(v) >= m}.  A vertex c >= 2 can
  be on that path only if its horizon subtree size S(c) >= c - 1, since
  s_m(c) <= min(S(c), m - c + 1).  It is read at every step from the
  size series of those few vertices.
* The degree leader at m is the running maximum of (degree, label) over
  the attachments so far, so its change times are exact per step.  The
  degree rank at m counts the vertices that have reached the root's
  degree by m.
* The other ranks and the betweenness index are read at the checkpoints,
  every ``stride`` steps, by one pass down the horizon tree through
  ``child_series``, :func:`rootrank.walks.checkpoint_walk`.

Every count is exact.  Tests hold the series to ``compute_profile`` on
the prefix trees at every step of small horizons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centrality import CENTROID_GROUP, SWEEP_MEASURES
from .rng import RngStream
from .tree import RecursiveTree, depth_dtype, group_by, parents_from_draws, root_down, subtree_sizes
from .walks import checkpoint_walk

__all__ = [
    "TrajectoryResult",
    "default_stride",
    "checkpoint_grid",
    "run_trajectory",
]


def default_stride(horizon: int) -> int:
    """Checkpoint stride: every step on small runs, every 16 beyond 1e4."""
    return 1 if horizon <= 10_000 else 16


def checkpoint_grid(horizon: int, stride: int) -> np.ndarray:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if stride < 1 or horizon % stride != 0:
        raise ValueError("stride must be >= 1 and divide the horizon")
    return np.arange(stride, horizon + 1, stride, dtype=np.int64)


@dataclass
class TrajectoryResult:
    """Tracked statistics for one growth history.

    ``last_change_index`` and ``last_change_rank`` hold, per measure, the
    largest tree size m at which the statistic differed from its previous
    observation (0 when it never changed).  Index changes are exact
    per-step times except for betweenness, whose index is only observed
    at checkpoints; rank changes are at checkpoint granularity.
    ``changed_*`` flags whether that last change falls in the final-window
    (horizon/2, horizon].  ``series`` retains the full checkpoint table
    (rows aligned with ``checkpoints``) when requested, else None.
    """

    replicate: int
    horizon: int
    stride: int
    last_change_index: dict[str, int]
    last_change_rank: dict[str, int]
    changed_index: dict[str, bool]
    changed_rank: dict[str, bool]
    series: dict[str, dict[str, np.ndarray]] | None = None

    @property
    def checkpoints(self) -> np.ndarray:
        """The checkpoint sizes, derived so that a pooled result stays small."""
        return checkpoint_grid(self.horizon, self.stride)


def _last_change(series: np.ndarray, grid: np.ndarray) -> int:
    """Largest grid entry whose value differs from the one before, else 0."""
    moved = np.flatnonzero(series[1:] != series[:-1])
    return int(grid[moved[-1] + 1]) if moved.size else 0


class _Horizon:
    """The horizon tree in preorder, with the size series it implies.

    ``group_by`` lists each vertex's children in ascending labels (v's are
    ``kids[first[v] : first[v + 1]]``), and they are visited in that order,
    so v's subtree is the preorder slice ``pre[v] : pre[v] + size[v]`` and
    its children's slices follow one another inside it.  ``label`` and
    ``check`` hold, per preorder position, the vertex and the index of the
    first checkpoint at which it is present.  ``parent_degree[v]`` is the
    degree ``parent[v]`` reaches when v attaches.
    """

    __slots__ = ("n", "parent", "size", "kids", "first", "pre", "label", "check",
                 "parent_degree")

    def __init__(self, tree: RecursiveTree, stride: int):
        n, parent = tree.n, tree.parent
        size = subtree_sizes(tree)
        kids, first = group_by(parent[2:], n + 1)
        kids += 2
        start = first[parent[kids]]
        before = np.zeros(n, dtype=np.int64)
        np.cumsum(size[kids], out=before[1:])
        # A child starts one past its parent, after its earlier siblings.
        gain = np.zeros(n + 1, dtype=np.int64)
        gain[kids] = 1 + before[:-1] - before[start]
        pre = root_down(tree, 0, gain)
        idx = depth_dtype(n)
        label = np.empty(n, dtype=idx)
        label[pre[1:]] = np.arange(1, n + 1, dtype=idx)
        # kids[i] is child number i - start[i] + 1 of its parent.
        parent_degree = np.zeros(n + 1, dtype=np.int64)
        parent_degree[kids] = np.arange(1, n) - start + (parent[kids] > 1)
        self.n = n
        self.parent = parent
        self.size = size
        self.kids = kids
        self.first = first
        self.pre = pre
        self.label = label
        self.check = (label - 1) // stride
        self.parent_degree = parent_degree

    def children(self, v: int) -> np.ndarray:
        return self.kids[self.first[v] : self.first[v + 1]]

    def centroids(self) -> np.ndarray:
        """Centroid index at every step m = 1..N (slot 0 unused).

        The vertices with 2 s_m(v) >= m form a root path, and labels grow
        down it, so the index is the largest of them: painting each
        vertex's qualifying steps in ascending label order leaves it.  A
        vertex qualifies only at steps where its parent does, and c >= 2
        only at m <= 2 S(c).
        """
        n, size = self.n, self.size
        center = np.ones(n + 1, dtype=depth_dtype(n))
        candidates = np.flatnonzero(size[2:] >= np.arange(1, n)) + 2
        on_path = {1}
        for c, p in zip(candidates.tolist(), self.parent[candidates].tolist()):
            if p not in on_path:
                continue
            top = min(n, 2 * int(size[c]))
            lo = int(self.pre[c])
            sub = self.label[lo : lo + int(size[c])]
            s = np.cumsum(np.bincount(sub[sub <= top] - c, minlength=top - c + 1))
            steps = np.flatnonzero(2 * s >= np.arange(c, top + 1))
            if steps.size:
                on_path.add(c)
                center[c + steps] = c
        return center

    def degree_leaders(self) -> np.ndarray:
        """Degree index at every step m = 1..N: the largest (degree, label).

        Degrees only grow, so the leader is the running maximum over the
        events "v reaches degree d": the parent of each new vertex, and
        the new vertex itself at degree 1.
        """
        n = self.n
        born = np.arange(2, n + 1)
        events = np.maximum(self.parent_degree[2:] * (n + 1) + self.parent[2:], (n + 1) + born)
        leader = np.ones(n + 1, dtype=np.int64)
        leader[2:] = np.maximum.accumulate(events) % (n + 1)
        return leader

    def degree_ranks(self, grid: np.ndarray) -> np.ndarray:
        """Degree root rank at each checkpoint.

        With the root at degree r, the vertices at least as central are
        those that have reached degree r: all m of them for r = 1, else as
        many as the attachments by m that brought a parent to degree r,
        the root's own included.
        """
        degree = np.searchsorted(self.children(1), grid, side="right")
        rank = np.where(degree == 0, 1, grid)
        for r in set(degree[degree >= 2].tolist()):
            at = degree == r
            born = np.flatnonzero(self.parent_degree == r)
            rank[at] = np.searchsorted(born, grid[at], side="right")
        return rank

    def child_series(self, v: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """v's children and their sizes at checkpoints a..b-1, one row per child.

        A child's size at checkpoint k counts the labels of its slice
        present by k: a bincount by (child, first checkpoint), summed
        along each row.  Labels present before a count in the first
        column, and those first present after b - 1 in a spill column
        that is dropped.
        """
        kids = self.children(v)
        width = b - a + 1
        lo = int(self.pre[v]) + 1
        owner = np.repeat(np.arange(0, kids.size * width, width), self.size[kids])
        column = np.clip(self.check[lo : lo + owner.size] - a, 0, width - 1)
        counts = np.bincount(owner + column, minlength=kids.size * width)
        return kids, np.cumsum(counts.reshape(kids.size, width)[:, :-1], axis=1)


def run_trajectory(
    horizon: int,
    rng: RngStream,
    stride: int | None = None,
    keep_series: bool = False,
    replicate: int = 0,
) -> TrajectoryResult:
    """Grow one trajectory to ``horizon`` and track I_m and R_m.

    Attachment draws replay ``grow_urrt`` on the same stream, so the tree
    at the horizon matches the fixed-size generator replicate for
    replicate.  ``stride`` must divide the horizon.
    """
    if stride is None:
        stride = default_stride(horizon)
    checkpoint_grid(horizon, stride)  # rejects a bad horizon or stride before any draw
    draws = rng.generator().random(horizon - 1)
    return _track(RecursiveTree(parents_from_draws(draws), validate=False), stride,
                  keep_series, replicate)


def _track(
    tree: RecursiveTree, stride: int, keep_series: bool = False, replicate: int = 0
) -> TrajectoryResult:
    """Track the trajectory whose tree at the horizon ``tree.n`` is ``tree``."""
    horizon = tree.n
    grid = checkpoint_grid(horizon, stride)
    horizon_tree = _Horizon(tree, stride)
    series_rank, between = checkpoint_walk(horizon_tree, grid)
    series_rank["degree"] = horizon_tree.degree_ranks(grid)
    center = horizon_tree.centroids()
    leader = horizon_tree.degree_leaders()
    series_index = dict.fromkeys(CENTROID_GROUP, center[grid].astype(np.int64))
    series_index["betweenness"] = between
    series_index["degree"] = leader[grid]

    # Centroid and degree leader change times are exact per step; ranks and
    # the betweenness index are only seen at checkpoints.
    steps = np.arange(1, horizon + 1)
    last_idx = dict.fromkeys(CENTROID_GROUP, _last_change(center[1:], steps))
    last_idx["betweenness"] = _last_change(between, grid)
    last_idx["degree"] = _last_change(leader[1:], steps)
    last_rank = {t: _last_change(series_rank[t], grid) for t in SWEEP_MEASURES}
    half = horizon // 2
    return TrajectoryResult(
        replicate=replicate,
        horizon=horizon,
        stride=stride,
        last_change_index={t: last_idx[t] for t in SWEEP_MEASURES},
        last_change_rank=last_rank,
        changed_index={t: last_idx[t] > half for t in SWEEP_MEASURES},
        changed_rank={t: last_rank[t] > half for t in SWEEP_MEASURES},
        series={"rank": {t: series_rank[t] for t in SWEEP_MEASURES},
                "index": {t: series_index[t] for t in SWEEP_MEASURES}} if keep_series else None,
    )
