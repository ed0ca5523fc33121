"""Growth trajectories with online center and root-rank tracking.

A fixed-size sweep answers "what does the profile look like at size n";
this module answers "how does it evolve along one growth history".  A
trajectory grows a tree one attachment at a time up to a horizon N and
watches two statistics per centrality measure: the center index I_m and
the root rank R_m.

Tracking everything per step would cost O(n) per insertion, so the work
is split by what each statistic needs:

* Jordan, closeness and rumor share one center index, the last vertex
  of the root path {v : 2 size(v) >= m}, which moves by at most one edge
  per insertion.  It and the degree leader are maintained in O(depth)
  per step, giving exact per-step change times for I_m.
* Root ranks (and the betweenness index) are evaluated at checkpoints,
  every ``stride`` steps, by the two local walks of
  :mod:`rootrank.walks`, which the batch engine shares: one root cone
  for jordan and betweenness, one centroid ball for closeness and rumor.
  Vertices at least as central as the root form a small connected
  region around the centroid, so each evaluation touches O(R_m)
  vertices, not O(m).  Their change times are read off the checkpoint
  series.

No checkpoint recomputes a full profile.  Agreement with
:mod:`rootrank.centrality` at every step is enforced by tests on small
horizons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centrality import CENTROID_GROUP, SWEEP_MEASURES
from .rng import RngStream
from .tree import parents_from_draws
from .walks import ball_ranks, cone_stats

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
    checkpoints: np.ndarray
    last_change_index: dict[str, int]
    last_change_rank: dict[str, int]
    changed_index: dict[str, bool]
    changed_rank: dict[str, bool]
    series: dict[str, dict[str, np.ndarray]] | None = None


class _Trajectory:
    """Mutable growth state; one instance per trajectory.

    ``centroid`` is the center index of the centroid group: the last
    vertex of the root path {v : 2 size(v) >= m}, the larger label of a
    tied pair.  A vertex's degree is ``len(children[v]) + (v > 1)``.
    """

    __slots__ = ("m", "parent", "size", "children", "hist", "centroid", "best_deg_label")

    def __init__(self, horizon: int):
        cap = horizon + 1
        self.m = 1
        self.parent = [0] * cap
        self.size = [0] * cap
        self.size[1] = 1
        self.children: list[list[int]] = [[] for _ in range(cap)]
        self.hist = [1]  # degree histogram over live vertices
        self.centroid = 1
        self.best_deg_label = 1

    def step(self, target: int) -> None:
        """Attach a new vertex to ``target`` and update all tracked state."""
        size = self.size
        parent = self.parent
        hist = self.hist
        new = self.m + 1

        parent[new] = target
        size[new] = 1
        kids = self.children[target]
        kids.append(new)

        if len(hist) < 2:
            hist.append(0)
        hist[1] += 1
        d = len(kids) + (target > 1)
        hist[d - 1] -= 1
        if d == len(hist):
            hist.append(0)
        hist[d] += 1

        # Degrees only ever grow, so the top histogram bucket never empties
        # and the (degree, label) leader can only be displaced by a vertex
        # that just incremented: alone at a new top, or tied with a larger label.
        top = len(hist) - 1
        if d == top and (hist[d] == 1 or target > self.best_deg_label):
            self.best_deg_label = target
        if top == 1:  # m = 2: both vertices have degree 1, the larger label leads
            self.best_deg_label = new

        c = self.centroid
        path_child = 0
        prev = new
        w = target
        while w:
            if w == c:
                path_child = prev
            size[w] += 1
            prev = w
            w = parent[w]
        m = new
        self.m = m

        # The threshold m / 2 rose by one half and only sizes on the new
        # vertex's path grew, so the last vertex of the path moves one edge
        # at most: down to c's child on that path, or up when c fell short.
        if path_child and 2 * size[path_child] >= m:
            self.centroid = path_child
        elif 2 * size[c] < m:
            self.centroid = parent[c]

    def degree_rank(self) -> int:
        return sum(self.hist[len(self.children[1]) :])


def _last_change(series: np.ndarray, grid: np.ndarray) -> int:
    """Largest checkpoint whose entry differs from the one before, else 0."""
    moved = np.flatnonzero(series[1:] != series[:-1])
    return int(grid[moved[-1] + 1]) if moved.size else 0


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
    grid = checkpoint_grid(horizon, stride)

    targets = parents_from_draws(rng.generator().random(horizon - 1)).tolist()

    traj = _Trajectory(horizon)

    n_checks = len(grid)
    series_rank = {t: np.zeros(n_checks, dtype=np.int64) for t in SWEEP_MEASURES}
    series_index = {t: np.zeros(n_checks, dtype=np.int64) for t in SWEEP_MEASURES}

    def observe_checkpoint(m: int) -> None:
        pos = m // stride - 1
        size, children = traj.size, traj.children
        (series_rank["jordan"][pos], series_rank["betweenness"][pos],
         series_index["betweenness"][pos]) = cone_stats(children, size, m)
        series_rank["closeness"][pos], series_rank["rumor"][pos] = ball_ranks(
            traj.parent, size, children, m, traj.centroid)
        series_rank["degree"][pos] = traj.degree_rank()
        for t in CENTROID_GROUP:
            series_index[t][pos] = traj.centroid
        series_index["degree"][pos] = traj.best_deg_label

    # Centroid and degree leader change times are exact per step; ranks and
    # the betweenness index are only seen at checkpoints.
    last_center = 0
    last_degree = 0
    if grid[0] == 1:
        observe_checkpoint(1)
    for m, target in enumerate(targets, 2):
        center = traj.centroid
        leader = traj.best_deg_label
        traj.step(target)
        if traj.centroid != center:
            last_center = m
        if traj.best_deg_label != leader:
            last_degree = m
        if m % stride == 0:
            observe_checkpoint(m)

    last_rank = {t: _last_change(series_rank[t], grid) for t in SWEEP_MEASURES}
    last_idx = dict.fromkeys(CENTROID_GROUP, last_center)
    last_idx["betweenness"] = _last_change(series_index["betweenness"], grid)
    last_idx["degree"] = last_degree
    half = horizon // 2
    return TrajectoryResult(
        replicate=replicate,
        horizon=horizon,
        stride=stride,
        checkpoints=grid,
        last_change_index={t: last_idx[t] for t in SWEEP_MEASURES},
        last_change_rank=last_rank,
        changed_index={t: last_idx[t] > half for t in SWEEP_MEASURES},
        changed_rank={t: last_rank[t] > half for t in SWEEP_MEASURES},
        series={"rank": series_rank, "index": series_index} if keep_series else None,
    )
