"""Growth trajectories with online center and root-rank tracking.

A fixed-size sweep answers "what does the profile look like at size n";
this module answers "how does it evolve along one growth history".  A
trajectory grows a tree one attachment at a time up to a horizon N and
watches two statistics per centrality measure: the center index I_m and
the root rank R_m.

Tracking everything per step would cost O(n) per insertion, so the work
is split by what each statistic needs:

* Center indices for the subtree-based measures coincide with the
  centroid set, which moves by at most one edge per insertion.  The
  centroid, its heaviest child, and the degree leader are maintained in
  O(depth) per step, giving exact per-step change times for I_m.
* Root ranks (and the betweenness index) are evaluated at checkpoints,
  every ``stride`` steps, by the local walks of :mod:`rootrank.walks`,
  which the batch engine shares: vertices at least as central as the
  root form a small connected region around the centroid, so each
  evaluation touches O(R_m) vertices, not O(m).

No checkpoint recomputes a full profile.  Agreement with
:mod:`rootrank.centrality` at every step is enforced by tests on small
horizons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centrality import SWEEP_MEASURES
from .rng import RngStream
from .tree import parents_from_draws
from .walks import ball_ranks, betweenness_stats, jordan_rank

__all__ = [
    "TrajectoryResult",
    "default_stride",
    "checkpoint_grid",
    "run_trajectory",
]

_CENTROID_GROUP = ("jordan", "closeness", "rumor")


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
    """Mutable growth state; one instance per trajectory."""

    __slots__ = (
        "m",
        "parent",
        "size",
        "children",
        "deg",
        "hist",
        "centroid",
        "heavy_child",
        "heavy_size",
        "best_deg",
        "best_deg_label",
    )

    def __init__(self, horizon: int):
        cap = horizon + 1
        self.m = 1
        self.parent = [0] * cap
        self.size = [0] * cap
        self.size[1] = 1
        self.children: list[list[int]] = [[] for _ in range(cap)]
        self.deg = [0] * cap
        self.hist = [1]  # degree histogram over live vertices
        self.centroid = 1
        self.heavy_child = 0
        self.heavy_size = 0
        self.best_deg = 0
        self.best_deg_label = 1

    def _rescan_heavy(self) -> None:
        size = self.size
        hc = 0
        hs = 0
        for ch in self.children[self.centroid]:
            s = size[ch]
            if s > hs:
                hs = s
                hc = ch
        self.heavy_child = hc
        self.heavy_size = hs

    def step(self, target: int) -> None:
        """Attach a new vertex to ``target`` and update all tracked state."""
        size = self.size
        parent = self.parent
        deg = self.deg
        hist = self.hist
        new = self.m + 1

        parent[new] = target
        size[new] = 1
        self.children[target].append(new)

        if len(hist) < 2:
            hist.append(0)
        hist[1] += 1
        d = deg[target]
        hist[d] -= 1
        d += 1
        deg[target] = d
        if d == len(hist):
            hist.append(0)
        hist[d] += 1
        deg[new] = 1

        # Degrees only ever grow, so the lexicographic (degree, label)
        # leader can only be displaced by a vertex that just incremented.
        if d > self.best_deg or (d == self.best_deg and target > self.best_deg_label):
            self.best_deg = d
            self.best_deg_label = target
        if self.best_deg == 1 and new > self.best_deg_label:
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

        if path_child:
            s = size[path_child]
            if path_child == self.heavy_child:
                self.heavy_size = s
            elif s > self.heavy_size:
                self.heavy_child = path_child
                self.heavy_size = s

        while True:
            if 2 * self.heavy_size > m:
                self.centroid = self.heavy_child
                self._rescan_heavy()
                continue
            c = self.centroid
            if c != 1 and 2 * (m - size[c]) > m:
                self.centroid = parent[c]
                self._rescan_heavy()
                continue
            break

    def centroid_index(self) -> int:
        """Center index shared by the subtree-based measures."""
        m = self.m
        c = self.centroid
        if 2 * self.heavy_size == m:
            return max(c, self.heavy_child)
        return c  # also on a parent tie: that tied twin always has a smaller label

    def degree_rank(self) -> int:
        hist = self.hist
        return sum(hist[self.deg[1] :])


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

    last_idx = {t: 0 for t in SWEEP_MEASURES}
    last_rank = {t: 0 for t in SWEEP_MEASURES}
    prev_center = 1
    prev_deg_label = 1
    prev_rank: dict[str, int] = {}
    prev_b_index = 0

    n_checks = len(grid)
    series_rank = {t: np.zeros(n_checks, dtype=np.int64) for t in SWEEP_MEASURES}
    series_index = {t: np.zeros(n_checks, dtype=np.int64) for t in SWEEP_MEASURES}
    check_pos = 0

    def observe_checkpoint() -> None:
        nonlocal check_pos, prev_b_index
        m = traj.m
        size, children = traj.size, traj.children
        rank_c, rank_r = ball_ranks(traj.parent, size, children, m, traj.centroid)
        rank_b, index_b = betweenness_stats(children, size, m)
        ranks = {
            "jordan": jordan_rank(children, size, m),
            "closeness": rank_c,
            "rumor": rank_r,
            "betweenness": rank_b,
            "degree": traj.degree_rank(),
        }
        center = traj.centroid_index()
        for t in SWEEP_MEASURES:
            r = ranks[t]
            if t in prev_rank and r != prev_rank[t]:
                last_rank[t] = m
            prev_rank[t] = r
            series_rank[t][check_pos] = r
            series_index[t][check_pos] = center
        series_index["degree"][check_pos] = traj.best_deg_label
        series_index["betweenness"][check_pos] = index_b
        if prev_b_index and index_b != prev_b_index:
            last_idx["betweenness"] = m
        prev_b_index = index_b
        check_pos += 1

    if grid[0] == 1:
        observe_checkpoint()
    for i, target in enumerate(targets):
        traj.step(target)
        m = i + 2
        center = traj.centroid_index()
        if center != prev_center:
            for t in _CENTROID_GROUP:
                last_idx[t] = m
            prev_center = center
        if traj.best_deg_label != prev_deg_label:
            last_idx["degree"] = m
            prev_deg_label = traj.best_deg_label
        if m % stride == 0:
            observe_checkpoint()

    half = horizon // 2
    return TrajectoryResult(
        replicate=replicate,
        horizon=horizon,
        stride=stride,
        checkpoints=grid,
        last_change_index={t: last_idx[t] for t in SWEEP_MEASURES},
        last_change_rank={t: last_rank[t] for t in SWEEP_MEASURES},
        changed_index={t: last_idx[t] > half for t in SWEEP_MEASURES},
        changed_rank={t: last_rank[t] > half for t in SWEEP_MEASURES},
        series={"rank": series_rank, "index": series_index} if keep_series else None,
    )
