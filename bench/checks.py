"""Exact references and output checkers for the rootrank benchmark.

The references are computed from parent arrays with code of their own:
depths by pointer jumping, sizes and path sums level by level in numpy,
rumor comparisons as exact integer path products.  None of it calls
rootrank's scorers, engine or trackers, so a fault there cannot hide in
the reference.  Every checker returns a list of problems, empty when the
output is right, so that ``selftest.py`` can plant a corruption and see
it rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Binomial checks allow this many standard errors: a false alarm has
# probability about 6e-7 per check, so thousands of runs stay quiet.
Z_LIMIT = 5.0

# Root-relative rumor log scores are sums of at most depth terms, each
# rounded to about 1e-15; gaps inside this band are settled exactly.
RUMOR_BAND = 1e-9

CENTROID_GROUP = ("jordan", "closeness", "rumor")


def root_centroid_probability(n: int, exact: bool = False):
    """Q_n, the probability that the root of a URRT on n vertices is the strict centroid.

    Vertex 2's subtree has a uniform size in 1..n-1 and the rest is a URRT
    on the remaining j vertices, so with m = ceil(n/2) - 1 and F(j) the
    probability that every root subtree of a URRT on j vertices has at
    most m vertices, (j - 1) F(j) = sum_{i=max(1, j-m)}^{j-1} F(i) and
    Q_n = F(n).  This is P(R_n = 1) for jordan, closeness and rumor, whose
    unique best vertex is the strict centroid.  Prefix sums make it O(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = (n + 1) // 2 - 1
    one = Fraction(1) if exact else 1.0
    f = [0 * one] * (n + 1)
    prefix = [0 * one] * (n + 1)
    f[1] = prefix[1] = one
    for j in range(2, n + 1):
        f[j] = (prefix[j - 1] - prefix[max(1, j - m) - 1]) / (j - 1)
        prefix[j] = prefix[j - 1] + f[j]
    return f[n]


def binomial_problems(label: str, hits: int, trials: int, p: float) -> list[str]:
    se = math.sqrt(p * (1.0 - p) / trials)
    est = hits / trials
    if abs(est - p) > Z_LIMIT * se:
        return [f"{label}: P(R=1) {est:.6f} over {trials} is more than "
                f"{Z_LIMIT} SE ({se:.6f}) from the exact {p:.6f}"]
    return []


class TreeRef:
    """Depths, subtree sizes and levels of one recursive tree.

    ``parent`` is indexed by vertex with ``parent[1] == 0``; slot 0 is
    unused throughout.
    """

    def __init__(self, parent: np.ndarray):
        parent = np.asarray(parent, dtype=np.int64)
        n = parent.size - 1
        self.n = n
        self.parent = parent
        anc = parent.copy()
        anc[0] = 0
        anc[1] = 1
        depth = np.ones(n + 1, dtype=np.int64)  # distance to anc
        depth[:2] = 0
        while True:
            far = anc[anc]
            if np.array_equal(far, anc):
                break
            depth += depth[anc]
            anc = far
        self.depth = depth
        order = np.argsort(depth[1:], kind="stable") + 1
        bounds = np.cumsum(np.bincount(depth[1:]))
        self.levels = np.split(order, bounds[:-1])
        size = np.ones(n + 1, dtype=np.int64)
        size[0] = 0
        for level in reversed(self.levels[1:]):
            np.add.at(size, parent[level], size[level])
        self.size = size

    def path_sum(self, x: np.ndarray) -> np.ndarray:
        """Sum of ``x[w]`` over the non-root vertices w from the root to v."""
        out = np.zeros_like(x)
        for level in self.levels[1:]:
            out[level] = out[self.parent[level]] + x[level]
        return out

    def score(self, tag: str) -> np.ndarray:
        """Score of every vertex under a non-rumor measure, slot 0 set to 0."""
        n, par, size = self.n, self.parent, self.size
        above = n - size
        above[:2] = 0
        if tag == "jordan":
            out = np.zeros(n + 1, dtype=np.int64)
            np.maximum.at(out, par[2:], size[2:])
            out = np.maximum(out, above)
        elif tag == "closeness":
            out = int(self.depth.sum()) + n * self.depth - 2 * self.path_sum(size)
        elif tag in ("betweenness-sq", "betweenness-pairs"):
            out = above * above
            np.add.at(out, par[2:], size[2:] * size[2:])
            if tag == "betweenness-pairs":
                out = ((n - 1) ** 2 - out) // 2
        elif tag == "degree":
            out = np.bincount(par[2:], minlength=n + 1).astype(np.int64)
            out[2:] += 1
        else:
            raise ValueError(f"no reference score for {tag!r}")
        out[0] = 0
        return out


class RumorRef:
    """Exact rumor comparisons on one tree.

    phi(v) / phi(root) is the product of (n - s_w) / s_w over the non-root
    vertices w on the root-to-v path, so two vertices compare by
    cross-multiplying two integer path products.
    """

    def __init__(self, tree: TreeRef):
        self.tree = tree
        n, size = tree.n, tree.size
        gain = np.zeros(n + 1, dtype=np.float64)
        gain[2:] = np.log((n - size[2:]).astype(np.float64))
        gain[2:] -= np.log(size[2:].astype(np.float64))
        self.logdiff = tree.path_sum(gain)

    def _ratio(self, v: int) -> tuple[int, int]:
        n, par, size = self.tree.n, self.tree.parent, self.tree.size
        num = den = 1
        while v != 1:
            s = int(size[v])
            num *= n - s
            den *= s
            v = int(par[v])
        return num, den

    def compare(self, a: int, b: int) -> int:
        """Sign of phi(a) - phi(b)."""
        num_a, den_a = self._ratio(a)
        num_b, den_b = self._ratio(b)
        lhs, rhs = num_a * den_b, num_b * den_a
        return (lhs > rhs) - (lhs < rhs)

    def before(self, a: int, b: int) -> bool:
        """Whether a ranks ahead of b: smaller phi, or equal phi and larger label."""
        c = self.compare(a, b)
        return c < 0 or (c == 0 and a > b)

    def near(self, v: int) -> np.ndarray:
        """Vertices whose float log score is within the band of v's."""
        return np.flatnonzero(np.abs(self.logdiff[1:] - self.logdiff[v]) <= RUMOR_BAND) + 1

    def root_rank(self) -> int:
        """Number of vertices with phi(v) <= phi(root), the root included."""
        sure = int((self.logdiff[1:] < -RUMOR_BAND).sum())
        return sure + sum(1 for v in self.near(1) if self.compare(int(v), 1) <= 0)

    def tied_with(self, v: int) -> tuple[int, ...]:
        return tuple(int(w) for w in self.near(v) if self.compare(int(w), v) == 0)


def _order(rank: np.ndarray) -> np.ndarray | None:
    """Vertices by increasing rank, or None when rank is not a permutation."""
    n = rank.size - 1
    body = rank[1:]
    if body.min(initial=1) < 1 or body.max(initial=1) > n:
        return None
    order = np.zeros(n, dtype=np.int64)
    order[body - 1] = np.arange(1, n + 1)
    if (order == 0).any():
        return None
    return order


def profile_problems(parent: np.ndarray, profiles: dict, head: int = 16) -> list[str]:
    """Check ``compute_profile`` outputs for every measure of ``MEASURES``.

    ``profiles`` maps a measure tag to an object with ``scores``, ``rank``
    and ``report``.  Non-rumor scores must equal the reference scores and
    ranks must follow them with the larger label first on ties.  Rumor
    ranks are checked at the root, over the first ``head`` places and for
    the tied center set, all with exact path products.
    """
    tree = TreeRef(parent)
    n = tree.n
    out: list[str] = []
    for tag, prof in profiles.items():
        order = _order(prof.rank)
        if order is None:
            out.append(f"{tag}: rank is not a permutation of 1..{n}")
            continue
        rep = prof.report
        if rep.center_index != order[0] or rep.root_rank != prof.rank[1]:
            out.append(f"{tag}: report {rep} disagrees with the rank array")
        if tag == "rumor":
            continue
        ref = tree.score(tag)
        if not np.array_equal(prof.scores, ref):
            bad = int(np.flatnonzero(prof.scores != ref)[0])
            out.append(f"{tag}: score of vertex {bad} is {prof.scores[bad]}, expected {ref[bad]}")
            continue
        key = -ref if prof.measure.larger_is_central else ref
        k = key[order]
        step = np.diff(k)
        bad = np.flatnonzero((step < 0) | ((step == 0) & (np.diff(order) > 0)))
        if bad.size:
            i = int(bad[0])
            out.append(f"{tag}: vertices {order[i]} and {order[i + 1]} at ranks "
                       f"{i + 1} and {i + 2} are out of order")
        best = np.flatnonzero(ref[1:] == ref[order[0]]) + 1
        if rep.tied_center_set != tuple(int(v) for v in best):
            out.append(f"{tag}: tied center set {rep.tied_center_set}, expected {tuple(best)}")
    if "betweenness-sq" in profiles and "betweenness-pairs" in profiles:
        if not np.array_equal(profiles["betweenness-sq"].rank, profiles["betweenness-pairs"].rank):
            out.append("betweenness-sq and betweenness-pairs rank differently")
    tied = {t: profiles[t].report.tied_center_set for t in CENTROID_GROUP if t in profiles}
    if len(set(tied.values())) > 1:
        out.append(f"tied center sets differ: {tied}")
    if "rumor" in profiles and _order(profiles["rumor"].rank) is not None:
        out.extend(_rumor_problems(RumorRef(tree), profiles["rumor"], head))
    return out


def _rumor_problems(ref: RumorRef, prof, head: int) -> list[str]:
    out = []
    rank = prof.rank
    root_rank = ref.root_rank()
    if rank[1] != root_rank:
        out.append(f"rumor: root rank {rank[1]}, exact {root_rank}")
    order = _order(rank)
    top = [int(v) for v in order[:head]]
    for i, (a, b) in enumerate(zip(top, top[1:])):
        if not ref.before(a, b):
            out.append(f"rumor: vertices {a} and {b} at ranks {i + 1} and {i + 2} are out of order")
    last = top[-1]
    in_head = set(top)
    for v in np.flatnonzero(ref.logdiff[1:] <= ref.logdiff[last] + RUMOR_BAND) + 1:
        v = int(v)
        if v not in in_head and ref.before(v, last):
            out.append(f"rumor: vertex {v} at rank {rank[v]} belongs ahead of {last}")
    tied = ref.tied_with(top[0])
    if prof.report.tied_center_set != tied:
        out.append(f"rumor: tied center set {prof.report.tied_center_set}, exact {tied}")
    return out


def sweep_chunk_problems(n: int, stats: dict, samples: dict) -> list[str]:
    """Check one engine chunk: ``stats`` maps a tag to (rank, index) arrays.

    ``samples`` maps a column to ``{tag: (root_rank, center_index)}`` from
    the per-tree scorers on the same stream.
    """
    out = []
    for tag, (rank, index) in stats.items():
        for name, arr in (("rank", rank), ("index", index)):
            if arr.min() < 1 or arr.max() > n:
                out.append(f"{tag}: {name} outside [1, {n}]")
    group = [stats[t] for t in CENTROID_GROUP if t in stats]
    for rank, index in group[1:]:
        if not np.array_equal(index, group[0][1]):
            out.append("jordan, closeness and rumor center indices differ")
            break
        if not np.array_equal(rank == 1, group[0][0] == 1):
            out.append("jordan, closeness and rumor R = 1 events differ")
            break
    for col, ref in samples.items():
        for tag, expected in ref.items():
            got = (int(stats[tag][0][col]), int(stats[tag][1][col]))
            if got != expected:
                out.append(f"{tag}: column {col} gives (R, I) = {got}, per-tree {expected}")
    return out


def mean_record_problems(records, ranks: dict) -> list[str]:
    """Expected-rank records must equal the mean of the ranks they came from."""
    out = []
    for rec in records:
        rank = ranks[rec.measure]
        mean = sum(rank.tolist()) / len(rank)
        if rec.statistic != "expected_rank" or rec.estimate != mean or rec.reps != len(rank):
            out.append(f"{rec.measure}: record {rec.estimate} over {rec.reps}, "
                       f"ranks give {mean} over {len(rank)}")
    return out


def persistence_problems(config, records, trajectories) -> list[tuple[int | None, str]]:
    """Check a persistence run's trajectory set and its reported fractions.

    Returns ``(replicate, problem)`` pairs; the replicate is None for a
    problem of the whole run.
    """
    out: list[tuple[int | None, str]] = []
    reps = [t.replicate for t in trajectories]
    expected = list(range(config.trajectories))
    if reps != expected:
        missing = sorted(set(expected) - set(reps))
        out.extend((r, f"trajectory {r} is missing") for r in missing)
        if not missing:
            out.append((None, f"replicates are not 0..{config.trajectories - 1} in order"))
    half = config.horizon // 2
    for t in trajectories:
        if t.horizon != config.horizon or int(t.checkpoints[-1]) != config.horizon:
            out.append((t.replicate, "trajectory does not end at the horizon"))
        for tag, last in t.last_change_rank.items():
            if t.changed_rank[tag] != (last > half) or t.changed_index[tag] != (
                t.last_change_index[tag] > half
            ):
                out.append((t.replicate, f"{tag}: change flags disagree with change times"))
    for rec in records:
        flags = "changed_index" if rec.statistic == "index_changed_fraction" else "changed_rank"
        hits = sum(getattr(t, flags)[rec.measure] for t in trajectories)
        if rec.estimate != hits / config.trajectories or rec.reps != config.trajectories:
            out.append((None, f"{rec.measure} {rec.statistic} {rec.estimate} over {rec.reps}, "
                              f"flags give {hits} of {config.trajectories}"))
    return out


def rerun_problems(pooled, rerun) -> list[str]:
    """A trajectory re-run on the same stream must repeat every change time."""
    fields = ("last_change_index", "last_change_rank", "changed_index", "changed_rank")
    bad = [f for f in fields if getattr(pooled, f) != getattr(rerun, f)]
    return [f"trajectory {pooled.replicate}: re-run differs in {', '.join(bad)}"] if bad else []


def horizon_problems(trajectory, expected: dict) -> list[str]:
    """Ranks and indices at the last checkpoint against per-tree ``(R, I)``."""
    out = []
    for tag, (rank, index) in expected.items():
        got = (int(trajectory.series["rank"][tag][-1]), int(trajectory.series["index"][tag][-1]))
        if got != (rank, index):
            out.append(f"trajectory {trajectory.replicate} {tag}: (R, I) = {got} "
                       f"at the horizon, per-tree {(rank, index)}")
    return out
