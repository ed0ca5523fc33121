"""Centrality measures on recursive trees, with root-finding reports.

Five measures are implemented, each in one or two O(n) passes driven by
subtree sizes and rerooting identities:

* Jordan: largest component left by removing the vertex (smaller wins).
* Closeness: total distance to all other vertices (smaller wins).
* Rumor: product of subtree sizes in the tree rooted at the vertex,
  kept in log space with an exact big-integer comparison fallback
  (smaller log-score wins).
* Betweenness, sum-of-powers form: sum of q-th powers of the component
  sizes left by removing the vertex, q >= 2 (smaller wins).  For q = 2
  this ranks vertices identically to the classical pair-counting form.
* Betweenness, pair-counting form: number of vertex pairs whose path
  passes through the vertex (larger wins).
* Degree (larger wins).

All scorers but degree start from the subtree sizes.  Reductions that
do not depend on visiting order are single numpy calls over the parent
and size arrays: jordan's largest child (``np.maximum.at``), the
betweenness power sums (``np.add.at``), degree (``np.bincount``) and the
root's total distance (the sum of sizes[2:]).  The passes that do depend
on it are ``tree``'s: the bottom-up sizes (``subtree_sizes``) and the
root-down rerooting sums of closeness and rumor (``root_down``), whose
per-edge rounding ``rumor_band`` bounds.

Ties are always broken pessimistically: among equally central vertices
the one inserted later (larger label) ranks first.  ``_rank_exact`` gets
that order from one sort of distinct int64 keys: each vertex's score (or
the id of its run of equal scores) times n, plus n minus its label, so
on equal scores the larger label has the smaller key.  ``rank_vertices``
returns the full rank permutation plus a ``CenterReport`` naming the
tie-broken center and the rank of vertex 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tree import RecursiveTree, root_down, subtree_sizes


class ScoreOverflowError(OverflowError):
    """Scores or rank keys would not fit 64-bit integers for the requested (n, q)."""


def _check_closeness_int64(n: int) -> None:
    """Raise unless every total distance on an n-vertex tree fits int64.

    The largest is at the end of a path: 1 + 2 + ... + (n - 1) = n(n - 1)/2.
    """
    if n * (n - 1) // 2 >= 2**63:
        raise ScoreOverflowError(f"closeness scores overflow 64-bit integers for n={n}")


def _check_betweenness_int64(n: int, q: int) -> None:
    """Raise unless the q-th power sums on an n-vertex tree fit int64."""
    if n > 1 and 2 * (n - 1) ** q >= 2**63:
        raise ScoreOverflowError(
            f"betweenness scores overflow 64-bit integers for n={n}, q={q}"
        )
    if q == 2 and n > 10**8:
        raise ScoreOverflowError(f"n={n} exceeds the enforced bound 1e8 for q=2")


def _check_rank_int64(m: int) -> None:
    """Raise unless ``_rank_exact``'s composite keys for m items fit int64.

    A run id is below m, so the largest composite is m * m - 1.
    """
    if m * m > 2**63:
        raise ScoreOverflowError(f"rank keys overflow 64-bit integers for n={m}")


@dataclass(frozen=True)
class Measure:
    """A centrality measure: its tag, ranking direction and scorer.

    ``scorer(tree, sizes)`` returns the score array, or for rumor the log
    scores and the exact comparator.  Each scorer looks its function up
    when called, so a wrapper installed on this module's attribute (a
    profiler's, say) sees every call.
    """

    tag: str
    larger_is_central: bool
    scorer: Callable = field(compare=False, repr=False)


JORDAN = Measure("jordan", False, lambda t, s: jordan_scores(t, s))
CLOSENESS = Measure("closeness", False, lambda t, s: closeness_scores(t, s))
RUMOR = Measure("rumor", False, lambda t, s: rumor_scores(t, s))
BETWEENNESS_SQ = Measure("betweenness-sq", False, lambda t, s: betweenness_sq_scores(t, s))
BETWEENNESS_PAIRS = Measure("betweenness-pairs", True, lambda t, s: betweenness_pairs_scores(t, s))
DEGREE = Measure("degree", True, lambda t, s: degree_scores(t))


def betweenness_q(q: int) -> Measure:
    if q < 2:
        raise ValueError("q must be >= 2")
    return Measure(f"betweenness-q{q}", False, lambda t, s: betweenness_sq_scores(t, s, q=q))


MEASURES: dict[str, Measure] = {
    m.tag: m
    for m in (JORDAN, CLOSENESS, RUMOR, BETWEENNESS_SQ, BETWEENNESS_PAIRS, DEGREE)
}

# Tags of the batched sweep engine and the growth trajectories, with the
# per-tree measure each one reproduces.  "betweenness" is the q = 2
# component form; the pair-count form ranks identically, so it has no tag.
SWEEP_MEASURES: dict[str, Measure] = {
    "jordan": JORDAN,
    "closeness": CLOSENESS,
    "rumor": RUMOR,
    "betweenness": BETWEENNESS_SQ,
    "degree": DEGREE,
}

# Sweep tags whose center set is the centroid set, so they share one
# center index: the larger label of a tied centroid pair.
CENTROID_GROUP = ("jordan", "closeness", "rumor")


@dataclass(frozen=True)
class CenterReport:
    """Tie-broken center label, rank of the root, and the raw tied set."""

    center_index: int
    root_rank: int
    tied_center_set: tuple[int, ...]


@dataclass
class CentralityProfile:
    measure: Measure
    scores: np.ndarray
    rank: np.ndarray
    report: CenterReport
    comparator: "RumorComparator | None" = field(default=None, repr=False)


def _sizes_or(tree: RecursiveTree, sizes: np.ndarray | None) -> np.ndarray:
    return subtree_sizes(tree) if sizes is None else sizes


def jordan_scores(
    tree: RecursiveTree, sizes: np.ndarray | None = None
) -> np.ndarray:
    """Largest component size after removing each vertex (int64, slot 0 unused)."""
    sizes = _sizes_or(tree, sizes)
    out = tree.n - sizes
    out[0] = 0
    np.maximum.at(out, tree.parent[2:], sizes[2:])
    return out


def closeness_scores(
    tree: RecursiveTree, sizes: np.ndarray | None = None
) -> np.ndarray:
    """Sum of distances from each vertex to all others, via rerooting.

    A vertex at depth d lies in the subtrees of d non-root vertices, itself
    and its ancestors below the root, so the root's total is sum(sizes[2:]).
    """
    n = tree.n
    _check_closeness_int64(n)
    sizes = _sizes_or(tree, sizes)
    root = int(sizes[2:].sum())
    return root_down(tree, root, n - 2 * sizes)


# Float64 log is within 1 ulp (NumPy's accuracy tests hold np.log to that;
# math.log calls the C library's); the band allows twice that.
_LOG_ULPS = 2


def phi_sign(parent: Sequence[int], size: Sequence[int], n: int, a: int, b: int) -> int:
    """Sign of phi(a) - phi(b) on an n-vertex tree: -1, 0 or 1, exactly.

    Along an edge phi(child)/phi(parent) = (n - s)/s with s the child's
    subtree size, so phi(a)/phi(b) telescopes over the path from a to b.
    Labels fall along every path to the root, so the larger of a and b
    is never their common ancestor: stepping it up until they meet walks
    exactly that path.  ``parent`` and ``size`` are sequences whose items
    are Python ints, a list or a memoryview of an int64 array; int64
    products would overflow.
    """
    lhs = rhs = 1
    while a != b:
        if a > b:
            s = size[a]
            lhs *= n - s
            rhs *= s
            a = parent[a]
        else:
            s = size[b]
            lhs *= s
            rhs *= n - s
            b = parent[b]
    return (lhs > rhs) - (lhs < rhs)


def rumor_band(n: int, height: int) -> float:
    """Float gap within which two rumor log ratios may still be exact ties.

    A root-relative score log phi(v) - log phi(1) is summed from the root
    down over the h <= ``height`` edges to v, each adding the rounded
    log(n - s) - log(s).  Per edge the two logs err by at most ``_LOG_ULPS``
    ulp of a value <= ln n, the subtraction rounds a value <= ln n, and the
    running sum rounds a value <= h ln n.  With eps = 2^-52 (ulp(x) <=
    eps |x|, rounding <= eps |x| / 2) one edge errs by at most
    eps ln n (2 _LOG_ULPS + 1/2 + h/2), a score by h times that, and the
    difference of two scores by twice the sum, h (h + 4 _LOG_ULPS + 1)
    eps ln n.  One more h eps ln n covers second-order terms and the
    rounding of the comparison itself.  A float gap above the band thus
    orders the exact scores strictly; at n = 10^6 and h about 40 it is
    6e-12.  The bound holds for sums along any paths of at most
    ``height`` edges from one start vertex; :mod:`rootrank.walks` takes
    ``h + 1`` for a vertex at depth h, which covers it and its children.
    """
    if n < 2 or height < 1:
        return 0.0
    return height * (height + 4 * _LOG_ULPS + 2) * math.ulp(1.0) * math.log(n)


class RumorComparator:
    """Root-relative rumor log scores with their band and exact comparison.

    ``rel[v]`` is log phi(v) - log phi(1) as ``rumor_scores`` summed it
    and ``band`` is ``rumor_band`` at the tree's height; ``compare``
    settles what the floats cannot, through ``phi_sign``.
    """

    def __init__(self, tree: RecursiveTree, sizes: np.ndarray, rel: np.ndarray, height: int):
        self.n = tree.n
        self.parent = tree.parent
        self.sizes = sizes
        self.rel = rel
        self.band = rumor_band(tree.n, height)
        self._lists: tuple[list, list] | None = None

    def compare(self, a: int, b: int) -> int:
        """Sign of phi(a) - phi(b): -1, 0, or 1, computed exactly."""
        if self._lists is None:  # most trees need few or no exact compares
            self._lists = (self.parent.tolist(), self.sizes.tolist())
        return phi_sign(*self._lists, self.n, a, b)


def rumor_scores(
    tree: RecursiveTree, sizes: np.ndarray | None = None
) -> tuple[np.ndarray, RumorComparator]:
    """Log rumor scores plus the exact comparison handle.

    log phi(root) = sum over v != root of log size(v); rerooting adds
    log(n - size) - log(size) along each edge.  ``root_down`` sums those
    gains from the root; the comparator keeps the root-relative sums and
    the height of the tree's cached levels.
    """
    sizes = _sizes_or(tree, sizes)
    n = tree.n
    gain = np.zeros(n + 1, dtype=np.float64)
    root_score = 0.0
    if n > 1:
        logs = np.log(sizes[2:].astype(np.float64))
        gain[2:] = np.log((n - sizes[2:]).astype(np.float64)) - logs
        root_score = float(np.sum(logs))
    rel = root_down(tree, 0.0, gain)
    out = rel + root_score
    out[0] = 0.0
    return out, RumorComparator(tree, sizes, rel, tree.levels.height)


def betweenness_sq_scores(
    tree: RecursiveTree, sizes: np.ndarray | None = None, q: int = 2
) -> np.ndarray:
    """Sum of q-th powers of component sizes after removing each vertex."""
    if q < 2:
        raise ValueError("q must be >= 2")
    n = tree.n
    _check_betweenness_int64(n, q)
    sizes = _sizes_or(tree, sizes)
    # Components left by removing v add up to n - 1 vertices, so no sum
    # exceeds (n - 1)^q and the guard above keeps these int64 sums exact.
    out = np.zeros(n + 1, dtype=np.int64)
    out[2:] = (n - sizes[2:]) ** q
    np.add.at(out, tree.parent[2:], sizes[2:] ** q)
    return out


def betweenness_pairs_scores(
    tree: RecursiveTree, sizes: np.ndarray | None = None
) -> np.ndarray:
    """Number of vertex pairs whose path passes through each vertex.

    An ordered pair of the other n - 1 vertices passes through v exactly
    when its ends lie in different components left by removing v, so the
    count is ((n - 1)^2 - sum of squared component sizes) / 2.
    """
    out = ((tree.n - 1) ** 2 - betweenness_sq_scores(tree, sizes)) // 2
    out[0] = 0
    return out


def degree_scores(tree: RecursiveTree) -> np.ndarray:
    n = tree.n
    deg = np.bincount(tree.parent[2:], minlength=n + 1).astype(np.int64)
    if n > 1:
        deg[2:] += 1
    deg[0] = 0
    return deg


def _rank_exact(scores_view: np.ndarray, larger_is_central: bool) -> np.ndarray:
    """Indices of ``scores_view`` by ascending key, the larger index first on ties.

    Index i of m gets the composite ``key' * m + (m - 1 - i)``.  The
    composites are distinct, so numpy's unstable (SIMD) sort gives the one
    order that sorts by key and, within equal keys, by descending index,
    which the remainder mod m reads back.  ``key'`` is the key less its
    minimum when ``(range + 1) * m`` fits int64.  Otherwise, and for
    floats, it is the id of the item's run of equal keys after an unstable
    argsort; equal floats share a run id, so the exact equalities of the
    float order are kept.  Run ids are below m, so ``_check_rank_int64``
    bounds every composite.
    """
    m = scores_view.size
    key = -scores_view if larger_is_central else scores_view
    lo = int(key.min()) if key.dtype.kind == "i" else None
    if lo is not None and (int(key.max()) - lo + 1) * m < 2**63:
        comp = np.subtract(key, lo, dtype=np.int64)
        comp *= m
        comp += np.arange(m - 1, -1, -1)
    else:
        order = np.argsort(key)
        sorted_key = key[order]
        comp = np.zeros(m, dtype=np.int64)
        np.cumsum(sorted_key[1:] != sorted_key[:-1], out=comp[1:])
        comp *= m
        comp += m - 1
        comp -= order
    comp.sort()
    np.remainder(comp, m, out=comp)
    return np.subtract(m - 1, comp, out=comp)


def rank_vertices(
    scores: np.ndarray,
    measure: Measure,
    comparator: RumorComparator | None = None,
) -> tuple[np.ndarray, CenterReport]:
    """Rank permutation under pessimistic tie-breaking, plus the center report.

    ``scores`` is indexed by vertex with slot 0 unused.  Rank 1 is the
    most central vertex; ties go to the later-inserted (larger) label.
    Rumor vertices are sorted on the comparator's root-relative log
    scores, which carry no O(n) root term.  Each of them errs from its
    exact value by at most half of ``rumor_band(n, h)``, about
    h^2 eps ln n for a tree of height h (under 1e-11 at n = 10^6), so
    adjacent vertices further apart than the band are already in exact
    order.  Runs of gaps within the band are re-sorted with the exact
    comparator, except runs whose neighbours are exact ties by structure:
    equal floats and equal subtree sizes on both sides up to the vertex
    where their paths to the root meet, as for siblings of equal subtree
    size.  Their path products are equal, and equal floats share a run
    id in ``_rank_exact``, so the sort already put them larger label first.
    """
    n = scores.size - 1
    _check_rank_int64(n)
    if measure.tag == "rumor":
        if comparator is None:
            raise ValueError("rumor ranking requires the exact comparator")
        order = _rank_exact(comparator.rel[1:], False)
        tied = _resolve_rumor_ties(order, comparator)
    else:
        view = scores[1:]
        order = _rank_exact(view, measure.larger_is_central)
        best = view[order[0]]
        tied = tuple(sorted(int(v) for v in np.nonzero(view == best)[0] + 1))

    rank = np.zeros(n + 1, dtype=np.int64)
    rank[order + 1] = np.arange(1, n + 1)
    report = CenterReport(
        center_index=int(order[0]) + 1,
        root_rank=int(rank[1]),
        tied_center_set=tied,
    )
    return rank, report


def _resolve_rumor_ties(order: np.ndarray, comparator: RumorComparator) -> tuple[int, ...]:
    """Put ``order`` in exact rumor order in place; return the tied best labels."""
    labels = order + 1
    rel, parent, sizes = comparator.rel, comparator.parent, comparator.sizes
    close = np.diff(rel[labels]) <= comparator.band
    starts = np.flatnonzero(np.r_[True, ~close])
    ends = np.r_[starts[1:], order.size]
    # Near pairs that climb to a common vertex through equal subtree sizes
    # have equal path products: exact ties, already larger label first
    # when their floats are equal too.
    near = np.flatnonzero(close)
    x, y = labels[near], labels[near + 1]
    climbing = np.flatnonzero((rel[x] == rel[y]) & (sizes[x] == sizes[y]))
    twin = np.zeros(near.size, dtype=bool)
    x, y = x[climbing], y[climbing]
    while climbing.size:
        x, y = parent[x], parent[y]
        met = x == y
        twin[climbing[met]] = True
        keep = ~met & (sizes[x] == sizes[y])
        climbing, x, y = climbing[keep], x[keep], y[keep]

    def cmp(a: int, b: int) -> int:
        return comparator.compare(a, b) or b - a  # equal scores: larger label first

    hard = np.zeros(starts.size, dtype=bool)
    hard[np.searchsorted(starts, near[~twin], side="right") - 1] = True
    for g in np.flatnonzero(hard).tolist():
        i, j = starts[g], ends[g]
        group = sorted(labels[i:j].tolist(), key=functools.cmp_to_key(cmp))
        order[i:j] = np.array(group) - 1

    best = int(order[0]) + 1
    tied = [best]
    for v in order[1 : ends[0]].tolist():
        if comparator.compare(v + 1, best) != 0:
            break
        tied.append(v + 1)
    return tuple(sorted(tied))


def compute_profile(
    tree: RecursiveTree,
    measure: Measure,
    sizes: np.ndarray | None = None,
) -> CentralityProfile:
    """Scores, ranks, and center report for one measure on one tree."""
    scores = measure.scorer(tree, _sizes_or(tree, sizes))
    comparator = None
    if measure.tag == "rumor":
        scores, comparator = scores
    rank, report = rank_vertices(scores, measure, comparator)
    return CentralityProfile(measure, scores, rank, report, comparator)


def profile_csv(profile: CentralityProfile) -> str:
    """CSV dump with header vertex,score,rank (rumor scores are log values)."""
    lines = ["vertex,score,rank"]
    scores = profile.scores
    rank = profile.rank
    is_float = scores.dtype.kind == "f"
    for v in range(1, scores.size):
        score = f"{scores[v]:.12g}" if is_float else str(int(scores[v]))
        lines.append(f"{v},{score},{int(rank[v])}")
    return "\n".join(lines) + "\n"
