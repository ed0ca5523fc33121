"""Brute-force reference scorers and the exhaustive verification pass.

Everything here recomputes centrality from first principles (explicit
component enumeration, all-pairs BFS, exact big-integer products) with
no shared code with the linear-time scorers, so agreement between the
two routes is meaningful.  Guarded to n <= 2000; these are quadratic or
worse on purpose.

The distributional references are exact values for a URRT on n vertices,
derived rather than sampled, for any n: the degree P(R_n = 1), from a
recursion over tree sizes, and four closed forms from the law of the
root subtrees, the centroid's P(I_n = 1) and mean index, the mean jordan
root rank and its mean truncated at a largest root subtree.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import cmp_to_key, lru_cache

import numpy as np

from . import centrality as _fast
from .tree import RecursiveTree, enumerate_recursive_trees, serialize_tree, subtree_sizes

ORACLE_MAX_N = 2000
# Allowed gap between a fast absolute rumor log score and log of the exact
# product, per vertex: the absolute scores carry a root term of order n.
_LOG_SCORE_TOL_PER_VERTEX = 1e-7


class VerificationError(AssertionError):
    """A fast scorer disagreed with its oracle."""


def _check_n(tree: RecursiveTree) -> None:
    if tree.n > ORACLE_MAX_N:
        raise ValueError(f"oracle scorers are limited to n <= {ORACLE_MAX_N}")


def _adjacency(tree: RecursiveTree) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(tree.n + 1)]
    par = tree.parent
    for v in range(2, tree.n + 1):
        p = int(par[v])
        adj[v].append(p)
        adj[p].append(v)
    return adj


def _components_without(adj: list[list[int]], n: int, removed: int) -> list[int]:
    """Sizes of the components of the tree with ``removed`` deleted."""
    seen = [False] * (n + 1)
    seen[removed] = True
    out = []
    for start in adj[removed]:
        if seen[start]:
            continue
        size = 0
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            size += 1
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        out.append(size)
    return out


def oracle_jordan(tree: RecursiveTree) -> np.ndarray:
    _check_n(tree)
    adj = _adjacency(tree)
    out = np.zeros(tree.n + 1, dtype=np.int64)
    for v in range(1, tree.n + 1):
        comps = _components_without(adj, tree.n, v)
        out[v] = max(comps) if comps else 0
    return out


def oracle_closeness(tree: RecursiveTree) -> np.ndarray:
    _check_n(tree)
    adj = _adjacency(tree)
    out = np.zeros(tree.n + 1, dtype=np.int64)
    for v in range(1, tree.n + 1):
        dist = [-1] * (tree.n + 1)
        dist[v] = 0
        queue = deque([v])
        total = 0
        while queue:
            u = queue.popleft()
            total += dist[u]
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out[v] = total
    return out


def oracle_rumor(tree: RecursiveTree) -> list[int]:
    """Exact rumor scores as arbitrary-precision integers (index 0 unused).

    phi(v) is the product over u != v of the size of u's subtree in the
    tree rooted at v.
    """
    _check_n(tree)
    adj = _adjacency(tree)
    n = tree.n
    out = [0] * (n + 1)
    for r in range(1, n + 1):
        size = [0] * (n + 1)
        order = []
        parent_r = [0] * (n + 1)
        stack = [r]
        seen = [False] * (n + 1)
        seen[r] = True
        while stack:
            u = stack.pop()
            order.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    parent_r[w] = u
                    stack.append(w)
        phi = 1
        for u in reversed(order):
            size[u] += 1
            if u != r:
                size[parent_r[u]] += size[u]
                phi *= size[u]
        out[r] = phi
    return out


def oracle_betweenness_pairs(tree: RecursiveTree) -> np.ndarray:
    """Count paths through each vertex by walking every vertex pair."""
    _check_n(tree)
    n = tree.n
    par = tree.parent.tolist()
    depth = [0] * (n + 1)
    for v in range(2, n + 1):
        depth[v] = depth[par[v]] + 1
    out = np.zeros(n + 1, dtype=np.int64)
    for s in range(1, n + 1):
        for t in range(s + 1, n + 1):
            a, b = s, t
            while depth[a] > depth[b]:
                a = par[a]
                if a not in (s, t):
                    out[a] += 1
            while depth[b] > depth[a]:
                b = par[b]
                if b not in (s, t):
                    out[b] += 1
            while a != b:
                a = par[a]
                b = par[b]
                if a == b:
                    if a not in (s, t):
                        out[a] += 1
                else:
                    if a not in (s, t):
                        out[a] += 1
                    if b not in (s, t):
                        out[b] += 1
    return out


def oracle_betweenness_sq(tree: RecursiveTree, q: int = 2) -> list[int]:
    """Sum of q-th powers of component sizes, by explicit enumeration."""
    _check_n(tree)
    adj = _adjacency(tree)
    out = [0] * (tree.n + 1)
    for v in range(1, tree.n + 1):
        out[v] = sum(c**q for c in _components_without(adj, tree.n, v))
    return out


def oracle_degree(tree: RecursiveTree) -> np.ndarray:
    _check_n(tree)
    adj = _adjacency(tree)
    out = np.zeros(tree.n + 1, dtype=np.int64)
    for v in range(1, tree.n + 1):
        out[v] = len(adj[v])
    return out


def _rank_generic(values: list, larger_is_central: bool) -> tuple[list[int], int, tuple[int, ...]]:
    """Rank 1..n from exact scores; pessimistic ties.  Returns (rank, center, tied)."""
    n = len(values) - 1

    def cmp(a: int, b: int) -> int:
        va, vb = values[a], values[b]
        if va != vb:
            better = (va > vb) if larger_is_central else (va < vb)
            return -1 if better else 1
        return b - a

    order = sorted(range(1, n + 1), key=cmp_to_key(cmp))
    rank = [0] * (n + 1)
    for pos, v in enumerate(order, start=1):
        rank[v] = pos
    best = values[order[0]]
    tied = tuple(sorted(v for v in range(1, n + 1) if values[v] == best))
    return rank, order[0], tied


def oracle_rank(values, larger_is_central: bool) -> list[int]:
    return _rank_generic(list(values), larger_is_central)[0]


def verify_tree(tree: RecursiveTree) -> None:
    """Compare every fast scorer and ranking against its oracle on one tree."""
    n = tree.n
    sizes = subtree_sizes(tree)
    where = f"on tree {serialize_tree(tree)!r}"

    # Integer-scored measures: exact scores, then tie-broken ranks.
    table = [
        (_fast.JORDAN, _fast.jordan_scores(tree, sizes), oracle_jordan(tree)),
        (_fast.CLOSENESS, _fast.closeness_scores(tree, sizes), oracle_closeness(tree)),
        (_fast.DEGREE, _fast.degree_scores(tree), oracle_degree(tree)),
        (
            _fast.BETWEENNESS_SQ,
            _fast.betweenness_sq_scores(tree, sizes, q=2),
            oracle_betweenness_sq(tree, 2),
        ),
        (
            _fast.BETWEENNESS_PAIRS,
            _fast.betweenness_pairs_scores(tree, sizes),
            oracle_betweenness_pairs(tree),
        ),
    ]
    fast_ranks = {}
    for measure, fast_scores, oracle_scores in table:
        exact = np.asarray(oracle_scores).tolist()
        if fast_scores[1:].tolist() != exact[1:]:
            raise VerificationError(
                f"{measure.tag} scores disagree {where}: "
                f"fast={fast_scores[1:].tolist()} oracle={exact[1:]}"
            )
        fast_rank, _ = _fast.rank_vertices(fast_scores, measure)
        fast_ranks[measure.tag] = fast_rank[1:].tolist()
        if fast_ranks[measure.tag] != oracle_rank(exact, measure.larger_is_central)[1:]:
            raise VerificationError(f"{measure.tag} ranks disagree {where}")

    # The two betweenness forms must rank identically.
    if fast_ranks["betweenness-sq"] != fast_ranks["betweenness-pairs"]:
        raise VerificationError(f"betweenness sq vs pairs ranking differs {where}")

    log_fast, comparator = _fast.rumor_scores(tree, sizes)
    phi = oracle_rumor(tree)
    for v in range(1, n + 1):
        if abs(log_fast[v] - math.log(phi[v])) > _LOG_SCORE_TOL_PER_VERTEX * n:
            raise VerificationError(
                f"rumor log score disagrees at vertex {v} {where}: "
                f"fast={log_fast[v]} exact={math.log(phi[v])}"
            )

    # Exact comparator must reproduce big-integer comparisons (all pairs
    # for small trees, a deterministic O(n) sample otherwise).
    if n <= 12:
        pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    else:
        pairs = [(v, 1) for v in range(1, n + 1)]
        pairs += [(v, min(v + 7, n)) for v in range(1, n + 1)]
    for a, b in pairs:
        want = (phi[a] > phi[b]) - (phi[a] < phi[b])
        got = comparator.compare(a, b)
        if got != want:
            raise VerificationError(
                f"rumor comparator wrong for ({a},{b}) {where}: got {got}, want {want}"
            )

    rumor_rank, rumor_report = _fast.rank_vertices(log_fast, _fast.RUMOR, comparator)
    want_rumor, _, want_tied = _rank_generic(phi, False)
    if rumor_rank[1:].tolist() != want_rumor[1:]:
        raise VerificationError(f"rumor ranks disagree {where}")
    if rumor_report.tied_center_set != want_tied:
        raise VerificationError(f"rumor tied sets disagree {where}")


def verify_exhaustive(max_n: int) -> int:
    """Verify all recursive trees with n <= max_n.  Returns the tree count."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if max_n > 9:
        raise ValueError("exhaustive verification beyond n=9 is impractical")
    total = 0
    for n in range(1, max_n + 1):
        for tree in enumerate_recursive_trees(n):
            verify_tree(tree)
            total += 1
    return total


# -- exact degree root probability -------------------------------------------

# Root degrees whose total probability is below this bound are not summed;
# it is the only approximation besides float rounding.
_DEGREE_TAIL = 1e-12
# Coefficient blocks at or below this size are filled one index at a time.
_SERIES_LEAF = 16
# Series rows (one per pair m, b) solved together; bounds memory per batch.
_SERIES_ROWS = 192


def _root_degree_tail_bound(n: int, a: int) -> float:
    """Chernoff bound on P(root degree >= a) in a URRT on n vertices.

    Vertex j + 1 attaches to the root with probability 1/j, independently
    of the others, so E[s^deg] = prod_j (1 + (s - 1)/j); s = a / E[deg].
    """
    inv = 1.0 / np.arange(1, n, dtype=np.float64)
    mean = float(inv.sum())
    if a <= mean:
        return 1.0
    s = a / mean
    return math.exp(float(np.log1p((s - 1.0) * inv).sum()) - a * math.log(s))


def _bounded_degree_series(ms: list[int], need: int):
    """Coefficients below ``need`` of H_m^b / b! (b < m) and of H_m', per m.

    H_m' = sum_{b<m} H_m^b / b!, H_m(0) = 0.  Rows of ``P`` hold b = 0..m-1
    for each m in turn (``starts`` marks b = 0); row i of ``E`` is H' for
    ``ms[i]``.
    Coefficient x of H^b / b! is (1/x) [z^(x-1)] (H^(b-1) / (b-1)!) H', a
    product of two series that are still being computed, so it is filled
    by divide and conquer over x: the left half of a block is finished
    first, its FFT product with the known prefix is added to the right
    half, then the right half is finished.  ``P[:, x]`` holds the partial
    sum until coefficient x is final.  Blocks are aligned powers of two;
    those starting at or beyond ``need`` are skipped.
    """
    size = 1 << max(need - 1, 1).bit_length()
    starts = np.cumsum([0] + ms[:-1])
    emap = np.repeat(np.arange(len(ms)), ms)[1:]  # series m of rows 1..
    live = np.ones((len(emap), 1))
    live[starts[1:] - 1] = 0.0  # b = 0 rows stay the constant 1
    P = np.zeros((sum(ms), size))
    P[starts, 0] = 1.0
    E = np.zeros((len(ms), size))
    E[:, 0] = 1.0

    def finish(lo: int, hi: int) -> None:
        for x in range(max(lo, 1), min(hi, need)):
            if lo == 0:
                acc = (P[:-1, :x] * E[emap, x - 1 :: -1]).sum(axis=1)
            else:
                k = x - lo
                acc = P[1:, x] + (P[:-1, lo:x] * E[emap, :k][:, ::-1]).sum(axis=1)
                acc += (E[emap, lo:x] * P[:-1, :k][:, ::-1]).sum(axis=1)
            P[1:, x] = live[:, 0] * acc / x
            E[:, x] = np.add.reduceat(P[:, x], starts)

    def solve(lo: int, hi: int) -> None:
        if lo >= need:
            return
        if hi - lo <= _SERIES_LEAF:
            finish(lo, hi)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        if mid >= need:
            return
        span = hi - lo
        rfft = np.fft.rfft
        # cyclic length span: wrapped terms land below mid - 1 - lo, unread
        if lo == 0:
            prod = rfft(P[:-1, :mid], span) * rfft(E[:, :mid], span)[emap]
        else:
            # the prefix [0, span) is final because blocks are aligned
            prod = rfft(P[:-1, lo:mid], span) * rfft(E[:, :span], span)[emap]
            prod += rfft(E[:, lo:mid], span)[emap] * rfft(P[:-1, :span], span)
        conv = np.fft.irfft(prod, span)
        P[1:, mid:hi] += live * conv[:, mid - 1 - lo : hi - 1 - lo]
        solve(mid, hi)

    solve(0, size)
    return P, E, starts


@lru_cache(maxsize=None)
def exact_degree_root_probability(n: int) -> float:
    """P(R_n = 1) for degree: the root's degree beats every other degree.

    Vertex 2's subtree has a uniform size k in {1..n-1}, and the two parts
    are independent URRTs.  With A_n^a(m) = P(root degree a, every other
    degree <= m) and B_k(m) = sum_{a<m} A_k^a(m), this gives

        (n - 1) A_n^a(m) = sum_k B_k(m) A_{n-k}^{a-1}(m),
        P(R_n = 1) = sum_a A_n^a(a - 1).

    In power series, A_n^a(m) = [z^(n-1)] H_m^a / a! with H_m(z) =
    sum_k B_k(m) z^k / k, and H_m' = sum_{b<m} H_m^b / b!.  Every
    coefficient is a probability, so FFT rounding stays near 1e-16 in
    absolute terms.  Root degrees above the last one summed have total
    probability below 1e-12 by a Chernoff bound.  Shares no code with the
    engine; one m costs O(m n log^2 n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return 1.0 if n == 1 else 0.0  # n = 2: both vertices have degree 1
    # the root has degree m + 1 > m; m = 0 is impossible for n >= 2
    m_top = 1
    while m_top < n - 2 and _root_degree_tail_bound(n, m_top + 2) > _DEGREE_TAIL:
        m_top += 1
    batches: list[list[int]] = [[]]
    for m in range(1, m_top + 1):
        if batches[-1] and sum(batches[-1]) + m > _SERIES_ROWS:
            batches.append([])
        batches[-1].append(m)
    total = 0.0
    x = np.arange(1, n - 1, dtype=np.float64)
    width = 1 << (2 * (n - 2)).bit_length()  # linear convolution, no wrap
    for ms in batches:
        P, E, starts = _bounded_degree_series(ms, n - 1)
        for row, (m, start) in enumerate(zip(ms, starts)):
            e = E[row, : n - 1]
            # H^m / m! from H^(m-1) / (m-1)!, then [z^(n-1)] H^(m+1) / (m+1)!
            hm = np.fft.irfft(
                np.fft.rfft(P[start + m - 1, : n - 2], width)
                * np.fft.rfft(e[: n - 2], width),
                width,
            )[: n - 2] / x
            total += float(np.dot(hm, e[n - 3 :: -1])) / (n - 1)
    return total


# -- closed forms from the root-subtree law -----------------------------------
#
# The root subtree sizes of a URRT on n vertices are the cycle lengths of a
# uniform permutation of n - 1 items, so the expected number of root
# subtrees of size B is 1/B, and given its size each is a URRT.  Two root
# subtrees cannot both have 2B >= n, as their sizes sum to at most n - 1.


def _harmonic_sum(lo: int, hi: int) -> Fraction:
    """sum_{B=lo}^{hi-1} 1/B as an exact fraction (0 for an empty range)."""
    return sum((Fraction(1, b) for b in range(lo, hi)), Fraction(0))


def exact_centroid_root_probability(n: int) -> Fraction:
    """Q_n = P(I_n = 1) = 1 - sum_{B=ceil(n/2)}^{n-1} 1/B, exactly.

    The centroid is the root exactly when no root subtree has 2B >= n, and
    at most one does, so the sum is the chance that one does.  The root is
    then the unique best vertex for jordan, closeness and rumor, so this is
    also their P(R_n = 1).  Exact fractions cost about 50 ms at n = 10^4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 - _harmonic_sum((n + 1) // 2, n)


def exact_centroid_mean_index(n: int) -> Fraction:
    """E[I_n], the centroid's mean birth index, exactly: 5/2 - 2/(n + 2)
    for even n and 5/2 - 6/(n + 3) for odd n.

    The vertices with 2 s(v) >= n form a path from the root, and I_n is
    the label of its last vertex.  Let c = ceil(n/2).  From a vertex of
    size b the path moves to a child of size b' with chance 1/b', for each
    b' in c..b-1, and stops otherwise: the root-subtree law inside the
    subtree, where at most one child has 2 b' >= n.  Given the sizes, a
    path child's label minus its parent's label l is the least element of
    a uniform b'-subset of {1..n-l}, of mean (n - l + 1)/(b' + 1), so
    D = n + 1 - l shrinks in mean by the factor b'/(b' + 1) at each step.
    Hence E[I_n] = n + 1 - n f(n), with f(b) the mean product of those
    factors over the rest of the path from a vertex of size b: f(c) = 1
    and f(b + 1) = f(b) (b + 2)/(b + 1) - 1/b.  With g(b) = f(b)/(b + 1)
    this is g(b + 1) = g(b) - 1/(b (b + 2)), which telescopes to the
    closed form.  Background: J. W. Moon, "On the centroid of recursive
    trees", Australas. J. Combin. 2002.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(5, 2) - (Fraction(6, n + 3) if n % 2 else Fraction(2, n + 2))


def exact_jordan_mean_root_rank(n: int) -> Fraction:
    """E[R^J_n] = 1 + H_{floor(n/2)}, the mean jordan root rank, exactly.

    With M the largest root subtree, a vertex v other than the root is as
    central as the root exactly when s(v) >= n - M, which only vertices of
    that subtree reach, and only when 2M >= n.  A URRT on B vertices has
    on average B/t vertices of size at least t, so summing over the root
    subtree sizes B >= n/2 gives 1 + sum_B (1/B) B/(n - B) = 1 + H_{floor(n/2)}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 + _harmonic_sum(1, n // 2 + 1)


def exact_jordan_truncated_mean(n: int, b0: int) -> Fraction:
    """E[R^J_n 1{M <= b0}] = Q_n + sum_{B=ceil(n/2)}^{b0} (1/B + 1/(n - B)), exactly.

    M is the root's largest subtree (0 for n = 1), and ``b0`` must lie in
    ``[ceil(n/2) - 1, n - 1]``.  The rank is 1 when 2M < n, which the
    range always admits.  A root subtree of size B >= n/2 exists with
    chance 1/B, and then the rank is 1 plus, on average, B/(n - B) of its
    vertices, as in :func:`exact_jordan_mean_root_rank`.  Unlike the full
    mean, whose variance is of order n, this one has an estimable SE.
    """
    lo = (n + 1) // 2
    if n < 1 or not lo - 1 <= b0 <= n - 1:
        raise ValueError(f"need n >= 1 and {lo - 1} <= b0 <= {n - 1}, got n={n}, b0={b0}")
    return (exact_centroid_root_probability(n) + _harmonic_sum(lo, b0 + 1)
            + _harmonic_sum(n - b0, n - lo + 1))
