"""Replicate-batched kernels for fixed-size Monte Carlo sweeps.

The per-tree routines in :mod:`rootrank.centrality` are the reference
implementation.  For Monte Carlo estimates we need root-rank and
center-index statistics over tens of thousands of independent trees, and
looping the per-tree code is too slow in pure Python.  This module grows
whole batches of trees at once: replicates are laid out as columns of an
``(n + 1, rows)`` matrix and every structural pass becomes a loop over
vertex columns with vectorized row operations.

Replicate ``i`` of a sweep uses the Philox stream ``stream_base + i`` and
draws exactly the same uniforms as ``grow_urrt`` would on that stream, so
batched results are reproducible tree-by-tree against the scalar path.
Chunk boundaries depend only on ``n`` and the replicate count, never on
worker count, which keeps sweep output invariant under parallel dispatch.
"""

from __future__ import annotations

import numpy as np

from .centrality import SWEEP_MEASURES, phi_sign, rumor_band
from .rng import RngStream
from .tree import parents_from_draws

__all__ = [
    "chunk_rows",
    "replicate_chunks",
    "generate_parent_matrix",
    "rank_index_batch",
    "max_root_fraction_batch",
    "rank_index_sweep_chunk",
]

# Total matrix elements allowed live per chunk (~6 int64/float64 matrices).
_CHUNK_ELEMENT_BUDGET = 16_000_000
_MAX_CHUNK_ROWS = 4096


def chunk_rows(n: int, reps: int) -> int:
    """Number of replicates processed per chunk for tree size ``n``."""
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be positive")
    rows = _CHUNK_ELEMENT_BUDGET // (n + 1)
    return max(1, min(rows, reps, _MAX_CHUNK_ROWS))


def replicate_chunks(reps: int, rows: int) -> list[tuple[int, int]]:
    """Split ``range(reps)`` into fixed ``[start, stop)`` chunks."""
    return [(lo, min(lo + rows, reps)) for lo in range(0, reps, rows)]


def generate_parent_matrix(
    master_seed: int, n: int, start: int, stop: int, stream_base: int = 0
) -> np.ndarray:
    """Grow replicates ``start..stop-1`` as columns of a parent matrix.

    Column ``j`` holds the tree for replicate ``start + j`` drawn from
    stream ``stream_base + start + j``; entries ``[2:, j]`` are parents,
    rows 0 and 1 are zero padding.  Draws match ``grow_urrt`` exactly.
    """
    rows = stop - start
    parents = np.zeros((n + 1, rows), dtype=np.int64)
    if n == 1:
        return parents
    for j in range(rows):
        gen = RngStream(master_seed, stream_base + start + j).generator()
        parents[2:, j] = parents_from_draws(gen.random(n - 1))
    return parents


def _size_pass(
    parents: np.ndarray, n: int, child_sq: bool = False, child_max: bool = False
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Subtree sizes per column, in one bottom-up pass over the vertex rows.

    The same pass also fills each vertex's sum of squared child sizes when
    ``child_sq`` is set and its largest child size when ``child_max`` is;
    each comes back as None otherwise.
    """
    cols = np.arange(parents.shape[1])
    # Allocation and free order decide how the heap is laid out once the
    # matrices fit under malloc's dynamic mmap threshold (n = 10^3 chunks):
    # allocating sizes last kept about 30 MB more resident over a run of chunks.
    sizes = np.ones_like(parents)
    sizes[0] = 0
    childsq = np.zeros_like(parents) if child_sq else None
    childmax = np.zeros_like(parents) if child_max else None
    for v in range(n, 1, -1):
        pv = parents[v]
        sv = sizes[v]
        sizes[pv, cols] += sv
        if child_sq:
            childsq[pv, cols] += sv * sv
        if child_max:
            cur = childmax[pv, cols]
            childmax[pv, cols] = np.where(sv > cur, sv, cur)
    return sizes, childsq, childmax


def _last_best_index(scores: np.ndarray, larger_is_central: bool) -> np.ndarray:
    """Per column: best score over vertices 1..n, largest label on ties."""
    n = scores.shape[0] - 1
    rev = scores[n:0:-1]
    k = np.argmax(rev, axis=0) if larger_is_central else np.argmin(rev, axis=0)
    return (n - k).astype(np.int64)


def _rank_index(scores: np.ndarray, larger_is_central: bool) -> tuple[np.ndarray, np.ndarray]:
    """Root rank, with ties counted against the root, and center index per column.

    Only rows 1..n of ``scores`` are read; row 0 may hold anything.
    """
    body, root = scores[1:], scores[1]
    rank = (body >= root if larger_is_central else body <= root).sum(axis=0).astype(np.int64)
    return rank, _last_best_index(scores, larger_is_central)


def _rumor_stats(
    parents: np.ndarray, sizes: np.ndarray, logdiff: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Root rank and center index from root-relative log scores.

    Columns whose decision margin falls inside the exact band are redone
    with integer arithmetic; everything else is settled by the floats.
    The band takes the worst-case height ``n - 1``, sound for any column.
    """
    body = logdiff[1:]
    band = rumor_band(n, n - 1)
    # Root rank: vertices strictly below the band are certainly <= root;
    # the root itself always ties.  Extra borderline vertices are rare.
    rank = (body < -band).sum(axis=0).astype(np.int64) + 1
    borderline = np.abs(body) <= band
    for col in np.flatnonzero(borderline.sum(axis=0) > 1):
        par, size = parents[:, col].tolist(), sizes[:, col].tolist()
        extra = 0
        for v in np.flatnonzero(borderline[:, col]) + 1:
            if v == 1:
                continue
            if phi_sign(par, size, n, int(v), 1) <= 0:
                extra += 1
        rank[col] = int((body[:, col] < -band).sum()) + 1 + extra

    index = _last_best_index(logdiff, larger_is_central=False)
    near_min = body <= body.min(axis=0, keepdims=True) + band
    for col in np.flatnonzero(near_min.sum(axis=0) > 1):
        par, size = parents[:, col].tolist(), sizes[:, col].tolist()
        best = 0
        for v in np.flatnonzero(near_min[:, col]) + 1:
            v = int(v)
            if best == 0:
                best = v
                continue
            if phi_sign(par, size, n, v, best) <= 0:
                best = v  # ascending scan: equal or better takes the label
        index[col] = best
    return rank, index


def rank_index_batch(
    parents: np.ndarray, n: int, measures: tuple[str, ...] = tuple(SWEEP_MEASURES)
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Root rank and center index per replicate for each measure.

    ``parents`` is a matrix from ``generate_parent_matrix``.  Returns
    ``{tag: (root_rank, center_index)}`` with one int64 entry per column.
    Ranks are pessimistic: ties count against the root, and tied best
    scores resolve to the largest label.
    """
    unknown = set(measures) - set(SWEEP_MEASURES)
    if unknown:
        raise ValueError(f"unknown engine measures: {sorted(unknown)}")
    rows = parents.shape[1]
    cols = np.arange(rows)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    if n == 1:
        ones = np.ones(rows, dtype=np.int64)
        return {tag: (ones.copy(), ones.copy()) for tag in measures}

    need_jordan = "jordan" in measures
    need_between = "betweenness" in measures
    if need_between and 2 * (n - 1) ** 2 >= 2**63:
        raise OverflowError("betweenness batch would overflow int64")

    sizes, childsq, childmax = _size_pass(parents, n, need_between, need_jordan)

    if need_jordan:
        psi = np.maximum(n - sizes, childmax)
        out["jordan"] = _rank_index(psi, larger_is_central=False)
        del psi, childmax

    if need_between:
        complement = n - sizes
        complement[1] = 0
        score = childsq + complement * complement
        out["betweenness"] = _rank_index(score, larger_is_central=False)
        del score, complement, childsq

    need_close = "closeness" in measures
    need_rumor = "rumor" in measures
    if need_close or need_rumor:
        closediff = np.zeros_like(parents) if need_close else None
        logdiff = np.zeros((n + 1, rows), dtype=np.float64) if need_rumor else None
        if need_rumor:
            with np.errstate(divide="ignore"):
                gain = np.log((n - sizes[2:]).astype(np.float64))
                gain -= np.log(sizes[2:].astype(np.float64))
        for v in range(2, n + 1):
            pv = parents[v]
            if need_close:
                closediff[v] = closediff[pv, cols] + (n - 2 * sizes[v])
            if need_rumor:
                logdiff[v] = logdiff[pv, cols] + gain[v - 2]
        if need_close:
            out["closeness"] = _rank_index(closediff, larger_is_central=False)
            del closediff
        if need_rumor:
            out["rumor"] = _rumor_stats(parents, sizes, logdiff, n)
            del logdiff

    if "degree" in measures:
        flat = parents[2:].astype(np.int64) * rows + cols
        counts = np.bincount(flat.ravel(), minlength=(n + 1) * rows)
        degree = counts.reshape(n + 1, rows)
        degree[2:] += 1
        out["degree"] = _rank_index(degree, larger_is_central=True)
        del degree

    return {tag: out[tag] for tag in measures}


def max_root_fraction_batch(parents: np.ndarray, n: int) -> np.ndarray:
    """Largest root-subtree fraction per replicate column."""
    if n < 2:
        raise ValueError("need n >= 2")
    sizes, _, _ = _size_pass(parents, n)
    rooted = np.where(parents[2:] == 1, sizes[2:], 0)
    return rooted.max(axis=0) / float(n)


def rank_index_sweep_chunk(
    master_seed: int,
    n: int,
    start: int,
    stop: int,
    measures: tuple[str, ...] = tuple(SWEEP_MEASURES),
    stream_base: int = 0,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Generate one chunk of replicates and reduce it to rank/index stats."""
    parents = generate_parent_matrix(master_seed, n, start, stop, stream_base)
    return rank_index_batch(parents, n, measures)
