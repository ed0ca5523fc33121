"""Replicate-batched kernels for fixed-size Monte Carlo sweeps.

The per-tree routines in :mod:`rootrank.centrality` are the reference
implementation.  For Monte Carlo estimates we need root-rank and
center-index statistics over tens of thousands of independent trees, and
looping the per-tree code is too slow in pure Python.  This module grows
whole batches of trees at once: replicates are the columns of an
``(n + 1, rows)`` matrix stored column-major, so every tree is one
contiguous column.  Columns are reduced in blocks of about 2^16 vertices.
A block's subtree sizes come from one pass of pointer jumping over a
merged tree, the block's columns hung from a common super-root: about
``log2 h`` rounds for columns of height ``h``, each a few numpy calls
shared by every tree of the block, with no level order.  The pass
allocates its scratch arrays once per call and reuses them for every
block of that call.  Degree takes one ``bincount`` per column.  The other
root ranks, the betweenness index and the centroid index come from one
walk down from the root per column, :func:`rootrank.walks.root_walk`.
It descends only into the small regions where a vertex can be as central
as the root, which hold the centroid path, so no score matrix is built.
The walk finds a vertex's children by scanning the column, and a column
whose walk runs long groups its children once by ``tree.group_by`` and
slices that.  The growth trajectories apply the same region rule, with
the same per-depth rumor band, to their horizon tree over all
checkpoints at once, by ``walks.checkpoint_walk``.

A sweep is split into chunks of replicates.  A chunk is the unit of
parallel dispatch and of output grouping, not of memory: a chunk job
grows and reduces its replicates one block at a time, so it never holds
more than one block's parent matrix, whatever the chunk's length.

Replicate ``i`` of a sweep uses the Philox stream ``stream_base + i`` and
draws exactly the same uniforms as ``grow_urrt`` would on that stream, so
batched results are reproducible tree-by-tree against the scalar path.
A block reads its streams through ``rng.stream_uniforms``, one bit
generator re-keyed per column, and maps each column's draws in place.
Chunk boundaries depend only on ``n`` and the replicate count, never on
worker count, which keeps sweep output invariant under parallel dispatch.
"""

from __future__ import annotations

import numpy as np

from .centrality import SWEEP_MEASURES
from .rng import stream_uniforms
from .tree import group_by, parents_from_draws
from .walks import root_walk

__all__ = [
    "chunk_rows",
    "replicate_chunks",
    "generate_parent_matrix",
    "rank_index_batch",
    "max_root_fraction_batch",
    "rank_index_sweep_chunk",
]

# Replicates per chunk, the Pool job and output unit: at most this many
# parent elements, n + 1 per replicate, and at most _MAX_CHUNK_ROWS
# replicates.  A chunk job grows and reduces one block at a time, so these
# bound the job's length, not its memory.
_CHUNK_ELEMENT_BUDGET = 16_000_000
_MAX_CHUNK_ROWS = 4096
# Vertices per merged tree of a block: enough trees to share each numpy
# call of the size pass, few enough for the block's arrays to stay in
# cache.  A chunk job on all five measures took 472, 447, 435, 471 and
# 540 us per tree at n = 10^4 (1599 columns) for 2^14 .. 2^18, and 100,
# 93, 99, 102 and 105 us at 10^3 (4096 columns), generation included
# (medians of 3 rounds, 2 cores, numpy 2.4).
_BLOCK_VERTICES = 1 << 16


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
    The matrix is column-major, so each column is contiguous.  Beside it the
    call holds only a few arrays of one column's length.
    """
    parents = np.zeros((n + 1, stop - start), dtype=np.int64, order="F")
    ids = range(stream_base + start, stream_base + stop)
    parents_from_draws(stream_uniforms(master_seed, ids, n - 1), out=parents[2:])
    return parents


def _block_width(n: int) -> int:
    """Columns per block: one merged tree of about ``_BLOCK_VERTICES``."""
    return max(1, _BLOCK_VERTICES // (n + 1))


def _parent_blocks(master_seed: int, n: int, start: int, stop: int, stream_base: int):
    """Yield the parent matrix of replicates ``[start, stop)`` block by block.

    Each block has ``_block_width(n)`` columns, the last one fewer, so
    :func:`_blocks` reduces it as one merged tree.
    """
    width = _block_width(n)
    for lo in range(start, stop, width):
        yield generate_parent_matrix(master_seed, n, lo, min(lo + width, stop), stream_base)


def _blocks(parents: np.ndarray, n: int):
    """Yield ``(lo, columns, sizes)`` per block of parent columns.

    Row ``i`` of ``columns`` and ``sizes``, both ``(k, n + 1)`` and
    C-contiguous, is column ``lo + i`` and its subtree sizes (slot 0 is
    unused).  ``sizes`` is a view into scratch arrays allocated once per
    call, overwritten by the next block.  Sizes come from one merged tree:
    label 1 is a super-root, slot ``v`` of row ``i`` is label
    ``2 + i (n + 1) + v``, slots 0 and 1 hang from label 1 and every other
    slot from its parent's label.

    After ``r`` rounds of pointer jumping ``anc[v]`` is the ancestor ``2^r``
    edges above ``v`` (0 past the super-root) and ``size[v]`` counts the
    descendants less than ``2^r`` edges below it, so each round copies the
    sizes and adds each one in at its jumped pointer.  Label 0 collects the
    vertices whose pointer has passed the super-root; its sum is never
    read.  Columns with a cycle raise ``ValueError``.
    """
    width = _block_width(n)
    # merged parents and jumped pointers, sizes before and after a round
    scratch = np.empty((4, min(parents.shape[1], width) * (n + 1) + 2), dtype=np.int64)
    for lo in range(0, parents.shape[1], width):
        # a view for column-major chunks; one block copy for other layouts
        columns = np.asfortranarray(parents[:, lo : lo + width]).T
        k = columns.shape[0]
        anc, jump, size, nxt = scratch[:, : k * (n + 1) + 2]
        merged = anc[2:].reshape(k, n + 1)
        np.add(columns, (2 + (n + 1) * np.arange(k))[:, None], out=merged)
        merged[:, :2] = 1
        anc[:2] = 0
        size.fill(1)
        # every label is within anc.size edges of label 0, so its pointer
        # gets there in anc.size.bit_length() rounds; one more means a cycle
        rounds = anc.size.bit_length()
        while anc.any():
            if not rounds:
                raise ValueError("parent columns must be trees: a cycle never reaches the root")
            rounds -= 1
            np.copyto(nxt, size)
            np.add.at(nxt, anc, size)
            size, nxt = nxt, size
            # clip mode writes straight into ``jump``; every index is in range
            np.take(anc, anc, out=jump, mode="clip")
            anc, jump = jump, anc
        yield lo, columns, size[2:].reshape(k, n + 1)


# Full-column scans a walk makes in one column before it indexes the
# column's children with ``group_by``, after which every lookup is a slice.
# Most walks look up 3 vertices in the median, but a root with one child
# makes the walk visit all n.  Per column (2 cores, numpy 2.4), a scan took
# 1.5 to 5 us at n = 10^3 and 10^4 and 17 to 46 us at 7*10^4 and 10^5, the
# index 16 to 120 us and 1.8 to 2.9 ms.  Each limit is near what the index
# costs in scans, so a walk pays at most about twice the cheaper way.
_SCANS = 16
_WIDE_SCANS = 64


class _Children(dict):
    """Children of each vertex of one parent column, found on first use.

    The first lookups scan the column, and later ones slice an index that
    the column builds once.  Either way a vertex's children come in
    ascending order.
    """

    def __init__(self, column: np.ndarray):
        super().__init__()
        self.column = column
        self.scans = _SCANS if column.size <= 1 << 16 else _WIDE_SCANS
        self.order = self.bounds = None

    def scan(self, v: int) -> list[int]:
        return (self.column == v).nonzero()[0].tolist()

    def __missing__(self, v: int) -> list[int]:
        if self.scans:
            self.scans -= 1
            kids = self.scan(v)
        else:
            if self.order is None:
                self.order, self.bounds = group_by(self.column, self.column.size)
            kids = self.order[self.bounds[v] : self.bounds[v + 1]].tolist()
        self[v] = kids
        return kids


def rank_index_batch(
    parents: np.ndarray,
    n: int,
    measures: tuple[str, ...] = tuple(SWEEP_MEASURES),
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Root rank and center index per replicate for each measure.

    ``parents`` is a matrix from ``generate_parent_matrix``.  Returns
    ``{tag: (root_rank, center_index)}`` with one int64 entry per column.
    Ranks are pessimistic: ties count against the root, and tied best
    scores resolve to the largest label.  Every rank and index but
    degree's comes from one root walk per column, the centroid index too.
    """
    unknown = set(measures) - set(SWEEP_MEASURES)
    if unknown:
        raise ValueError(f"unknown engine measures: {sorted(unknown)}")
    rows = parents.shape[1]
    rank = {tag: np.empty(rows, dtype=np.int64) for tag in SWEEP_MEASURES}
    index = {tag: np.empty(rows, dtype=np.int64) for tag in SWEEP_MEASURES}
    if "degree" in measures:
        for j in range(rows):
            degree = np.bincount(parents[2:, j], minlength=n + 1)
            degree[2:] += 1
            rank["degree"][j] = np.count_nonzero(degree[1:] >= degree[1])  # ties against the root
            index["degree"][j] = n - np.argmax(degree[:0:-1])  # largest label on ties
    if set(measures) - {"degree"}:
        for lo, columns, block_sizes in _blocks(parents, n):
            for j, column, sizes in zip(range(lo, rows), columns, block_sizes):
                # memoryviews: items are Python ints, as the walk needs
                (rank["jordan"][j], rank["betweenness"][j], index["betweenness"][j],
                 rank["closeness"][j], rank["rumor"][j], index["jordan"][j]) = root_walk(
                    memoryview(column), memoryview(sizes), _Children(column), n)
        index["closeness"][:] = index["rumor"][:] = index["jordan"]  # one centroid index
    return {tag: (rank[tag], index[tag]) for tag in measures}


def max_root_fraction_batch(parents: np.ndarray, n: int) -> np.ndarray:
    """Largest root-subtree fraction per replicate column."""
    if n < 2:
        raise ValueError("need n >= 2")
    rooted = [np.where(columns[:, 2:] == 1, sizes[:, 2:], 0).max(axis=1)
              for _, columns, sizes in _blocks(parents, n)]
    return np.concatenate(rooted) / float(n)


def _concat_stats(parts: list[dict]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Join ``{tag: (rank, index)}`` results of consecutive replicates, in order."""
    return {tag: tuple(np.concatenate(arrays) for arrays in zip(*(part[tag] for part in parts)))
            for tag in parts[0]}


def rank_index_sweep_chunk(
    master_seed: int,
    n: int,
    start: int,
    stop: int,
    measures: tuple[str, ...] = tuple(SWEEP_MEASURES),
    stream_base: int = 0,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Generate one chunk of replicates and reduce it to rank/index stats.

    Replicates are grown and reduced one block at a time, so the chunk's
    whole parent matrix is never built; the result equals
    ``rank_index_batch`` on that matrix.
    """
    return _concat_stats([rank_index_batch(parents, n, measures)
                          for parents in _parent_blocks(master_seed, n, start, stop, stream_base)])
