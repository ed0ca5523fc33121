"""Uniform random recursive trees.

A recursive tree on vertices 1..n has parent[v] in {1, ..., v-1} for
every v >= 2; labels are arrival times and vertex 1 is the root.  The
uniform distribution over the (n-1)! such parent arrays is exactly the
law of the growth process that attaches each new vertex to a uniformly
chosen existing vertex.

Trees are immutable after construction.  The parent array is stored
1-indexed (slot 0 is unused, parent[1] == 0) so code reads like the
math.  Sizes and scores elsewhere use 64-bit integers throughout since
n^2 terms appear downstream.

Each tree caches its level order: the depths found by pointer jumping,
then grouped by ``group_by``, the package's one grouping sort.  The
passes over it, ``subtree_sizes`` from the leaves and ``root_down`` from
the root, take one numpy call per level.  A uniform tree's height is
about e ln n, so its levels are wide; a tree of height near n, such as
a path, pays one call per vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .rng import RngStream


class EdgeListParseError(ValueError):
    """Raised when an edge-list file is malformed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def depth_dtype(n: int) -> type:
    """Integer type of the depths of an n-vertex tree: int32 while it holds them.

    Every depth, and every partial depth summed by pointer jumping, is
    below n, so int32 serves while n + 1 < 2^31; larger trees get int64.
    """
    return np.int32 if n + 1 < 2**31 else np.int64


def group_by(keys: np.ndarray, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``keys`` grouped by key, ascending within each group.

    Group g is ``order[bounds[g] : bounds[g + 1]]`` for keys in
    ``[0, groups)``; the offsets are a ``bincount`` and its ``cumsum``.  Up
    to 2^16 groups the keys sort as uint16, which numpy's stable sort runs
    as a radix sort.  Above that, the distinct int64 composites
    ``key * size + position`` take that order under any sort and ``% size``
    recovers the positions, so ``groups * size >= 2^63`` raises ValueError.
    """
    size = keys.size
    if groups * size >= 2**63:
        raise ValueError(f"{groups} groups of {size} keys overflow int64 composites")
    bounds = np.zeros(groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=groups), out=bounds[1:])
    if groups <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable"), bounds
    return np.sort(keys.astype(np.int64, copy=False) * size + np.arange(size)) % size, bounds


@dataclass(frozen=True)
class Levels:
    """Vertices of a tree grouped by depth, root first.

    Level d holds the vertices d edges below the root, in ascending
    labels, and is ``order[bounds[d] : bounds[d + 1]]``.
    """

    order: np.ndarray
    bounds: np.ndarray
    height: int

    def level(self, d: int) -> np.ndarray:
        return self.order[self.bounds[d] : self.bounds[d + 1]]


def _build_levels(parent: np.ndarray) -> Levels:
    """Depths by pointer jumping in O(n log h), then ``group_by`` depth.

    ``depth[v]`` holds the distance from v to ``anc[v]`` and each round
    doubles both.  Slot 0 stands above the root at distance 0, so the loop
    ends when every ancestor is 0 or 1, after about log2(h) rounds.  The
    pointers stay int64: numpy converts narrower index arrays on every
    gather, which costs more than the halved traffic saves.
    """
    n = parent.size - 1
    depth = np.ones(n + 1, dtype=depth_dtype(n))
    depth[:2] = 0
    anc = parent
    while anc.max() > 1:
        depth += depth[anc]
        anc = anc[anc]
    height = int(depth.max())
    order, bounds = group_by(depth[1:], height + 1)
    return Levels(order + 1, bounds, height)


class RecursiveTree:
    """Rooted labeled recursive tree with 1-based vertex labels."""

    __slots__ = ("n", "parent", "_levels")

    def __init__(self, parents: Sequence[int] | np.ndarray, *, validate: bool = True):
        """Build a tree from the compact parent list (parent of v for v = 2..n).

        An empty sequence gives the single-vertex tree.
        """
        compact = np.asarray(parents, dtype=np.int64)
        if compact.ndim != 1:
            raise ValueError("parents must be one-dimensional")
        n = compact.size + 1
        parent = np.zeros(n + 1, dtype=np.int64)
        parent[2:] = compact
        if validate and n > 1:
            labels = np.arange(2, n + 1)
            bad = np.nonzero((compact < 1) | (compact >= labels))[0]
            if bad.size:
                v = int(labels[bad[0]])
                raise ValueError(
                    f"parent of vertex {v} is {int(compact[bad[0]])}, "
                    f"must be in [1, {v - 1}]"
                )
        parent.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "_levels", None)

    def __setattr__(self, name, value):
        raise AttributeError("RecursiveTree is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, RecursiveTree) and np.array_equal(
            self.parent, other.parent
        )

    def __hash__(self) -> int:
        return hash(self.parent.tobytes())

    def __repr__(self) -> str:
        return f"RecursiveTree(n={self.n})"

    @property
    def levels(self) -> Levels:
        """The vertices by depth (built lazily, cached)."""
        cached = self._levels
        if cached is None:
            cached = _build_levels(self.parent)
            object.__setattr__(self, "_levels", cached)
        return cached


def parents_from_draws(draws, out: np.ndarray | None = None) -> np.ndarray:
    """Parents of vertices 2..m+1 from uniforms: 1 + floor(u[v-2] * (v - 1)).

    ``draws`` is one array ``u`` of m uniforms, giving a new array of m
    parents, or an iterable of such arrays, one per column of ``out``, an
    ``(m, k)`` int64 array that receives the parents.  Each ``u`` is scaled
    in place, so a column costs no temporary arrays.

    Every generator in the package maps its draws through this one
    function, so a tree, a sweep column and a trajectory grown from the
    same stream are the same tree.
    """
    if out is None:
        return parents_from_draws([draws], np.empty((draws.size, 1), dtype=np.int64))[:, 0]
    steps = np.arange(1, out.shape[0] + 1, dtype=np.float64)
    # out's columns first: zip stops there without asking draws for one more
    for column, u in zip(out.T, draws):
        np.multiply(u, steps, out=u)
        # every product is nonnegative, so the cast's truncation is the floor
        np.copyto(column, u, casting="unsafe")
        column += 1
    return out


def grow_urrt(n: int, rng: np.random.Generator | RngStream) -> RecursiveTree:
    """Sample a uniform random recursive tree on n vertices.

    Consumes exactly one float64 draw per vertex beyond the root: vertex
    v attaches to a uniform choice among the v - 1 earlier vertices.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    if n == 1:
        return RecursiveTree([])
    return RecursiveTree(parents_from_draws(gen.random(n - 1)), validate=False)


def subtree_sizes(tree: RecursiveTree) -> np.ndarray:
    """Subtree size of every vertex (rooted at 1), from the leaves up.

    The vertices of a level are finished once every deeper level is added,
    so each level is one ``np.add.at`` of their sizes into their parents.
    Returns an int64 array of length n+1; slot 0 is 0.
    """
    parent, levels = tree.parent, tree.levels
    size = np.ones(tree.n + 1, dtype=np.int64)
    size[0] = 0
    for d in range(levels.height, 0, -1):
        idx = levels.level(d)
        np.add.at(size, parent[idx], size[idx])
    return size


def root_down(tree: RecursiveTree, first: int | float, gain: np.ndarray) -> np.ndarray:
    """``out[1] = first`` and ``out[v] = out[parent[v]] + gain[v]`` for v >= 2.

    The top-down twin of :func:`subtree_sizes`: one numpy call per level,
    root first, so every parent is finished before its children read it,
    and a float sum rounds once per edge, the rounding that
    ``centrality.rumor_band`` bounds.  The result has ``gain``'s dtype and
    slot 0 is 0.
    """
    parent, levels = tree.parent, tree.levels
    out = np.zeros(parent.size, dtype=gain.dtype)
    out[1] = first
    for d in range(1, levels.height + 1):
        idx = levels.level(d)
        out[idx] = out[parent[idx]] + gain[idx]
    return out


def serialize_tree(tree: RecursiveTree) -> str:
    """Edge-list text: first line n, then '<v> <parent>' for v = 2..n."""
    lines = [str(tree.n)]
    par = tree.parent
    lines.extend(f"{v} {par[v]}" for v in range(2, tree.n + 1))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> RecursiveTree:
    """Inverse of :func:`serialize_tree`; errors name the offending line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EdgeListParseError(1, "empty input, expected vertex count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise EdgeListParseError(1, f"expected vertex count, got {lines[0]!r}") from None
    if n < 1:
        raise EdgeListParseError(1, f"vertex count must be >= 1, got {n}")
    if len(lines) < n:
        raise EdgeListParseError(
            len(lines) + 1, f"expected {n - 1} edge lines for n={n}, got {len(lines) - 1}"
        )
    if len(lines) > n:
        raise EdgeListParseError(n + 1, f"unexpected extra line after {n - 1} edges")
    compact = np.zeros(max(n - 1, 0), dtype=np.int64)
    for i, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListParseError(i, f"expected '<v> <parent>', got {raw!r}")
        try:
            v, p = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(i, f"non-integer field in {raw!r}") from None
        if v != i:
            raise EdgeListParseError(i, f"expected vertex {i} (ascending order), got {v}")
        if not 1 <= p < v:
            raise EdgeListParseError(i, f"parent {p} of vertex {v} not in [1, {v - 1}]")
        compact[i - 2] = p
    return RecursiveTree(compact, validate=False)


def write_edge_list(tree: RecursiveTree, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(serialize_tree(tree))


def read_edge_list(path) -> RecursiveTree:
    with open(path, "r") as fh:
        return parse_edge_list(fh.read())


def enumerate_recursive_trees(n: int) -> Iterator[RecursiveTree]:
    """Yield all (n-1)! recursive trees on n vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        yield RecursiveTree([])
        return
    for compact in itertools.product(*(range(1, v) for v in range(2, n + 1))):
        yield RecursiveTree(compact, validate=False)

