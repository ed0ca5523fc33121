"""Urn processes and the Dickman-type limit law of the largest subtree.

Three related samplers live here:

* Polya urn with reinforcement 1, started from (a, 1) balls.  The
  x-fraction converges to Beta(a, 1); the diagonal-hit helper estimates
  the probability that the x-fraction ever drops below a threshold,
  truncated at a finite horizon (so it is a lower bound of the
  infinite-horizon event; the horizon is always explicit).
* Hoppe urn: one black ball of weight 1; drawing black founds a new
  color, drawing a colored ball duplicates it.  Ball i draws
  floor(u * i), the attachment rule of a URRT with ball i as vertex
  i + 1 and black as the root, so the colors are the root subtrees of
  ``grow_urrt`` on the same draws: one ``tree.root_down`` pass paints
  them and ``tree.group_by`` counts each color's balls.  Tracks the
  leading color (ties to the earliest-born color) and every change.
* Exact sampler for D = max(U1, (1-U1)U2, (1-U1)(1-U2)U3, ...): the
  running product bounds every future term, so the first time it drops
  below the current maximum the draw can stop, having produced an exact
  sample.  This is the limit law of the largest root-subtree fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .tree import group_by, grow_urrt, root_down

_DIAGONAL_DP_MAX_HORIZON = 500
# Steps per block of the vectorized urns; each replicate draws a block's
# uniforms at once.
_TIME_BLOCK = 20_000


def polya_run(
    a: int,
    steps: int,
    rng: np.random.Generator,
    record_every: int = 1,
) -> np.ndarray:
    """Run a (a, 1)-started urn; rows of (t, x, y) at the recorded times.

    Always records t = 0 and the final step.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    x, y = a, 1
    rows = [(0, x, y)]
    u = rng.random(steps)
    for t in range(steps):
        if u[t] * (x + y) < x:
            x += 1
        else:
            y += 1
        if (t + 1) % record_every == 0 or t + 1 == steps:
            rows.append((t + 1, x, y))
    return np.array(rows, dtype=np.int64)


def _polya_steps(x: np.ndarray, a: int, steps: int, gens: Sequence[np.random.Generator]):
    """Advance the x-ball counts ``x`` in place, one draw per replicate and step.

    Yields the ball total after each step.  Each replicate consumes exactly
    one uniform per step from its own stream (same draws as single runs).
    """
    done = 0
    while done < steps:
        blk = min(_TIME_BLOCK, steps - done)
        u = np.stack([g.random(blk) for g in gens])
        for j in range(blk):
            tot = a + 1 + done + j
            x += u[:, j] * tot < x
            yield tot + 1
        done += blk


def polya_final_counts(
    a: int,
    steps: int,
    gens: Sequence[np.random.Generator],
) -> np.ndarray:
    """Final x-ball counts for many replicates, one generator each."""
    x = np.full(len(gens), a, dtype=np.int64)
    for _ in _polya_steps(x, a, steps, gens):
        pass
    return x


def polya_diagonal_hits(
    a: int,
    threshold: float,
    horizon: int,
    gens: Sequence[np.random.Generator],
) -> np.ndarray:
    """Whether each replicate's x-fraction drops below ``threshold`` by the horizon.

    The returned booleans witness the event x/(a+1+t) < threshold for
    some t <= horizon; the true (infinite-horizon) probability is at
    least the mean of this array.
    """
    x = np.full(len(gens), a, dtype=np.int64)
    hit = x < threshold * (a + 1)
    for tot in _polya_steps(x, a, horizon, gens):
        hit |= x < threshold * tot
    return hit


def polya_diagonal_hit_exact(a: int, threshold: float, horizon: int) -> float:
    """Exact P(x-fraction drops below threshold by the horizon), by recursion.

    Dynamic program over (x count, time); practical for small horizons
    only (guarded at 500).
    """
    if horizon > _DIAGONAL_DP_MAX_HORIZON:
        raise ValueError(f"exact recursion limited to horizon <= {_DIAGONAL_DP_MAX_HORIZON}")

    @lru_cache(maxsize=None)
    def rec(x_count: int, t: int) -> float:
        if x_count < threshold * (a + 1 + t):
            return 1.0
        if t == horizon:
            return 0.0
        tot = a + 1 + t
        p = x_count / tot
        return p * rec(x_count + 1, t + 1) + (1.0 - p) * rec(x_count, t + 1)

    return rec(a, 0)


@dataclass
class HoppeRun:
    """Trajectory of one Hoppe urn run.

    Arrays are indexed by time 0..steps.  ``leader`` is the color id of
    the current argmax (earliest-born wins ties), 0 before any color
    exists.  ``change_times`` lists every step at which the argmax
    changed, including its first establishment at t = 1.
    """

    num_colors: np.ndarray
    leader: np.ndarray
    leader_count: np.ndarray
    change_times: np.ndarray


def hoppe_run(steps: int, rng: np.random.Generator) -> HoppeRun:
    """Run a Hoppe urn for ``steps`` draws, tracking the leading color.

    Ball i is vertex i + 1 of ``grow_urrt(steps + 1, rng)`` and its color
    is the birth rank of the root child above it.  Counts only grow, so
    the leader is the running maximum over the events "a color reaches
    count k", keyed so that the earlier color wins a tie.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    tree = grow_urrt(steps + 1, rng)
    founds = tree.parent == 1
    num_colors = np.cumsum(founds)
    color = root_down(tree, 0, np.where(founds, num_colors, 0))[2:]
    # A ball's count at its step is one more than the earlier balls of its color.
    order, first = group_by(color, int(num_colors[-1]) + 1)
    count = np.empty(steps, dtype=np.int64)
    count[order] = np.arange(1, steps + 1) - first[color[order]]
    # Key b - 1 at t = 0 reads back as count 0 and color 0.
    b = steps + 2
    key = np.empty(steps + 1, dtype=np.int64)
    key[0] = b - 1
    key[1:] = count * b + (b - 1 - color)
    leader_count, rest = np.divmod(np.maximum.accumulate(key), b)
    leader = b - 1 - rest
    return HoppeRun(num_colors[1:], leader, leader_count, np.flatnonzero(np.diff(leader)) + 1)


def sample_dickman(rng: np.random.Generator) -> float:
    """One exact draw of D = max of the stick-breaking sequence.

    Stops as soon as the remaining product is below the running max;
    every term after that point is provably smaller, so the returned
    value is the max of the entire infinite sequence.
    """
    m = 0.0
    r = 1.0
    while r >= m:
        u = rng.random()
        term = r * u
        if term > m:
            m = term
        r *= 1.0 - u
    return m


def sample_dickman_many(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` exact draws, value-identical to repeated scalar calls.

    Uniforms are consumed in the same order as ``sample_dickman`` would
    consume them (buffered in blocks purely for speed).
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    out = np.empty(size, dtype=np.float64)
    buf = rng.random(max(4 * size, 64))
    pos = 0
    limit = buf.size
    blist = buf.tolist()
    for i in range(size):
        m = 0.0
        r = 1.0
        while r >= m:
            if pos == limit:
                buf = rng.random(max(size, 1024))
                blist = buf.tolist()
                limit = buf.size
                pos = 0
            u = blist[pos]
            pos += 1
            term = r * u
            if term > m:
                m = term
            r *= 1.0 - u
        out[i] = m
    return out
