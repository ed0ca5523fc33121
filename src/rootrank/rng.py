"""Counter-based random number streams.

Every piece of randomness in this package flows from a ``(master_seed,
stream_id)`` pair.  The pair is used directly as the 128-bit key of a
Philox-4x64 bit generator, so distinct pairs give statistically
independent streams and the mapping is bit-reproducible across runs,
platforms, and worker counts.  Replicate ``i`` of an experiment uses
stream id ``i``; nothing ever shares a stream.

``RngStream.generator`` builds a fresh generator for one stream.  A batch
of streams, one per replicate of a sweep, is read by ``stream_uniforms``,
which re-keys a single bit generator from stream to stream: building a
Philox costs about six times as much as re-keying one, and at ``n = 10^3``
that cost rivals the draws themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

_MASK64 = (1 << 64) - 1


def _check_id(name: str, value: int) -> None:
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must fit in 64 bits")


@dataclass(frozen=True)
class RngStream:
    """Identity of one random stream: a master seed plus a stream id."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        _check_id("master_seed", self.master_seed)
        _check_id("stream_id", self.stream_id)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def stream_uniforms(
    master_seed: int, stream_ids: Iterable[int], size: int
) -> Iterator[np.ndarray]:
    """Yield the first ``size`` uniforms of stream ``(master_seed, i)`` per id ``i``.

    Each array equals ``RngStream(master_seed, i).generator().random(size)``.
    One Philox serves every stream: before each stream it is re-keyed
    through its public ``state``, with counter 0, key ``[master_seed, i]``
    and an empty buffer, as a new Philox starts.  Every array yielded is the
    same buffer, refilled by the next step, so a caller copies what it
    keeps.  The seed and each id are checked as ``RngStream`` checks them,
    when the iteration reaches them.
    """
    _check_id("master_seed", master_seed)
    key = np.array([master_seed, 0], dtype=np.uint64)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits = np.random.Philox(key=key)
    gen = np.random.Generator(bits)
    out = np.empty(size, dtype=np.float64)
    for stream_id in stream_ids:
        _check_id("stream_id", stream_id)
        key[1] = stream_id
        bits.state = fresh
        gen.random(out=out)
        yield out
