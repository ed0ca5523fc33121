"""Counter-based random number streams.

Every piece of randomness in this package flows from a ``(master_seed,
stream_id)`` pair.  The pair is used directly as the 128-bit key of a
Philox-4x64 bit generator, so distinct pairs give statistically
independent streams and the mapping is bit-reproducible across runs,
platforms, and worker counts.  Replicate ``i`` of an experiment uses
stream id ``i``; nothing ever shares a stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Identity of one random stream: a master seed plus a stream id."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in 64 bits")
        if not 0 <= self.stream_id <= _MASK64:
            raise ValueError("stream_id must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
