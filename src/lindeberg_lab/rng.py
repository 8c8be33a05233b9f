"""Counter-based random streams for reproducible, parallel Monte Carlo.

Every random draw in this package is derived from the hierarchy

    (master_seed, experiment) -> 128-bit Philox key
    replicate index           -> 256-bit Philox counter block
    coordinate index          -> position within the replicate's draw sequence

so that any single replicate can be regenerated in isolation, in any order,
on any worker.  Samplers consume exactly one uniform per coordinate (inverse
CDF transforms only), which pins coordinate values to counter positions.
"""

from __future__ import annotations

import hashlib

import numpy as np
import numpy.random  # numpy 2 loads it lazily: load it at import

__all__ = ["experiment_code", "RandomStream"]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def experiment_code(experiment: str) -> int:
    """Stable 64-bit code for an experiment label (hash-salt independent)."""
    digest = hashlib.blake2b(experiment.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RandomStream:
    """Philox-backed stream family keyed by (master_seed, experiment).

    Replicate ``r`` starts at counter block ``r << 128``.  ``fill`` draws
    blocks of replicates; ``replicate(r)`` returns a generator positioned at
    replicate ``r``, shared and invalidated by the next ``replicate`` call.
    """

    def __init__(self, master_seed: int, experiment: str):
        if not 0 <= master_seed <= _MASK64:
            raise ValueError("master_seed must lie in 0..2**64 - 1")
        self._key = np.array(
            [master_seed, experiment_code(experiment)], dtype=_U64
        )
        self._bg = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._bg)
        # plain lists, which the state setter reads faster than uint64
        # arrays; buffer_pos 4 forces a refill on the first draw
        self._template = {
            "bit_generator": "Philox", "buffer": [0, 0, 0, 0],
            "state": {"counter": [0, 0, 0, 0], "key": self._key.tolist()},
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }

    def replicate(self, index: int) -> np.random.Generator:
        """Fast shared generator positioned at replicate ``index``."""
        if index < 0:
            raise ValueError("replicate index must be nonnegative")
        self._template["state"]["counter"][2] = index
        self._bg.state = self._template
        return self._gen

    def fill(self, start: int, out: np.ndarray) -> np.ndarray:
        """Row k of the 2-D float array ``out`` gets the uniforms of replicate
        ``start + k``; return ``out``."""
        for index, row in enumerate(out, start):
            self.replicate(index).random(out=row)
        return out
