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


def experiment_code(experiment: str | int) -> int:
    """Stable 64-bit code for an experiment label (hash-salt independent)."""
    if isinstance(experiment, int):
        return experiment & _MASK64
    digest = hashlib.blake2b(experiment.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RandomStream:
    """Philox-backed stream family keyed by (master_seed, experiment).

    ``replicate(r)`` positions the counter at block ``r << 128`` and returns a
    generator for that replicate.  The returned generator is shared and is
    invalidated by the next ``replicate`` call.
    """

    def __init__(self, master_seed: int, experiment: str | int = 0):
        if not 0 <= master_seed <= _MASK64:
            raise ValueError("master_seed must lie in 0..2**64 - 1")
        self.master_seed = master_seed
        self.experiment = experiment
        self._key = np.array(
            [master_seed, experiment_code(experiment)], dtype=_U64
        )
        self._bg = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._bg)
        template = self._bg.state
        template["state"]["counter"][:] = 0
        template["buffer_pos"] = 4  # force a refill on first draw
        template["has_uint32"] = 0
        template["uinteger"] = 0
        self._template = template

    def replicate(self, index: int) -> np.random.Generator:
        """Fast shared generator positioned at replicate ``index``."""
        if index < 0:
            raise ValueError("replicate index must be nonnegative")
        self._template["state"]["counter"][2] = index
        self._bg.state = self._template
        return self._gen
