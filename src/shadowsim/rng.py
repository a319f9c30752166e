"""Seeded randomness helpers.

Everything stochastic in this package draws from numpy's PCG64 generator so
runs are reproducible from a single integer seed.  Independent substreams for
subtasks are the children numpy's SeedSequence.spawn would give, keyed by
task index, which is the documented split function for this package.
"""

from __future__ import annotations

import numpy as np
# numpy 2 imports numpy.random on first attribute access; import it here so that
# its cost falls in start-up, not in the first draw.
import numpy.random

RNG_NAME = "numpy-pcg64"


def make_rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(seed)


def substream(seed: int | None, index: int) -> np.random.Generator:
    """Generator for subtask ``index`` of a run seeded with ``seed``.

    Child ``index`` of SeedSequence(seed).spawn is the sequence with spawn
    key (index,), so it is built directly, in time independent of ``index``.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
