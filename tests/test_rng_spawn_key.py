"""rng.substream builds SeedSequence.spawn's child directly."""

import numpy as np
import pytest

from shadowsim.rng import substream


@pytest.mark.parametrize("seed", [0, 7, 123456789, 2**63 - 1])
def test_substream_is_the_spawned_child(seed):
    for index in (0, 1, 5, 500, 2000):
        child = np.random.SeedSequence(seed).spawn(index + 1)[index]
        spawned = np.random.default_rng(child)
        direct = substream(seed, index)
        assert direct.bit_generator.state == spawned.bit_generator.state
        assert np.array_equal(direct.integers(2**63, size=8), spawned.integers(2**63, size=8))
