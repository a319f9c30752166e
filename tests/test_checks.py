"""Helpers of the invariant suite against their library references."""

import numpy as np
import pytest
from scipy import stats

from shadowsim.checks import _chi2_sf


@pytest.mark.parametrize("df", range(1, 9))
def test_chi2_survival_matches_scipy(df):
    for x in np.concatenate([[0.0], np.geomspace(1e-6, 150.0, 300)]):
        want = float(stats.chi2.sf(x, df))
        assert abs(_chi2_sf(float(x), df) - want) <= 1e-12 * want


def test_chi2_survival_needs_a_degree_of_freedom():
    with pytest.raises(ValueError, match="df >= 1"):
        _chi2_sf(1.0, 0)
