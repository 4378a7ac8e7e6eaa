"""Grid construction."""

import numpy as np
import pytest

from momentmg import Grid1D
from momentmg.errors import ConfigError


@pytest.mark.parametrize("nodes", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf],
                                   [-np.inf, 0.5, 1.0], [0.0, 0.5, 0.5], [1.0]])
def test_bad_nodes_are_config_errors(nodes):
    with pytest.raises(ConfigError, match="finite and strictly increasing"):
        Grid1D(np.array(nodes))
    with pytest.raises(ValueError):  # callers that catch ValueError still do
        Grid1D(np.array(nodes))


def test_uniform_grid():
    grid = Grid1D.uniform(2.0, 4)
    assert grid.n_cells == 4 and grid.length == 2.0
    assert np.array_equal(grid.dx, np.full(4, 0.5))
