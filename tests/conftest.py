"""Fixtures that more than one test module uses."""

import pytest

from qsurg import codes, gf2


@pytest.fixture
def trivial_css():
    """[[1, 1, 1]]: a single qubit with no checks."""
    return codes.CssCode(h_x=gf2.zeros(0, 1), h_z=gf2.zeros(0, 1),
                         j_x=gf2.eye(1), j_z=gf2.eye(1), n=1, k=1, d=1)
