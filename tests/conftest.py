"""Fixtures that more than one test module uses."""

import hashlib

import numpy as np
import pytest

from qsurg import codes, gf2, surgery


@pytest.fixture
def trivial_css():
    """[[1, 1, 1]]: a single qubit with no checks."""
    return codes.CssCode(h_x=gf2.zeros(0, 1), h_z=gf2.zeros(0, 1),
                         j_x=gf2.eye(1), j_z=gf2.eye(1), n=1, k=1, d=1)


@pytest.fixture(scope="session")
def digest():
    """sha256 of a matrix's dtype, shape and bytes."""
    def of(m):
        m = np.ascontiguousarray(m)
        h = hashlib.sha256(repr((m.dtype.str, m.shape)).encode())
        h.update(m.tobytes())
        return h.hexdigest()
    return of


# Deformed codes whose matrices the golden tests pin: (target, alpha, R code).
GOLDEN_BUILDS = {
    "desk": lambda: (codes.surface_code_via_hgp(3), [[1]], codes.hamming_743()),
    "composite": lambda: (codes.direct_sum_css(codes.surface_code_via_hgp(3),
                                               codes.surface_code_via_hgp(3)),
                          [[1, 1]], codes.hamming_743()),
    "surface5_rep3": lambda: (codes.surface_code_via_hgp(5), [[1]],
                              codes.repetition(3)),
}


@pytest.fixture(scope="session", params=sorted(GOLDEN_BUILDS))
def golden_build(request):
    """(name, deformed code) of each GOLDEN_BUILDS entry."""
    target, alpha, r_code = GOLDEN_BUILDS[request.param]()
    return request.param, surgery.build_deformed(target, gf2.bitmat(alpha),
                                                 r_code)
