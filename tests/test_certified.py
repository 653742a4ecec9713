"""Fixed points reported for the paper's n <= 4 models lie within a certified
radius of a true fixed point of the renormalized step (``certified.py``)."""

import numpy as np
import pytest

import qso
from qso.dynamics import find_fixed_point

from certified import enclosure

MODELS = {
    "rh": lambda: qso.rh_model()[0],
    "abo": lambda: qso.abo_model()[0],
    "trait-0.1": lambda: qso.mendelian_trait(0.1),
    "trait-0.4": lambda: qso.mendelian_trait(0.4),
}

# a few ulp of a coordinate in [0, 1]; a point 1e-12 off is three orders out
RADIUS = 1e-15


@pytest.fixture(scope="module", params=sorted(MODELS))
def solved(request):
    q = MODELS[request.param]()
    return q, find_fixed_point(q, qso.ReducedDistribution.uniform(q.n)).point.values


def test_reported_fixed_point_is_certified(solved):
    q, point = solved
    found = enclosure(q.p, point)
    assert found.proved
    assert found.radius <= RADIUS, float(found.radius)


def test_enclosure_sees_a_point_moved_by_1e_12(solved):
    q, point = solved
    moved = point.copy()
    moved[np.argmax(moved)] -= 1e-12
    moved[np.argmin(moved)] += 1e-12
    assert enclosure(q.p, moved).radius > RADIUS


def test_exact_fixed_point_has_radius_zero():
    # the trait operator fixes both vertices exactly
    for vertex in ([1.0, 0.0], [0.0, 1.0]):
        found = enclosure(qso.mendelian_trait(0.1).p, vertex)
        assert found.proved and found.radius == 0
