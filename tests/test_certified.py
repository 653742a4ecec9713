"""Fixed points reported for the paper's n <= 4 models lie within a certified
radius of a true fixed point of the renormalized step (``certified.py``)."""

import numpy as np
import pytest

import qso
from qso.dynamics import find_fixed_point

from certified import enclosure


def two_biallelic() -> qso.ReducedQso:
    """The Mendelian operator of two biallelic components (n = 4), with base
    weights 0.1, 0.2, 0.3 and 0.4 in each gender."""
    space = qso.build_space([["A", "a"], ["B", "b"]])
    w = np.array([0.1, 0.2, 0.3, 0.4])
    base = qso.Distribution(space, np.concatenate([w, w]) / (2 * w.sum()))
    return qso.reduce(qso.mendelian_coefficients(space, base))


MODELS = {
    "rh": lambda: qso.rh_model()[0],
    "abo": lambda: qso.abo_model()[0],
    "trait-0.1": lambda: qso.mendelian_trait(0.1),
    "trait-0.4": lambda: qso.mendelian_trait(0.4),
    "mendelian-2x2": two_biallelic,
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


def test_multi_allele_report_is_certified_near_its_vertex():
    # From uniform the orbit approaches the vertex [1, 0, 0] at rate 3/4 and
    # stops with 1.5e-12 left on the second coordinate: the proved radius,
    # 2.9e-12, is far above RADIUS, and the vertex itself is the fixed point.
    # Equal weights such as (0.2, 0.2, 0.1) are left out: they fix a whole
    # segment of points, so no enclosure can be proved there.
    q = qso.multi_allele((0.25, 0.15, 0.1))
    point = find_fixed_point(q, qso.ReducedDistribution.uniform(q.n)).point.values
    found = enclosure(q.p, point)
    assert found.proved
    assert found.radius <= 1e-11, float(found.radius)
    vertex = enclosure(q.p, [1.0, 0.0, 0.0])
    assert vertex.proved and vertex.radius == 0
    assert np.abs(point - [1.0, 0.0, 0.0]).max() <= found.radius
