import random
from fractions import Fraction

import pytest

from chowforms import (
    BinaryForm,
    CurveMap,
    Plane,
    act_gl2,
    base_locus_free,
    cayley_biform,
    check_curve,
    incident,
    incident_oracle,
    map_degree,
)
from helpers import (
    compose_curve,
    rand_base_free_pair,
    rand_curve,
    rand_curve_birational,
    rand_invertible,
    rand_plane,
)

LINE = CurveMap.from_coeffs([[1, 0], [0, 1], [0, 0]])
CONIC = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
DOUBLE = CurveMap.from_coeffs([[1, 0, 0], [0, 0, 1], [0, 0, 0]])  # (z0^2, z1^2, 0)
BASED = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 1, 0]])  # common factor z0


def test_base_locus_free_examples():
    assert base_locus_free(LINE)
    assert not base_locus_free(BASED)
    assert base_locus_free(CONIC)


def test_incident_oracle_examples():
    # h1 is identically zero: the line lies inside the hyperplane x2 = 0
    assert incident_oracle(LINE, Plane((0, 0, 1), (1, 1, 0)))
    assert incident_oracle(CONIC, Plane((0, 1, 0), (0, 0, 1)))
    assert not incident_oracle(CONIC, Plane((0, 1, 0), (1, 0, -1)))
    with pytest.raises(ValueError, match="base locus"):
        incident_oracle(BASED, Plane((1, 0, 0), (0, 1, 0)))


def test_curve_inside_plane_is_incident():
    # a line in P^3 contained in the tested codimension-2 plane
    f = CurveMap.from_coeffs([[1, 0], [0, 1], [0, 0], [0, 0]])
    plane = Plane((0, 0, 1, 0), (0, 0, 0, 1))
    assert incident_oracle(f, plane)
    assert incident(cayley_biform(f), plane)


def test_map_degree_examples():
    assert map_degree(CONIC, rng=random.Random(1)) == 1
    assert map_degree(DOUBLE, rng=random.Random(1)) == 2
    assert map_degree(LINE, rng=random.Random(1)) == 1


def test_map_degree_deterministic_with_seed():
    runs = {map_degree(DOUBLE, rng=random.Random(9)) for _ in range(3)}
    assert runs == {2}


def test_map_degree_rejects_base_locus():
    with pytest.raises(ValueError):
        map_degree(BASED)


def test_check_curve_examples():
    r = check_curve(CONIC, rng=random.Random(1))
    assert (r.base_free, r.map_degree, r.image_degree, r.birational) == (True, 1, 2, True)
    r = check_curve(DOUBLE, rng=random.Random(1))
    assert (r.base_free, r.map_degree, r.image_degree, r.birational) == (True, 2, 1, False)
    r = check_curve(BASED, rng=random.Random(1))
    assert (r.base_free, r.map_degree, r.image_degree, r.birational) == (
        False,
        None,
        None,
        False,
    )


def test_check_curve_tests_the_base_locus_once(monkeypatch):
    import chowforms.oracle as oracle

    calls = []
    original = oracle.base_locus_free

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(oracle, "base_locus_free", counting)
    for f in (CONIC, DOUBLE, BASED):
        calls.clear()
        check_curve(f, rng=random.Random(1))
        assert len(calls) == 1
    calls.clear()
    with pytest.raises(ValueError):
        map_degree(BASED)
    assert len(calls) == 1


def test_map_degree_reparametrization_invariant():
    rng = random.Random(3)
    for _ in range(10):
        f = rand_curve(rng, 2, rng.randint(1, 3))
        if not base_locus_free(f):
            continue
        A = rand_invertible(rng, 2)
        assert map_degree(f, rng=random.Random(0)) == map_degree(
            act_gl2(f, A), rng=random.Random(0)
        )


def test_map_degree_multiplies_under_covers():
    rng = random.Random(5)
    for _ in range(5):
        g = rand_curve_birational(rng, 2, rng.randint(1, 2))
        phi0, phi1 = rand_base_free_pair(rng, 2)
        f = compose_curve(g, phi0, phi1)
        assert map_degree(f, rng=rng) == 2 * map_degree(g, rng=rng)


def test_degree_factorization():
    rng = random.Random(7)
    for _ in range(10):
        f = rand_curve(rng, rng.randint(2, 3), rng.randint(1, 3))
        r = check_curve(f, rng=rng)
        if r.base_free:
            assert r.map_degree * r.image_degree == f.d


def test_oracle_agrees_with_chow_form():
    rng = random.Random(11)
    for _ in range(10):
        f = rand_curve_birational(rng, rng.randint(2, 3), rng.randint(1, 3))
        ca = cayley_biform(f)
        for _ in range(10):
            plane = rand_plane(rng, f.n)
            assert incident(ca, plane) == incident_oracle(f, plane)
