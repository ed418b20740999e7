"""The integer-coefficient core: MPoly's coefficient normal form, the common
denominator cleared by contraction_resultant, plucker_rewrite over Q, and
the rejection of inexact scalars."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowforms import (
    BinaryForm,
    CayleyBiform,
    CurveMap,
    MPoly,
    Plane,
    cayley_biform,
    check_curve,
    family_biform,
    incident,
    join_family,
    normalize_attachment,
    plucker_rewrite,
    rational,
    uv_names,
)
from test_bezout import eps_forms, sylvester_route

XY = ("x", "y")


def in_normal_form(p: MPoly) -> bool:
    """Every coefficient nonzero, int when integral, else a non-integral
    Fraction; never a float or a bool."""
    return all(
        c and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
        for c in p.terms.values()
    )


# -- coefficient normal form --------------------------------------------------

scalars = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), scalars, max_size=5
).map(lambda t: MPoly(XY, t))


def ref_mul(a: MPoly, b: MPoly) -> dict:
    """Product over Fraction-valued dicts, nonzero terms only."""
    out: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c}


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys, scalars)
def test_ring_laws_keep_coefficient_normal_form(a, b, c, q):
    results = [
        a + b, b + a, (a + b) + c, a + (b + c),
        a * b, b * a, (a * b) * c, a * (b * c),
        a * (b + c), a * b + a * c,
        -a, a - b, a - a, a * q, q * a, a ** 2,
    ]
    assert all(in_normal_form(r) for r in results)
    assert a + b == b + a and (a + b) + c == a + (b + c)
    assert a * b == b * a and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero and a + 0 == a and a * 1 == a
    assert (a * b).terms == ref_mul(a, b)
    if q:
        assert (a * q) / q == a
    # Subtraction is adding the negative, and scalars commute with forms,
    # numeric or with MPoly coefficients.
    h, g, numeric = BinaryForm([a, q, b]), BinaryForm([c, a, 1]), BinaryForm([q, 1, -q])
    for x, y in ((a, b), (h, g), (numeric, BinaryForm([1, q, 2]))):
        assert x - y == x + (-y)
    for s in (3, q, Fraction(-2, 5), c):
        assert s * h == h * s and s * numeric == numeric * s
    assert q * numeric == BinaryForm([q * x for x in numeric.coeffs])


@settings(max_examples=100, deadline=None)
@given(polys)
def test_evaluate_and_substitution_keep_normal_form(a):
    x, y = MPoly.var(XY, "x"), MPoly.var(XY, "y")
    one = MPoly.const(XY, 1)
    swapped = a.evaluate({"x": y, "y": Fraction(1, 2) * x}, one=one)
    assert in_normal_form(swapped)
    assert swapped.evaluate({"x": 2 * y, "y": x}, one=one) == a


def test_integral_fractions_are_stored_as_int():
    p = MPoly(XY, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): Fraction(0)})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 3)}
    assert type(p.terms[(1, 0)]) is int
    assert type((p * 3).terms[(0, 1)]) is int


def test_single_coefficient_queries_return_fraction():
    p = MPoly(XY, {(1, 0): 3, (0, 0): 1})
    assert type(p.leading_coeff()) is Fraction
    assert type(p.leading_term()[1]) is Fraction
    assert type(MPoly.const(XY, 5).constant_value()) is Fraction
    # True division on the returned values stays exact.
    assert p.leading_coeff() / 2 == Fraction(3, 2)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1/2", None])
def test_constructors_reject_inexact_scalars(bad):
    with pytest.raises(TypeError):
        MPoly(XY, {(1, 0): bad})
    with pytest.raises(TypeError):
        MPoly.var(XY, "x") * bad


def test_rational_helper():
    assert rational(3) == 3 and type(rational(3)) is int
    assert type(rational(Fraction(6, 3))) is int
    assert rational(Fraction(1, 3)) == Fraction(1, 3)
    for bad in (0.1, True, "1", 1j):
        with pytest.raises(TypeError):
            rational(bad)


# -- the common denominator of contraction_resultant --------------------------


def rand_rational_curve(rng, n, d):
    while True:
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(d + 1)]
            for _ in range(n + 1)
        ]
        if any(c.denominator > 1 for r in rows for c in r) and any(any(r) for r in rows):
            return CurveMap.from_coeffs(rows)


@pytest.mark.parametrize("n, d", [(2, 3), (3, 2)])
def test_cayley_biform_of_rational_curve_equals_sylvester_route(n, d):
    rng = random.Random(700 + 10 * n + d)
    for _ in range(3):
        f = rand_rational_curve(rng, n, d)
        ca = cayley_biform(f)
        assert ca.poly == sylvester_route(f.components, uv_names(n), n + 1)
        assert in_normal_form(ca.poly)


def test_family_biform_of_normalized_rational_pair_equals_sylvester_route():
    line = CurveMap.from_coeffs([[1, 2], [3, -1], [2, 5]])
    conic = CurveMap.from_coeffs([[1, 0, 2], [0, 3, 1], [2, 1, 0]])
    assert check_curve(line).birational and check_curve(conic).birational
    f = normalize_attachment(line, at=(1, 0))
    g = normalize_attachment(conic, at=(0, 1))
    fam = join_family(f, g)
    forms, names = eps_forms(fam)
    # The forms carry non-integral coefficients, so a denominator is cleared.
    assert any(
        Fraction(q).denominator > 1
        for h in forms
        for c in h.coeffs
        for q in (c.terms.values() if isinstance(c, MPoly) else (c,))
    )
    biform = family_biform(fam)
    assert biform.poly == sylvester_route(forms, names, len(fam))
    assert in_normal_form(biform.poly)


def test_normalized_biform_has_int_coefficients():
    f = rand_rational_curve(random.Random(711), 2, 3)
    norm = cayley_biform(f).normalized()
    assert norm.poly.terms and all(type(c) is int for c in norm.poly.terms.values())


# -- Plucker rewrite over Q ---------------------------------------------------


@pytest.mark.parametrize("n, d", [(2, 3), (3, 2)])
def test_plucker_rewrite_of_rational_biform_scales_exactly(n, d):
    f = rand_rational_curve(random.Random(713 + n), n, d)
    ca = cayley_biform(f)
    rep = plucker_rewrite(ca)
    assert rep.expand().poly == ca.poly
    scale = Fraction(-3, 7)
    scaled = plucker_rewrite(CayleyBiform(n, d, ca.poly * scale))
    assert scaled.poly == rep.poly * scale
    assert in_normal_form(scaled.poly)


# -- inexact covectors ----------------------------------------------------------

CONIC = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("bad", [0.1, "1/2", True])
def test_biform_eval_rejects_inexact_covector_entries(bad):
    ca = cayley_biform(CONIC)
    with pytest.raises(TypeError):
        ca.eval((bad, 0, 1), (0, 1, 0))
    with pytest.raises(TypeError):
        ca.eval((1, 0, 1), (0, bad, 0))


@pytest.mark.parametrize("bad", [0.5, "1", False])
def test_plane_rejects_inexact_covector_entries(bad):
    with pytest.raises(TypeError):
        Plane((bad, 0, 1), (0, 1, 0))
    with pytest.raises(TypeError):
        Plane((1, 0, 1), (0, 1, bad))


def test_exact_covectors_still_accepted():
    ca = cayley_biform(CONIC).normalized()
    # The point (1 : 1 : 1) = f(1, 1) of the conic x1^2 = x0 x2.
    plane = Plane((Fraction(1, 2), 0, Fraction(-1, 2)), (1, -1, Fraction(0)))
    assert plane.v == (1, -1, 0) and type(plane.v[2]) is int
    assert incident(ca, plane) is True
    assert incident(ca, Plane((Fraction(1, 2), 0, -1), (0, 1, 0))) is False
