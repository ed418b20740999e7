"""Numeric binary forms keep the coefficient normal form of
:func:`chowforms.polynomial.rational`: every operation returns ``int``
coefficients where the value is integral and a ``Fraction`` otherwise, never
a bool, a float or an integral ``Fraction``, with the values a plain
``Fraction`` computation gives."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chowforms import BinaryForm, CurveMap, act_gln, contract, det_bareiss, form_gcd, sylvester
from helpers import is_normal, naive_det, ref_gcd, ref_normalized

SCALAR = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


def assert_form(h: BinaryForm, ref: list) -> None:
    assert all(is_normal(c) for c in h.coeffs), h.coeffs
    assert list(h.coeffs) == ref


# -- the Fraction route: plain lists of Fractions, coeffs[j] at z0^(d-j) z1^j


def ref(h: BinaryForm) -> list:
    return [Fraction(c) for c in h.coeffs]


def ref_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_substitute(h: list, A) -> list:
    (a, b), (c, d) = A
    deg = len(h) - 1
    out = [Fraction(0)] * (deg + 1)
    for j, x in enumerate(h):
        term = [x]
        for _ in range(deg - j):
            term = ref_mul(term, [Fraction(a), Fraction(b)])
        for _ in range(j):
            term = ref_mul(term, [Fraction(c), Fraction(d)])
        out = [p + q for p, q in zip(out, term)]
    return out


def ref_contract(forms: list, cov) -> list:
    out = [Fraction(0)] * len(forms[0])
    for c, h in zip(cov, forms):
        out = [p + Fraction(c) * q for p, q in zip(out, h)]
    return out


def ref_sylvester(a: list, b: list) -> list:
    d = len(a) - 1
    return [[Fraction(0)] * i + h + [Fraction(0)] * (d - 1 - i) for h in (a, b) for i in range(d)]


@st.composite
def form(draw, degree):
    return BinaryForm(draw(st.lists(SCALAR, min_size=degree + 1, max_size=degree + 1)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_numeric_forms_stay_in_normal_form(data):
    d = data.draw(st.integers(1, 3))
    a, b = data.draw(form(d)), data.draw(form(d))
    e = data.draw(form(data.draw(st.integers(0, 2))))
    g = data.draw(form(data.draw(st.integers(0, 6))))
    k = data.draw(SCALAR)
    A = data.draw(st.lists(st.lists(SCALAR, min_size=2, max_size=2), min_size=2, max_size=2))
    cov = data.draw(st.lists(SCALAR, min_size=3, max_size=3))
    ra, rb, re = ref(a), ref(b), ref(e)

    assert_form(BinaryForm(ra), ra)
    assert_form(a + b, [x + y for x, y in zip(ra, rb)])
    assert_form(a - b, [x - y for x, y in zip(ra, rb)])
    assert_form(-a, [-x for x in ra])
    assert_form(a * e, ref_mul(ra, re))
    assert_form(a * k, [x * k for x in ra])
    assert_form(k * a, [x * k for x in ra])
    assert_form(a**2, ref_mul(ra, ra))
    assert_form(a.substitute_gl2(A), ref_substitute(ra, A))
    assert_form(g.substitute_gl2(A), ref_substitute(ref(g), A))
    zero = BinaryForm.zero(d)
    assert_form(zero, [Fraction(0)] * (d + 1))
    assert_form(contract([a, b, zero], cov), ref_contract([ra, rb, ref(zero)], cov))
    if not a.is_zero:
        assert_form(a.normalized(), ref_normalized(ra))
    if not (a.is_zero and b.is_zero):
        assert_form(form_gcd(a, b), ref_gcd(ra, rb))
    S = sylvester(a, b).entries
    assert all(is_normal(x) for row in S for x in row), S
    assert [[Fraction(x) for x in row] for row in S] == ref_sylvester(ra, rb)
    det = det_bareiss(S)
    assert is_normal(det) and det == naive_det(ref_sylvester(ra, rb))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_curve_actions_stay_in_normal_form(data):
    d = data.draw(st.integers(1, 3))
    forms = [data.draw(form(d)) for _ in range(3)]
    assume(not all(h.is_zero for h in forms))
    f = CurveMap(tuple(forms))
    B = data.draw(st.lists(st.lists(SCALAR, min_size=3, max_size=3), min_size=3, max_size=3))
    det = sum(
        Fraction(B[0][i]) * (Fraction(B[1][j]) * B[2][k] - Fraction(B[1][k]) * B[2][j])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    )
    assume(det != 0)
    k = data.draw(SCALAR)
    assume(k != 0)
    rows = [ref(h) for h in f.components]
    for h, row in zip(act_gln(f, B).components, B):
        assert_form(h, ref_contract(rows, row))
    for h, r in zip(f.scale(k).components, rows):
        assert_form(h, [x * k for x in r])
