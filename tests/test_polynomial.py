import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowforms import (
    BinaryForm,
    MPoly,
    content_primitive,
    contract,
    form_gcd,
    form_gcd_all,
    format_terms,
    parse_rational,
    parse_terms,
    poly_divides,
)
from helpers import matmul, naive_det, rand_form, ref_embed, ref_gcd, ref_normalized

UV = ("u0", "u1", "v0", "v1")


def V(name, names=UV):
    return MPoly.var(names, name)


# -- MPoly basics ------------------------------------------------------------


def test_zero_terms_pruned():
    p = MPoly(UV, {(1, 0, 0, 0): 2, (0, 1, 0, 0): 0})
    assert p.terms == {(1, 0, 0, 0): Fraction(2)}


def test_arity_and_exponent_validation():
    with pytest.raises(ValueError):
        MPoly(UV, {(1, 0): 1})
    with pytest.raises(ValueError):
        MPoly(UV, {(-1, 0, 0, 0): 1})


def test_graded_lex_leading_term():
    p = V("v0") ** 3 + V("u0") * V("u1")
    assert p.leading_term()[0] == (0, 0, 3, 0)  # higher total degree wins
    q = V("u0") * V("v1") + V("u1") * V("v0")
    assert q.leading_term()[0] == (1, 0, 0, 1)  # tie broken on first slot


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        V("u0") + MPoly.var(("x0", "x1"), "x0")


_exps = st.tuples(*(st.integers(0, 2) for _ in UV))
_polys = st.dictionaries(_exps, st.integers(-4, 4), max_size=4).map(lambda t: MPoly(UV, t))


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == MPoly.zero(UV)


_numeric_forms = st.lists(
    st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5)), min_size=1, max_size=4
).map(BinaryForm)


@settings(max_examples=40, deadline=None)
@given(_polys, _polys, _numeric_forms, st.integers(0, 5))
def test_pow_matches_repeated_product(a, b, h, k):
    # One squaring routine serves an MPoly, a numeric form and a form with
    # MPoly coefficients.
    for x, one in ((a, MPoly.const(UV, 1)), (h, BinaryForm([1])), (BinaryForm([a, 2, b]), BinaryForm([1]))):
        expect = one
        for _ in range(k):
            expect = expect * x
        assert x**k == expect


@pytest.mark.parametrize("k", [-1, -3, 2.0, Fraction(2), "2", None])
def test_pow_rejects_negative_and_non_int_exponents(k):
    for x in (V("u0") + 1, BinaryForm([1, 2]), BinaryForm([V("u0"), 1])):
        with pytest.raises(ValueError, match="nonnegative integer"):
            x**k


def test_evaluate_full_and_partial():
    p = 2 * V("u0") * V("v1") + V("u1") ** 2
    val = p.evaluate({"u0": Fraction(2), "u1": Fraction(-1), "v0": Fraction(0), "v1": Fraction(3)})
    assert val == 2 * 2 * 3 + 1
    env = {x: V(x) for x in UV} | {"u0": V("u0") + V("u1")}
    shifted = p.evaluate(env, one=MPoly.const(UV, 1))
    assert shifted == 2 * (V("u0") + V("u1")) * V("v1") + V("u1") ** 2


def test_embed_restrict_decompose():
    p = V("u0") * V("v1")
    big = ref_embed(p, UV + ("eps",))
    assert big.names[-1] == "eps"
    q = big + MPoly.var(UV + ("eps",), "eps") ** 2
    parts = q.decompose("eps")
    assert set(parts) == {0, 2}
    assert parts[0] == p
    assert parts[2] == MPoly.const(UV, 1)


# -- content_primitive -------------------------------------------------------


def test_content_primitive_examples():
    p = 4 * V("u0") + 6 * V("u1")
    assert content_primitive(p) == (Fraction(2), 2 * V("u0") + 3 * V("u1"))
    p = -V("u0") * V("v1")
    assert content_primitive(p) == (Fraction(-1), V("u0") * V("v1"))
    p = Fraction(3, 2) * V("u0") ** 2 - Fraction(9, 4) * V("u1") ** 2
    c, q = content_primitive(p)
    assert (c, q) == (Fraction(3, 4), 2 * V("u0") ** 2 - 3 * V("u1") ** 2)
    assert c * q == p


def test_content_primitive_idempotent():
    rng = random.Random(11)
    for _ in range(30):
        terms = {
            tuple(rng.randint(0, 2) for _ in UV): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randint(1, 5))
        }
        p = MPoly(UV, terms)
        if p.is_zero:
            continue
        c, q = content_primitive(p)
        assert c * q == p
        assert content_primitive(q) == (Fraction(1), q)


def test_content_primitive_zero_errors():
    with pytest.raises(ValueError):
        content_primitive(MPoly.zero(UV))


# -- poly_divides ------------------------------------------------------------


def test_poly_divides_examples():
    assert poly_divides(V("u0"), V("u0") * V("v1")) == V("v1")
    w = V("u0") * V("v1") - V("u1") * V("v0")
    assert poly_divides(w, w * w) == w
    assert poly_divides(V("u0") + V("v0"), V("u0") * V("v0")) is None


def test_poly_divides_zero_divisor_errors():
    with pytest.raises(ValueError):
        poly_divides(MPoly.zero(UV), V("u0"))


def test_poly_divides_recovers_quotient():
    rng = random.Random(5)
    for _ in range(30):
        a = MPoly(
            UV,
            {
                tuple(rng.randint(0, 2) for _ in UV): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 3))
            },
        )
        q = MPoly(
            UV,
            {
                tuple(rng.randint(0, 2) for _ in UV): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 3))
            },
        )
        if a.is_zero or q.is_zero:
            continue
        assert poly_divides(a, a * q) == q


# -- serialization -----------------------------------------------------------


def test_format_terms_exact():
    p = V("u0") * V("v1") - V("u1") * V("v0")
    assert format_terms(p) == "+1 * u0^1 v1^1\n-1 * u1^1 v0^1"
    assert format_terms(MPoly.zero(UV)) == "0"
    q = MPoly.const(UV, Fraction(-3, 4)) + 2 * V("u0") ** 2
    assert format_terms(q) == "+2 * u0^2\n-3/4"


def test_reprs_show_the_wire_format_and_the_coefficients():
    p = V("u0") * V("v1") - V("u1") * V("v0")
    q = MPoly.const(UV, Fraction(-3, 4)) + 2 * V("u0") ** 2
    for x in (p, q, MPoly.zero(UV)):
        assert format_terms(x) in repr(x) and repr(UV) in repr(x)
    env = {"BinaryForm": BinaryForm, "Fraction": Fraction}
    for h in (BinaryForm([1, Fraction(-2, 3), 0, 5]), BinaryForm.zero(2), BinaryForm([Fraction(1, 2)])):
        assert eval(repr(h), env) == h
    assert repr(p) in repr(BinaryForm([p, 1]))


def test_parse_round_trip():
    rng = random.Random(3)
    names = UV + ("eps",)
    for _ in range(20):
        p = MPoly(
            names,
            {
                tuple(rng.randint(0, 3) for _ in names): Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                for _ in range(rng.randint(0, 6))
            },
        )
        assert parse_terms(format_terms(p), names) == p


def test_parse_accepts_starred_eps():
    names = UV + ("eps",)
    p = parse_terms("+2 * u0^1 v1^1 * eps^3", names)
    assert p == 2 * MPoly.monomial(names, (1, 0, 0, 1, 3))


def test_round_trip_keeps_the_wire_format():
    names = ("x", "y")
    text = "+3 * x^2\n-1/2 * x^1 y^1\n+7/3 * y^1\n-5"
    p = parse_terms(text, names)
    assert format_terms(p) == text
    assert parse_terms(format_terms(p), names) == p
    assert parse_terms("0", names) == MPoly.zero(names) and format_terms(MPoly.zero(names)) == "0"


def test_parse_rational_reads_its_grammar():
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert parse_rational("+6/4") == Fraction(3, 2)
    assert parse_rational("007") == 7
    assert parse_rational("-0") == 0


# Decimals, underscores, exponents and zero denominators, all of which
# Fraction(text) would take or raise ZeroDivisionError on.
OUTSIDE_THE_GRAMMAR = ["1.5", "1_0", "1e3", "1e10000000", "1/0", "-3/0", "0x10", "1/2/3", "", "+", "1/-2", "١٢"]


@pytest.mark.parametrize("text", OUTSIDE_THE_GRAMMAR + [None, 3])
def test_parse_rational_rejects_text_outside_the_grammar(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("text", OUTSIDE_THE_GRAMMAR[:6])
def test_parse_terms_rejects_coefficients_outside_the_grammar(text):
    with pytest.raises(ValueError, match="line 2: invalid coefficient"):
        parse_terms(f"+1 * x^1\n{text} * x^1", ["x"])


# -- BinaryForm basics -------------------------------------------------------


def test_binary_form_basics():
    h = BinaryForm([1, 0, -1])  # z0^2 - z1^2
    assert h.degree == 2 and not h.is_zero
    assert h.evaluate(Fraction(2), Fraction(1)) == 3
    z = BinaryForm.zero(3)
    assert z.is_zero and z.degree == 3


def test_binary_form_arithmetic():
    a = BinaryForm([1, 2])
    b = BinaryForm([0, 1])
    assert a * b == BinaryForm([0, 1, 2])
    assert a + BinaryForm([1, -2]) == BinaryForm([2, 0])
    with pytest.raises(ValueError):
        a + BinaryForm([1, 0, 0])
    assert 3 * a == BinaryForm([3, 6])
    assert a**2 == BinaryForm([1, 4, 4])


def test_substitute_gl2_examples():
    z0 = BinaryForm([1, 0])
    assert z0.substitute_gl2([[1, 0], [0, 1]]) == z0
    z0z1 = BinaryForm([0, 1, 0])
    assert z0z1.substitute_gl2([[0, 1], [1, 0]]) == z0z1
    sq = BinaryForm([1, 0, 0])
    assert sq.substitute_gl2([[1, 1], [0, 1]]) == BinaryForm([1, 2, 1])


def test_substitute_gl2_contravariant():
    rng = random.Random(17)
    for _ in range(20):
        h = rand_form(rng, rng.randint(1, 3))
        A = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        B = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        assert h.substitute_gl2(matmul(A, B)) == h.substitute_gl2(A).substitute_gl2(B)


def test_substitute_allows_singular():
    h = BinaryForm([1, 0, 0])
    assert h.substitute_gl2([[0, 0], [0, 0]]).is_zero


# -- gcd of binary forms -------------------------------------------------------


def test_form_gcd_examples():
    assert form_gcd(BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0])) == BinaryForm([1, 0])
    assert form_gcd(BinaryForm([1, 0, -1]), BinaryForm([1, -1])) == BinaryForm([1, -1])
    g = form_gcd(BinaryForm([1, 0, 1]), BinaryForm([0, 1, 0]))
    assert g.degree == 0


def test_form_gcd_coprime_has_nonzero_resultant():
    # independent check that z0^2 + z1^2 and z0*z1 share no projective root
    h1, h2 = [1, 0, 1], [0, 1, 0]
    M = [
        [h1[0], h1[1], h1[2], 0],
        [0, h1[0], h1[1], h1[2]],
        [h2[0], h2[1], h2[2], 0],
        [0, h2[0], h2[1], h2[2]],
    ]
    M = [[Fraction(x) for x in row] for row in M]
    assert naive_det(M) != 0
    assert form_gcd(BinaryForm([1, 0, 1]), BinaryForm([0, 1, 0])).degree == 0


def test_form_gcd_zero_handling():
    with pytest.raises(ValueError):
        form_gcd(BinaryForm.zero(2), BinaryForm.zero(2))
    h = BinaryForm([2, -4])
    assert form_gcd(BinaryForm.zero(1), h) == BinaryForm([1, -2])


def test_form_gcd_multiplicative():
    rng = random.Random(23)
    for _ in range(50):
        a = rand_form(rng, rng.randint(0, 3))
        b = rand_form(rng, rng.randint(0, 3))
        c = rand_form(rng, rng.randint(1, 3))
        lhs = form_gcd(a * c, b * c)
        rhs = (form_gcd(a, b) * c).normalized()
        assert lhs == rhs


def test_form_gcd_all():
    forms = [BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 1, 1])]
    assert form_gcd_all(forms).degree == 0
    forms = [BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm.zero(2)]
    assert form_gcd_all(forms) == BinaryForm([1, 0])
    with pytest.raises(ValueError):
        form_gcd_all([BinaryForm.zero(1), BinaryForm.zero(1)])


def _planted_forms(rng):
    """1-4 forms of degree at most 8 sharing a planted factor, with z0 and z1
    powers, zero forms and Fraction entries."""

    def coeffs(deg):
        return [
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.3
            else rng.randint(-4, 4)
            for _ in range(deg + 1)
        ]

    common = rand_form(rng, rng.randint(0, 3))
    common = common * BinaryForm([0] * rng.randint(0, 1) + [1] + [0] * rng.randint(0, 1))
    forms = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.15:
            forms.append(BinaryForm.zero(rng.randint(0, 8)))
            continue
        p0, p1 = rng.randint(0, 2), rng.randint(0, 2)
        extra = rng.randint(0, max(0, 8 - common.degree - p0 - p1))
        cofactor = BinaryForm([0] * p1 + coeffs(extra) + [0] * p0)
        forms.append(cofactor * common)
    return forms


def test_gcd_fold_matches_euclid_over_q():
    rng = random.Random(2024)
    for _ in range(300):
        forms = _planted_forms(rng)
        nonzero = [[Fraction(c) for c in h.coeffs] for h in forms if not h.is_zero]
        if not nonzero:
            with pytest.raises(ValueError):
                form_gcd_all(forms)
            continue
        ref = ref_normalized(nonzero[0])
        for r in nonzero[1:]:
            ref = ref_gcd(ref, r)
        G = form_gcd_all(forms)
        assert list(G.coeffs) == ref
        assert all(type(c) is int for c in G.coeffs)
        a, b = forms[0], forms[-1]
        if not (a.is_zero and b.is_zero):
            assert form_gcd(a, b) == form_gcd_all([a, b])


def test_normalized_form():
    h = BinaryForm([Fraction(-2, 3), Fraction(4, 3)])
    assert h.normalized() == BinaryForm([1, -2])
    with pytest.raises(ValueError):
        BinaryForm.zero(1).normalized()


# -- contraction ---------------------------------------------------------------


def test_contract_numeric_and_symbolic():
    forms = [BinaryForm([1, 0]), BinaryForm([0, 1]), BinaryForm([1, 1])]
    assert contract(forms, [2, 0, Fraction(1, 2)]) == BinaryForm(
        [Fraction(5, 2), Fraction(1, 2)]
    )
    assert contract(forms, [0, 0, 0]) == BinaryForm.zero(1)
    names = ("u0", "u1", "u2")
    u = [MPoly.var(names, n) for n in names]
    h = contract(forms, u)
    assert h.coeffs == (u[0] + u[2], u[1] + u[2])
    with pytest.raises(ValueError):
        contract(forms, [1, 2])


def test_contract_checks_degrees_only_where_the_covector_is_nonzero():
    forms = [BinaryForm([1, 2]), BinaryForm([1, 0, 3]), BinaryForm([Fraction(1, 2), 1])]
    h = contract(forms, [2, 0, Fraction(2, 3)])
    assert h == BinaryForm([Fraction(7, 3), Fraction(14, 3)])
    assert contract(forms, [4, 0, 2]).coeffs == (5, 10)
    assert all(type(c) is int for c in contract(forms, [4, 0, 2]).coeffs)
    with pytest.raises(ValueError, match="different degrees"):
        contract(forms, [1, 1, 0])
