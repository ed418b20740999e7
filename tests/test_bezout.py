"""The Plucker-weighted Bezout route to the Chow form, checked exactly against
the Sylvester backends (and, where sympy is installed, against sympy)."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from chowforms import (
    BinaryForm,
    CayleyBiform,
    CurveMap,
    MPoly,
    bezout,
    cayley_biform,
    check_curve,
    content_primitive,
    contract,
    contraction_resultant,
    det_bareiss,
    det_expand,
    family_biform,
    family_limit,
    family_orders,
    join_family,
    normalize_attachment,
    proportional,
    resultant,
    sylvester,
    uv_names,
)
from chowforms.chow import EPS, bezout_pform, normalized_expansion, wedge_expand
from chowforms.polynomial import form_ring, poly_divides
from helpers import naive_det, rand_curve, rand_form, ref_embed, seeded_joins


def sylvester_route(forms, names, m):
    """Res(sum u_i f_i, sum v_i f_i) by the Sylvester Laplace backend."""
    u = [MPoly.var(names, f"u{i}") for i in range(m)]
    v = [MPoly.var(names, f"v{i}") for i in range(m)]
    return resultant(contract(forms, u), contract(forms, v))


def eps_forms(fam):
    names = uv_names(len(fam) - 1, eps=True)
    forms = [
        BinaryForm([ref_embed(c, names) if isinstance(c, MPoly) else c for c in comp.coeffs])
        for comp in fam
    ]
    return forms, names


def rand_fraction_curve(rng, n, d):
    """A curve whose coefficients have denominators up to 6, so that
    :func:`contraction_resultant` divides by lam^(2d) with lam > 1."""
    while True:
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(d + 1)] for _ in range(n + 1)]
        if any(x.denominator != 1 for row in rows for x in row):
            return CurveMap.from_coeffs(rows)


# Largest d per n keeps the Sylvester reference (2d x 2d over 2(n+1)
# variables) to about a second.  Fraction curves run up to d = 5, so the
# sign (-1)^(d(d+1)/2) folded into the division takes both values.
@pytest.mark.parametrize("n, d_max", [(1, 6), (2, 4), (3, 3), (4, 3)])
def test_cayley_biform_equals_sylvester_route(n, d_max):
    rng, fraction_rng = random.Random(300 + n), random.Random(f"fraction-{n}")
    for d in range(1, d_max + 1):
        curves = [rand_curve(rng, n, d)]
        if d <= 5:
            curves.append(rand_fraction_curve(fraction_rng, n, d))
        for f in curves:
            expected = sylvester_route(f.components, uv_names(n), n + 1)
            assert cayley_biform(f).poly == expected, (n, d)


def test_base_pointed_curve_gives_zero_on_both_routes():
    common = BinaryForm([1, 1])  # z0 + z1 divides every component
    lines = CurveMap.from_coeffs([[1, 2], [0, 1], [3, -1]])
    f = CurveMap(tuple(common * c for c in lines.components))
    assert cayley_biform(f).is_zero
    assert sylvester_route(f.components, uv_names(2), 3).is_zero


# -- the normalized expansion of a p-form -----------------------------------------


def bezout_det(f):
    return det_expand(bezout_pform(f.components))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_normalized_expansion_is_the_normalized_chow_form(n):
    # Term for term and in iteration order, on int and Fraction curves.
    rng, fraction_rng = random.Random(f"normexp-{n}"), random.Random(f"normexp-fraction-{n}")
    for d in range(1, 5):
        for f in (rand_curve(rng, n, d), rand_fraction_curve(fraction_rng, n, d)):
            got = normalized_expansion(bezout_det(f), n + 1)
            ca = cayley_biform(f)
            if ca.is_zero:
                assert got.is_zero, (n, d)
                continue
            assert got.names == uv_names(n)
            assert list(got.terms.items()) == list(ca.normalized().poly.terms.items()), (n, d)


def test_normalized_expansion_makes_a_negative_lead_positive():
    f = rand_curve(random.Random(71), 3, 2)
    P = bezout_det(f)
    expected = cayley_biform(f).normalized().poly
    leads = set()
    for scale in (1, -1, 6, -35):
        pform = P * scale
        leads.add(next(iter(wedge_expand(pform, 4).terms.values())) < 0)
        got = normalized_expansion(pform, 4)
        assert next(iter(got.terms.values())) > 0
        assert list(got.terms.items()) == list(expected.terms.items())
    assert leads == {False, True}


@pytest.mark.parametrize("n", [2, 3])
def test_normalized_expansion_of_a_base_pointed_curve_is_zero(n):
    common = BinaryForm([1, 1])  # z0 + z1 divides every component
    lines = rand_curve(random.Random(72 + n), n, 1)
    f = CurveMap(tuple(common * c for c in lines.components))
    got = normalized_expansion(bezout_det(f), n + 1)
    assert got.is_zero and got.names == uv_names(n)
    assert normalized_expansion(MPoly.zero(bezout_det(lines).names), n + 1).is_zero


def test_normalized_expansion_divides_a_content_that_only_the_expansion_has():
    # P = 2 Q + (p01 p23 - p02 p13 + p03 p12): the Plucker relation expands
    # to 0, so P has content 1 but its expansion has content 2, and the
    # finishing gcd must divide it out.
    import math

    Q = bezout_det(rand_curve(random.Random(73), 3, 2))
    _, Q = content_primitive(Q)
    names = Q.names  # the pairs 01, 02, 03, 12, 13, 23
    relation = MPoly(names, {(1, 0, 0, 0, 0, 1): 1, (0, 1, 0, 0, 1, 0): -1, (0, 0, 1, 1, 0, 0): 1})
    assert wedge_expand(relation, 4).is_zero
    P = Q * 2 + relation
    assert math.gcd(*P.terms.values()) == 1
    expanded = wedge_expand(P, 4)
    assert math.gcd(*expanded.terms.values()) == 2
    got = normalized_expansion(P, 4)
    assert math.gcd(*got.terms.values()) == 1
    assert list(got.terms.items()) == list(CayleyBiform(3, 2, expanded).normalized().poly.terms.items())


def test_ten_dimensional_conic_has_unambiguous_pair_ring():
    rng = random.Random(1010)
    f = rand_curve(rng, 10, 2)
    ca = cayley_biform(f)
    assert ca.n == 10 and not ca.is_zero
    assert ca.poly == sylvester_route(f.components, uv_names(10), 11)


LINE_P3 = CurveMap.from_coeffs([[1, 0], [1, 1], [1, 2], [1, 3]])
CONIC_P3 = CurveMap.from_coeffs([[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
CONIC_F = CurveMap.from_coeffs([[1, 0, 0], [1, 1, 0], [1, 0, 1]])  # (1,1,1) at (1,0)
CONIC_G = CurveMap.from_coeffs([[1, 0, 1], [0, 0, 1], [0, 1, 1]])  # (1,1,1) at (0,1)


# A line and a conic in P^3 whose attachment points have coordinates other
# than 1, moved there by normalize_attachment: the join has Fraction
# coefficients.
LINE_P3_FAR = normalize_attachment(CurveMap.from_coeffs([[2, 1], [3, -1], [5, 2], [-4, 7]]))
CONIC_P3_FAR = normalize_attachment(
    CurveMap.from_coeffs([[3, 0, 1], [1, 2, 4], [2, -1, 3], [1, 1, -2]]), at=(0, 1)
)


@pytest.mark.parametrize(
    "f, g",
    [(LINE_P3, CONIC_P3), (CONIC_F, CONIC_G), (LINE_P3_FAR, CONIC_P3_FAR)],
    ids=["line_conic_P3", "conic_conic_P2", "normalized_line_conic_P3"],
)
def test_family_biform_equals_sylvester_route(f, g):
    assert check_curve(f).birational and check_curve(g).birational
    fam = join_family(f, g)
    forms, names = eps_forms(fam)
    biform = family_biform(fam)
    assert biform.has_eps
    assert biform.poly == sylvester_route(forms, names, len(fam))


def test_bezout_determinant_sign_against_both_backends():
    rng = random.Random(77)
    for d in range(1, 7):
        h1, h2 = rand_form(rng, d), rand_form(rng, d)
        sign = -1 if (d * (d + 1) // 2) % 2 else 1
        B = bezout(h1, h2)
        assert det_expand(B) == sign * resultant(h1, h2)
        assert det_bareiss(B) == det_expand(B)


def test_bezout_is_alternating_and_bilinear():
    rng = random.Random(78)
    f, g, h = (rand_form(rng, 3) for _ in range(3))
    lam = Fraction(-2, 3)
    assert bezout(f, f) == ((0,) * 3,) * 3
    minus = tuple(tuple(-x for x in row) for row in bezout(g, f))
    assert bezout(f, g) == minus
    lhs = bezout(f + lam * h, g)
    rhs = tuple(
        tuple(a + lam * b for a, b in zip(r1, r2)) for r1, r2 in zip(bezout(f, g), bezout(h, g))
    )
    assert lhs == rhs


def bezoutian_reference(h1, h2):
    """Bez(h1, h2) from its definition: the coefficient of s^i t^j in
    (h1(s) h2(t) - h1(t) h2(s)) / (s - t), divided exactly in Q[s, t], or
    in Q[s, t, eps] for forms with Q[eps] coefficients."""
    coeff_names = next((c.names for c in h1.coeffs + h2.coeffs if isinstance(c, MPoly)), ())
    names = ("s", "t") + coeff_names
    s, t = MPoly.var(names, "s"), MPoly.var(names, "t")

    def at(h, x):
        lift = lambda c: ref_embed(c, names) if isinstance(c, MPoly) else MPoly.const(names, c)
        return sum((lift(c) * x**p for p, c in enumerate(h.coeffs)), MPoly.zero(names))

    q = poly_divides(s - t, at(h1, s) * at(h2, t) - at(h1, t) * at(h2, s))
    assert q is not None
    d = h1.degree
    entries = [[{} for _ in range(d)] for _ in range(d)]
    for (i, j, *rest), c in q.terms.items():
        entries[i][j][tuple(rest)] = c
    if not coeff_names:
        return [[e.get((), 0) for e in row] for row in entries]
    return [[MPoly(coeff_names, e) for e in row] for row in entries]


def rand_eps_form(rng, d):
    """A degree-d form with random coefficients in Q[eps] of eps-degree <= 2."""
    return BinaryForm(
        [
            MPoly((EPS,), {(k,): Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for k in range(3)})
            for _ in range(d + 1)
        ]
    )


@pytest.mark.parametrize("kind", ["int", "fraction", "eps"])
@pytest.mark.parametrize("d", range(1, 8))
def test_bezout_matches_the_bezoutian_definition(d, kind):
    rng = random.Random(f"bezoutian-{kind}-{d}")
    for _ in range(3):
        if kind == "int":
            h1, h2 = rand_form(rng, d), rand_form(rng, d)
        elif kind == "fraction":
            h1, h2 = (
                BinaryForm([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d + 1)])
                for _ in range(2)
            )
        else:
            h1, h2 = rand_eps_form(rng, d), rand_eps_form(rng, d)
        B = bezout(h1, h2)
        assert [list(row) for row in B] == bezoutian_reference(h1, h2)
        if kind == "int":
            assert all(type(x) is int for row in B for x in row)
        if kind == "eps":
            assert all(isinstance(x, MPoly) and x.names == (EPS,) for row in B for x in row)


def test_bezout_takes_mixed_coefficients_as_given():
    # join_family coefficients mix int 0 with Q[eps] values, and bezout no
    # longer lifts the numbers: an entry that reads only numbers is a number.
    eps = MPoly.var((EPS,), EPS)
    lift = lambda x: x if isinstance(x, MPoly) else MPoly.const((EPS,), x)
    pairs = [(BinaryForm([eps, 1, 0]), BinaryForm([eps, 0, 1]))]
    for f, g in [(LINE_P3, CONIC_P3), (CONIC_F, CONIC_G)]:
        fam = join_family(f, g)
        assert {type(c) for h in fam for c in h.coeffs} == {int, MPoly}
        pairs += [(fam[k], fam[l]) for k in range(len(fam)) for l in range(k + 1, len(fam))]
    kinds = set()
    for h1, h2 in pairs:
        B = bezout(h1, h2)
        kinds.update(type(x) for row in B for x in row)
        assert [[lift(x) for x in row] for row in B] == bezoutian_reference(h1, h2)
    assert kinds == {int, MPoly}


def test_det_expand_matches_naive_on_symbolic_matrix():
    names = ("x", "y")
    x, y = MPoly.var(names, "x"), MPoly.var(names, "y")
    M = [[x, y, 1], [y - 1, x * y, x], [2, x + y, y * y]]
    assert det_expand(M) == naive_det(M)


def test_contraction_resultant_rejects_bad_degrees():
    with pytest.raises(ValueError):
        contraction_resultant([BinaryForm([1]), BinaryForm([2])])
    with pytest.raises(ValueError):
        contraction_resultant([BinaryForm([1, 0]), BinaryForm([0, 1, 1])])


X = MPoly.var(("x",), "x")
MALFORMED = [
    ((), "need at least two forms"),
    ((BinaryForm([1, 0]),), "need at least two forms"),
    ((BinaryForm([1, 0]), BinaryForm([0, 1, 1])), "forms must have equal degrees"),
    ((BinaryForm([1]), BinaryForm([2])), "degree must be at least 1"),
    ((BinaryForm([X, 0]), BinaryForm([0, MPoly.var((EPS,), EPS)])), "forms use different coefficient rings"),
]


@pytest.mark.parametrize(
    "forms, message", MALFORMED, ids=["none", "one", "unequal", "degree0", "two_rings"]
)
def test_every_entry_point_rejects_a_malformed_tuple_with_one_message(forms, message):
    routes = [bezout_pform, contraction_resultant, family_biform, family_limit]
    if all(h.is_numeric for h in forms):
        routes.append(CurveMap)
    if len(forms) == 2:
        routes += [lambda fs: sylvester(*fs), lambda fs: bezout(*fs)]
    for route in routes:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            route(tuple(forms))


def ring_error(ring):
    """The one message of every production route for a ring other than Q
    or Q[eps]."""
    return f"^{re.escape(f'coefficients must lie in Q or Q[eps], not Q[{ring}]')}$"


def test_every_production_route_rejects_a_ring_other_than_q_or_q_eps():
    # bezout_pform holds the check, before any arithmetic; every other
    # route reaches it.  The Sylvester cross-check takes any one ring.
    forms = (BinaryForm([X, 1]), BinaryForm([1, X * X]), BinaryForm([2, 3]))
    routes = [bezout_pform, contraction_resultant, family_biform, family_limit, family_orders]
    for route in routes:
        with pytest.raises(ValueError, match=ring_error("x")):
            route(forms)
    p01 = MPoly.var(("p01", "x"), "p01")
    with pytest.raises(ValueError, match=ring_error("x")):
        wedge_expand(p01 * MPoly.var(("p01", "x"), "x"), 2)
    assert form_ring(forms) == (1, ("x",))
    h1, h2 = forms[:2]
    assert resultant(h1, h2) == naive_det(sylvester(h1, h2).entries) == X**3 - 1
    assert bezout(h1, h2) == ((1 - X**3,),)


def test_bezout_pform_rejects_uv_named_and_mixed_coefficient_rings():
    fam = join_family(CONIC_F, CONIC_G)
    forms, _ = eps_forms(fam)  # eps coefficients embedded into Q[u, v, eps]
    for route in (bezout_pform, contraction_resultant):
        with pytest.raises(ValueError, match=ring_error("u0, u1, u2, v0, v1, v2, eps")):
            route(forms)
    x = MPoly.var(("x",), "x")
    mixed = [fam[0], BinaryForm([x, 0, 0, 0, 0]), *fam[2:]]
    with pytest.raises(ValueError, match="different coefficient rings"):
        bezout_pform(mixed)
    with pytest.raises(ValueError, match="different coefficient rings"):
        contraction_resultant(mixed)


def test_bezout_pform_checks_its_tuple_once(monkeypatch):
    # bezout would check each of the C(n+1, 2) pairs again; bezout_pform
    # checks the whole tuple once and calls the unchecked kernel.
    import importlib

    import chowforms.chow as chow

    # chowforms.resultant names the function, so fetch the module by name.
    resultant_module = importlib.import_module("chowforms.resultant")
    rng = random.Random("one-check")
    curves = [rand_curve(rng, n, d) for n, d in [(1, 2), (2, 3), (3, 2), (4, 3)]]
    fam = join_family(CONIC_F, CONIC_G)
    form_ring = chow.form_ring
    calls = []

    def counted(forms):
        calls.append(len(forms))
        return form_ring(forms)

    monkeypatch.setattr(chow, "form_ring", counted)
    monkeypatch.setattr(resultant_module, "form_ring", counted)
    for forms in [f.components for f in curves] + [fam]:
        calls.clear()
        bezout_pform(forms)
        assert calls == [len(forms)]


def test_bezout_pform_reads_the_eps_ring_off_a_join():
    fam = join_family(CONIC_F, CONIC_G)
    matrix = bezout_pform(fam)
    assert len(matrix) == fam[0].degree
    pairs = ("p0,1", "p0,2", "p1,2")
    assert all(x.names == pairs + (EPS,) for row in matrix for x in row)
    assert any(x.degree_in(EPS) > 0 for row in matrix for x in row)
    numeric = bezout_pform(CONIC_F.components)
    assert all(x.names == pairs for row in numeric for x in row)


# -- the Kronecker kernel of bezout_pform -------------------------------------------


def ref_pform(forms):
    """sum_{k<l} p_kl bezout(lam f_k, lam f_l) in MPoly arithmetic, lam the
    lcm of every coefficient denominator: the pairwise route that the
    integer kernel of bezout_pform must match term for term."""
    coeff_names = next((c.names for h in forms for c in h.coeffs if isinstance(c, MPoly)), ())
    values = [x for h in forms for c in h.coeffs for x in (c.terms.values() if isinstance(c, MPoly) else (c,))]
    lam = math.lcm(*(Fraction(x).denominator for x in values))
    pairs = list(combinations(range(len(forms)), 2))
    names = tuple(f"p{k},{l}" for k, l in pairs) + coeff_names
    lift = lambda c: ref_embed(c, names) if isinstance(c, MPoly) else MPoly.const(names, c)
    d = forms[0].degree
    M = [[MPoly.zero(names)] * d for _ in range(d)]
    for k, l in pairs:
        p = MPoly.var(names, f"p{k},{l}")
        B = bezout(forms[k] * lam, forms[l] * lam)
        M = [[x + p * lift(b) for x, b in zip(row, brow)] for row, brow in zip(M, B)]
    return M


@pytest.mark.parametrize("n, d", [(1, 4), (2, 3), (3, 3), (4, 2)])
def test_bezout_pform_equals_the_pairwise_route_on_curves(n, d):
    rng = random.Random(f"kronecker-curve-{n}-{d}")
    for f in (rand_curve(rng, n, d), rand_fraction_curve(rng, n, d)):
        assert bezout_pform(f.components) == ref_pform(f.components)


def test_bezout_pform_equals_the_pairwise_route_on_joins():
    for *_, f, g in seeded_joins("kronecker"):
        fam = join_family(f, g)
        assert bezout_pform(fam) == ref_pform(fam)


def test_bezout_pform_equals_the_pairwise_route_on_line_families_and_mixed_rings():
    eps = MPoly.var((EPS,), EPS)
    double_line = (BinaryForm([1, 0, 0]), BinaryForm([0, eps, 0]), BinaryForm([0, 0, 1]))
    triple_line = (
        BinaryForm([1, 0, 0, 0]),
        BinaryForm([0, eps, 0, 0]),
        BinaryForm([0, 0, eps, 0]),
        BinaryForm([0, 0, 0, 1]),
    )
    families = [double_line, triple_line]
    rng = random.Random("kronecker-rings")

    def coeff(ring):
        # ints (zero included), Fractions, and polynomials with Fraction terms
        kind = rng.random()
        if kind < 0.3:
            return rng.randint(-4, 4)
        if kind < 0.4:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return MPoly(ring, {tuple(rng.randint(0, 2) for _ in ring): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)})

    for m, d in [(2, 1), (3, 2), (4, 3)]:
        families.append(tuple(BinaryForm([coeff((EPS,)) for _ in range(d + 1)]) for _ in range(m)))
    for forms in families:
        assert bezout_pform(forms) == ref_pform(forms)
    # Q[x, eps] holds no family: the same draws over it are rejected.
    for m, d in [(2, 1), (3, 2), (4, 3)]:
        forms = tuple(BinaryForm([coeff(("x", EPS)) for _ in range(d + 1)]) for _ in range(m))
        assert form_ring(forms)[1] == ("x", EPS)
        with pytest.raises(ValueError, match=ring_error("x, eps")):
            bezout_pform(forms)


def test_bezout_pform_rejects_sparse_and_dense_rings_of_other_variables(monkeypatch):
    # Sparse: a few terms c * x_k^e per coefficient over Q[x0..x5].  Dense:
    # every monomial of degree <= 6 in each of x, y.  Neither is Q or
    # Q[eps], so both are rejected before the Bezoutian runs; the
    # Sylvester cross-check still takes them.
    import chowforms.chow as chow

    def forbidden(*args):
        raise AssertionError("a Bezoutian was taken")

    monkeypatch.setattr(chow, "bezoutian", forbidden)
    rng = random.Random("kronecker-sparse")
    six = tuple(f"x{i}" for i in range(6))

    def sparse():
        k = rng.randrange(6)
        return MPoly(six, {tuple(rng.randint(1, 2) if j in (k, (k + 1) % 6) else 0 for j in range(6)): rng.randint(-3, 3), (0,) * 6: 1})

    def dense():
        return MPoly(("x", "y"), {(i, j): rng.randint(1, 9) for i in range(7) for j in range(7)})

    for coeff, ring in [(sparse, ", ".join(six)), (dense, "x, y")]:
        forms = [BinaryForm([coeff() for _ in range(4)]) for _ in range(4)]
        with pytest.raises(ValueError, match=ring_error(ring)):
            bezout_pform(forms)
        assert form_ring(forms)[1] and len(bezout(forms[0], forms[1])) == 3


def test_slot_width_is_the_least_that_holds_an_entry_at_the_bound(monkeypatch):
    # a = (-A P, A P) and b = (A P, A P) with P = 1 + eps + ... + eps^D give
    # Bez(a, b) = a_1 b_0 - a_0 b_1 = 2 A^2 P^2: every coefficient positive,
    # the middle one 2 (D + 1) A^2, the bound for d = 1.  One byte less and
    # that digit no longer fits its slot: the entry reads wrong, or the
    # read-back overflows.  100 and 128 sit on both sides of a byte; a
    # one-byte width has no narrower one to try.
    import chowforms.chow as chow

    width = chow._slot_bytes
    for D, A in [(1, 1), (1, 5), (3, 4), (2, 5), (3, 1000), (4, 7)]:
        P = MPoly((EPS,), {(k,): A for k in range(D + 1)})
        forms = [BinaryForm([-P, P]), BinaryForm([P, P])]
        expected = ref_pform(forms)
        bound = 2 * (D + 1) * A * A
        assert max(expected[0][0].terms.values()) == bound
        W = width(bound)
        assert 2 ** (8 * W - 9) <= bound < 2 ** (8 * W - 1)
        assert bezout_pform(forms) == expected
        if W == 1:
            continue
        monkeypatch.setattr(chow, "_slot_bytes", lambda *args: width(*args) - 1)
        try:
            assert bezout_pform(forms) != expected
        except OverflowError:
            pass
        monkeypatch.setattr(chow, "_slot_bytes", width)


# -- independent oracle: sympy ---------------------------------------------------------


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3)])
def test_cayley_biform_proportional_to_sympy_resultant(n, d):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(900 + 10 * n + d)
    while True:
        f = rand_curve(rng, n, d)
        if any(c.coeffs[d] for c in f.components):  # degree d after z0 -> 1
            break
    t = sympy.Symbol("t")
    u = sympy.symbols(f"u0:{n + 1}")
    v = sympy.symbols(f"v0:{n + 1}")

    def dehomogenized(covector):
        return sum(
            c * sympy.Rational(x.numerator, x.denominator) * t**j
            for c, comp in zip(covector, f.components)
            for j, x in enumerate(comp.coeffs)
        )

    res = sympy.Poly(sympy.resultant(dehomogenized(u), dehomogenized(v), t), *u, *v)
    terms = {exps: Fraction(int(c.p), int(c.q)) for exps, c in res.terms()}
    oracle = CayleyBiform(n, d, MPoly(uv_names(n), terms))
    assert proportional(cayley_biform(f), oracle)


def test_join_family_biform_equals_sympy_resultant():
    # The dehomogenized contractions over Q[u, v, eps] at z0 = 1 list the
    # Sylvester coefficients in the reverse column order, so sympy's
    # resultant is q times the family biform with q = (-1)^d.
    sympy = pytest.importorskip("sympy")
    fam = join_family(CONIC_F, CONIC_G)
    n, d = len(fam) - 1, fam[0].degree
    t, eps = sympy.symbols(f"t {EPS}")
    u = sympy.symbols(f"u0:{n + 1}")
    v = sympy.symbols(f"v0:{n + 1}")

    def rational(x):
        return sympy.Rational(x.numerator, x.denominator)

    def coeff(c):
        if isinstance(c, MPoly):
            return sum(rational(x) * eps ** e[0] for e, x in c.terms.items())
        return rational(c)

    def dehomogenized(covector):
        return sum(w * coeff(c) * t**j for w, h in zip(covector, fam) for j, c in enumerate(h.coeffs))

    res = sympy.Poly(sympy.resultant(dehomogenized(u), dehomogenized(v), t), *u, *v, eps)
    oracle = MPoly(uv_names(n, eps=True), {e: Fraction(int(c.p), int(c.q)) for e, c in res.terms()})
    assert oracle.degree_in(EPS) > 0
    assert family_biform(fam).poly * (-1) ** d == oracle
