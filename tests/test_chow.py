import itertools
import math
import random
from fractions import Fraction

import pytest

from chowforms import (
    BinaryForm,
    CayleyBiform,
    CurveMap,
    MPoly,
    Plane,
    act_gl2,
    act_gln,
    cayley_biform,
    content_primitive,
    format_terms,
    implicitize_plane_curve,
    incident,
    incident_oracle,
    plucker_form,
    plucker_rewrite,
    proportional,
    uv_names,
)
from chowforms.chow import PluckerRep, depends_only_on_wedge, plucker_names
from helpers import (
    checked_with,
    compose_curve,
    rand_base_free_pair,
    rand_curve,
    rand_curve_birational,
    rand_invertible,
    rand_plane,
    ref_depends_only_on_wedge,
    wedge,
)

LINE = CurveMap.from_coeffs([[1, 0], [0, 1], [0, 0]])  # (z0, z1, 0)
CONIC = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # (z0^2, z0 z1, z1^2)

UV2 = uv_names(2)


# -- construction ----------------------------------------------------------------


def test_line_biform_is_p01():
    ca = cayley_biform(LINE)
    assert ca.poly == wedge(UV2, 0, 1)


def test_conic_biform_formula():
    ca = cayley_biform(CONIC)
    assert ca.poly == wedge(UV2, 0, 2) ** 2 - wedge(UV2, 0, 1) * wedge(UV2, 1, 2)


def test_base_point_gives_zero_biform():
    f = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 1, 0]])  # common factor z0
    assert cayley_biform(f).is_zero


def test_biform_bidegree_validated():
    names = uv_names(1)
    with pytest.raises(ValueError):
        CayleyBiform(1, 1, MPoly.var(names, "u0"))
    with pytest.raises(ValueError, match="bidegree"):
        CayleyBiform(1, 1, wedge(names, 0, 1) + MPoly.var(names, "u0") * MPoly.var(names, "u1"))


def test_internal_biform_constructions_pass_the_public_checks():
    # normalized, products and Plucker expansion build their biforms
    # unchecked; the public constructor accepts each of them.
    f = CurveMap.from_coeffs([[1, 0, 2], [0, 1, -1], [3, 1, 0]])
    ca = cayley_biform(f)
    for x in (ca.normalized(), ca * ca, plucker_rewrite(ca).expand()):
        assert CayleyBiform(x.n, x.d, x.poly) == x
    assert plucker_rewrite(ca).expand() == ca


def test_plucker_expand_checks_the_p_degree():
    names = plucker_names(2)
    bad = PluckerRep(2, 2, MPoly.var(names, "p01"))
    with pytest.raises(ValueError, match="degree"):
        bad.expand()


# -- evaluation and incidence ------------------------------------------------------


def test_eval_examples():
    p01 = CayleyBiform(2, 1, wedge(UV2, 0, 1))
    assert p01.eval((1, 0, 0), (0, 1, 0)) == 1
    assert p01.eval((1, 2, 3), (1, 2, 3)) == 0
    conic = cayley_biform(CONIC)
    # the plane {x1 = x2 = 0} is the point e0 = f(1, 0), which lies on the conic
    assert conic.eval((0, 0, 1), (0, 1, 0)) == 0


def test_eval_bidegree_scaling():
    rng = random.Random(7)
    conic = cayley_biform(CONIC)
    u = tuple(rng.randint(-4, 4) for _ in range(3))
    v = tuple(rng.randint(-4, 4) for _ in range(3))
    lam, mu = Fraction(3), Fraction(-2)
    scaled = conic.eval(tuple(lam * x for x in u), tuple(mu * x for x in v))
    assert scaled == lam**2 * mu**2 * conic.eval(u, v)


def test_incident_examples():
    line_ca = cayley_biform(LINE)
    assert incident(line_ca, Plane((0, 0, 1), (1, 1, 0)))
    assert incident_oracle(LINE, Plane((0, 0, 1), (1, 1, 0)))

    conic_ca = cayley_biform(CONIC)
    through_e0 = Plane((0, 1, 0), (0, 0, 1))
    assert incident(conic_ca, through_e0)
    assert incident_oracle(CONIC, through_e0)

    # the plane {x1 = 0, x0 - x2 = 0} is the point (1, 0, 1), not on the conic
    off = Plane((0, 1, 0), (1, 0, -1))
    assert not incident(conic_ca, off)
    assert not incident_oracle(CONIC, off)


def test_incident_rejects_zero_biform():
    f = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        incident(cayley_biform(f), Plane((1, 0, 0), (0, 1, 0)))


# -- normalization ------------------------------------------------------------------


def test_normalized_examples():
    p01 = wedge(UV2, 0, 1)
    assert CayleyBiform(2, 1, 6 * p01).normalized().poly == p01
    assert CayleyBiform(2, 1, -p01).normalized().poly == p01  # sign flips: leading term u0 v1 positive
    assert CayleyBiform(2, 1, -p01).normalized() == CayleyBiform(2, 1, p01).normalized()
    messy = Fraction(2, 3) * (wedge(UV2, 0, 2) ** 2 - wedge(UV2, 0, 1) * wedge(UV2, 1, 2))
    norm = CayleyBiform(2, 2, messy).normalized()
    assert norm.poly == cayley_biform(CONIC).poly
    assert norm.normalized() == norm
    with pytest.raises(ValueError):
        cayley_biform(
            CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 1, 0]])
        ).normalized()


def test_proportional_examples():
    p01 = CayleyBiform(2, 1, wedge(UV2, 0, 1))
    assert proportional(CayleyBiform(2, 1, 2 * wedge(UV2, 0, 1)), p01)
    assert not proportional(CayleyBiform(2, 1, wedge(UV2, 0, 2)), p01)
    conic = cayley_biform(CONIC)
    assert proportional(CayleyBiform(2, 2, -3 * conic.poly), conic)
    with pytest.raises(ValueError):
        proportional(p01, conic)


def test_proportional_with_equal_leading_coefficients():
    conic = cayley_biform(CONIC)
    # Same leading term, another lower term: not proportional.
    other = conic.poly + MPoly.monomial(UV2, min(conic.poly.terms), 1)
    assert other.leading_term() == conic.poly.leading_term()
    assert not proportional(conic, CayleyBiform(2, 2, other))
    assert proportional(conic, CayleyBiform(2, 2, conic.poly * 1))
    scaled = CayleyBiform(2, 2, Fraction(-5, 7) * conic.poly)
    assert proportional(conic, scaled) and proportional(scaled, conic)
    assert proportional(scaled, CayleyBiform(2, 2, Fraction(-5, 7) * conic.poly))
    zero = CayleyBiform(2, 2, MPoly.zero(UV2))
    with pytest.raises(ValueError, match="zero biforms"):
        proportional(zero, zero)
    assert not proportional(zero, conic)
    with pytest.raises(ValueError, match="share"):
        proportional(conic, CayleyBiform(2, 1, wedge(UV2, 0, 1)))
    with pytest.raises(ValueError, match="share"):
        proportional(conic, cayley_biform(CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])))


# -- covariance suite ----------------------------------------------------------------


def test_scaling_homogeneity():
    rng = random.Random(11)
    for _ in range(10):
        n, d = rng.randint(1, 3), rng.randint(1, 2)
        f = rand_curve(rng, n, d)
        ca = cayley_biform(f)
        for lam in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            assert cayley_biform(f.scale(lam)).poly == lam ** (2 * d) * ca.poly


def test_gl2_covariance():
    rng = random.Random(13)
    for _ in range(20):
        n, d = rng.randint(1, 3), rng.randint(1, 3)
        f = rand_curve(rng, n, d)
        A = rand_invertible(rng, 2)
        det = Fraction(A[0][0]) * A[1][1] - Fraction(A[0][1]) * A[1][0]
        lhs = cayley_biform(act_gl2(f, A)).poly
        rhs = det ** (d * d) * cayley_biform(f).poly
        assert lhs == rhs


def test_gln_equivariance():
    rng = random.Random(17)
    for _ in range(10):
        n, d = rng.randint(1, 2), rng.randint(1, 2)
        f = rand_curve(rng, n, d)
        B = rand_invertible(rng, n + 1)
        names = uv_names(n)
        env = {}
        for i in range(n + 1):
            env[f"u{i}"] = sum(
                (Fraction(B[j][i]) * MPoly.var(names, f"u{j}") for j in range(n + 1)),
                MPoly.zero(names),
            )
            env[f"v{i}"] = sum(
                (Fraction(B[j][i]) * MPoly.var(names, f"v{j}") for j in range(n + 1)),
                MPoly.zero(names),
            )
        one = MPoly.const(names, 1)
        assert cayley_biform(act_gln(f, B)).poly == cayley_biform(f).poly.evaluate(env, one=one)


def test_unipotent_and_swap_invariance():
    rng = random.Random(19)
    for _ in range(6):
        n, d = rng.randint(1, 2), rng.randint(1, 3)
        f = rand_curve(rng, n, d)
        ca = cayley_biform(f)
        if ca.is_zero:
            continue
        assert depends_only_on_wedge(ca)
        names = uv_names(n)
        swap = {}
        for i in range(n + 1):
            swap[f"u{i}"] = MPoly.var(names, f"v{i}")
            swap[f"v{i}"] = MPoly.var(names, f"u{i}")
        sign = -1 if (d * d) % 2 else 1
        assert ca.poly.evaluate(swap, one=MPoly.const(names, 1)) == sign * ca.poly


def test_wedge_check_matches_substitution_reference():
    # Chow forms, a rational multiple, a product with a line's Chow form and
    # the swapped halves are accepted; an extra (d, d) monomial, one
    # coefficient negated and (u0 v0)^d are not; zero is.  Every accepted
    # biform satisfies the swap identity p(v, u) = (-1)^d p(u, v), which
    # the D check implies and no longer tests.
    rng = random.Random(43)
    verdicts = []
    for _ in range(12):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        ca = cayley_biform(rand_curve(rng, n, d))
        names, m = uv_names(n), n + 1
        swap = lambda p: MPoly(names, {e[m:] + e[:m]: c for e, c in p.terms.items()})
        u = [rng.randrange(m) for _ in range(d)]
        v = [m + rng.randrange(m) for _ in range(d)]
        extra = MPoly.monomial(names, [(u + v).count(i) for i in range(2 * m)])
        polys = [
            ca.poly,
            ca.poly * Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)),
            swap(ca.poly),
            ca.poly + extra,
            MPoly.monomial(names, [d if i in (0, m) else 0 for i in range(2 * m)]),
            MPoly.zero(names),
        ]
        if ca.poly:
            flip = rng.choice(sorted(ca.poly.terms))
            polys.append(MPoly(names, {e: -c if e == flip else c for e, c in ca.poly.terms.items()}))
        biforms = [CayleyBiform(n, d, poly) for poly in polys]
        if d < 3:
            biforms.append(ca * cayley_biform(rand_curve(rng, n, 1)))
        for b in biforms:
            verdicts.append(depends_only_on_wedge(b))
            assert verdicts[-1] == ref_depends_only_on_wedge(b)
            if verdicts[-1]:
                assert swap(b.poly) == (-1) ** b.d * b.poly
    assert set(verdicts) == {True, False}


def test_bidegree_of_stored_terms():
    rng = random.Random(23)
    for _ in range(5):
        n, d = rng.randint(1, 3), rng.randint(1, 3)
        ca = cayley_biform(rand_curve(rng, n, d))
        for exps in ca.poly.terms:
            assert sum(exps[: n + 1]) == d
            assert sum(exps[n + 1 :]) == d


# -- orbit separation ------------------------------------------------------------------


def test_same_orbit_same_normalized_biform():
    rng = random.Random(29)
    for _ in range(10):
        f = rand_curve_birational(rng, 2, rng.randint(1, 2))
        A = rand_invertible(rng, 2)
        a = cayley_biform(f).normalized()
        b = cayley_biform(act_gl2(f, A)).normalized()
        assert a == b


def test_distinct_images_distinct_normalized_biforms():
    rng = random.Random(31)
    found = 0
    while found < 10:
        f = rand_curve_birational(rng, 2, 2)
        g = rand_curve_birational(rng, 2, 2)
        # distinct images proven by distinct implicit equations
        if implicitize_plane_curve(f) == implicitize_plane_curve(g):
            continue
        assert cayley_biform(f).normalized() != cayley_biform(g).normalized()
        found += 1


# -- covers ---------------------------------------------------------------------------


def test_cover_power_law():
    rng = random.Random(37)
    for _ in range(5):
        g = rand_curve_birational(rng, 2, rng.randint(1, 2))
        phi0, phi1 = rand_base_free_pair(rng, 2)
        f = compose_curve(g, phi0, phi1)
        assert proportional(cayley_biform(f), cayley_biform(g) * cayley_biform(g))


# -- plucker rewrite --------------------------------------------------------------------


def test_plucker_line():
    rep = plucker_rewrite(cayley_biform(LINE))
    assert rep.canonical
    assert rep.poly == MPoly.var(rep.poly.names, "p01")


def test_plucker_conic():
    rep = plucker_rewrite(cayley_biform(CONIC))
    names = rep.poly.names
    p01, p02, p12 = (MPoly.var(names, k) for k in ("p01", "p02", "p12"))
    assert rep.poly == p02**2 - p01 * p12
    assert rep.canonical


def test_plucker_general_line_coordinates():
    rng = random.Random(41)
    for n in (2, 3, 4):
        while True:
            a = [rng.randint(-4, 4) for _ in range(n + 1)]
            b = [rng.randint(-4, 4) for _ in range(n + 1)]
            if any(
                a[i] * b[j] - a[j] * b[i]
                for i in range(n + 1)
                for j in range(i + 1, n + 1)
            ):
                break
        f = CurveMap.from_coeffs([[a[i], b[i]] for i in range(n + 1)])
        rep = plucker_rewrite(cayley_biform(f))
        pnames = rep.poly.names
        expected = MPoly.zero(pnames)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                c = Fraction(a[i]) * b[j] - Fraction(a[j]) * b[i]
                if c:
                    expected = expected + c * MPoly.var(pnames, f"p{i}{j}")
        assert rep.poly == expected
        assert rep.canonical


def test_plucker_round_trip_exact():
    rng = random.Random(43)
    for _ in range(6):
        n, d = rng.randint(2, 3), rng.randint(1, 2)
        ca = cayley_biform(rand_curve(rng, n, d))
        if ca.is_zero:
            continue
        rep = plucker_rewrite(ca)
        assert rep.expand().poly == ca.poly
        assert rep.canonical == (n <= 2 or d == 1)


def test_plucker_rejects_non_wedge_biform():
    names = uv_names(1)
    bad = CayleyBiform(1, 1, MPoly.var(names, "u0") * MPoly.var(names, "v0"))
    with pytest.raises(ValueError, match="wedge"):
        plucker_rewrite(bad)


# -- Plucker form by straightening ------------------------------------------------------


def has_nested_pair(rep: PluckerRep) -> bool:
    pairs = [(int(p[1]), int(p[2])) for p in rep.poly.names]
    return any(
        a < b < c < d
        for exps in rep.poly.terms
        for (a, d), e in zip(pairs, exps)
        if e
        for (b, c), e2 in zip(pairs, exps)
        if e2
    )


def rand_rational_curve(rng, n, d):
    """A birational curve with Fraction coefficients of mixed denominators."""
    while True:
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d + 1)] for _ in range(n + 1)]
        if any(any(r) for r in rows):
            f = CurveMap.from_coeffs(rows)
            if checked_with(f, rng).birational:
                return f


def straighten_cases():
    rng = random.Random(2101)
    grid = [(2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (3, 5), (4, 4), (5, 4)]
    cases = [(f"{n},{d}", rand_curve_birational(rng, n, d)) for n, d in grid]
    cases += [(f"Q {n},{d}", rand_rational_curve(rng, n, d)) for n, d in [(3, 2), (3, 3), (4, 3)]]
    phi0, phi1 = rand_base_free_pair(rng, 2)
    cases.append(("cover 3,4", compose_curve(rand_curve_birational(rng, 3, 2), phi0, phi1)))
    return cases


@pytest.mark.parametrize("f", [f for _, f in straighten_cases()], ids=[t for t, _ in straighten_cases()])
def test_plucker_form_equals_the_peel_of_the_normalized_biform(f):
    rep = plucker_form(f)
    ref = plucker_rewrite(cayley_biform(f).normalized())
    assert rep.poly.names == ref.poly.names
    assert rep.poly.terms == ref.poly.terms
    assert type(rep) is PluckerRep and (rep.n, rep.d) == (f.n, f.d)
    assert not has_nested_pair(rep)


def test_plucker_form_on_p2_is_the_raw_determinant_up_to_content_and_sign(monkeypatch):
    # No pair of P^2 is nested, so nothing is rewritten or expanded.  After
    # the P^2 duality the p-form is implicitize_plane_curve's equation.
    from chowforms.chow import bezout_pform, det_expand

    rng = random.Random(2102)
    curves = [rand_curve_birational(rng, 2, d) for d in (1, 2, 3, 4)] + [rand_rational_curve(rng, 2, 3)]
    expected = {}
    for f in curves:
        raw = det_expand(bezout_pform(f.components)).terms
        _, q = content_primitive(MPoly(plucker_names(2), raw))
        expected[f] = q, implicitize_plane_curve(f)
    monkeypatch.setattr("chowforms.chow.wedge_expand", lambda *a: pytest.fail("wedge_expand on P^2"))
    for f in curves:
        rep = plucker_form(f)
        q, implicit = expected[f]
        assert rep.poly.terms in (q.terms, (-q).terms)
        dual = {(c, b, a): -x if b % 2 else x for (a, b, c), x in rep.poly.terms.items()}
        assert dual in (implicit.terms, (-implicit).terms)


@pytest.mark.parametrize("a, b, c, d", list(itertools.combinations(range(6), 4)))
def test_each_plucker_relation_of_p5_agrees_with_wedge_expand(a, b, c, d):
    from chowforms.chow import _plucker_relation, wedge_expand

    names = plucker_names(5)
    p = {(int(k[1]), int(k[2])): MPoly.var(names, k) for k in names}
    rewritten = MPoly.zero(names)
    for kl, ij, sign in _plucker_relation(a, b, c, d):
        rewritten = rewritten + sign * p[kl] * p[ij]
    assert wedge_expand(p[a, d] * p[b, c], 6) == wedge_expand(rewritten, 6)
    assert not has_nested_pair(PluckerRep(5, 2, rewritten))


def test_straightening_a_high_power_needs_no_recursion():
    # p03^k p12^k = (p02 p13 - p01 p23)^k; a recursive straightener would
    # pass Python's recursion limit well before k = 1200.
    from chowforms.chow import _straighten

    k = 1200
    out = _straighten({(0, 0, k, k, 0, 0): 1}, 4)
    assert out == {(k - i, i, 0, 0, i, k - i): (-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)}


def test_plucker_form_of_a_base_pointed_curve_is_none():
    for f in (
        CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 1, 0]]),
        CurveMap.from_coeffs([[1, 1, 0], [0, 1, 1], [2, 2, 0], [0, 3, 3]]),  # common factor z0 + z1
    ):
        assert cayley_biform(f).is_zero
        assert plucker_form(f) is None


# -- implicitization ----------------------------------------------------------------------


def x_ring():
    return ("x0", "x1", "x2")


def test_implicitize_conic():
    poly = implicitize_plane_curve(CONIC)
    names = x_ring()
    x0, x1, x2 = (MPoly.var(names, k) for k in names)
    assert poly == x0 * x2 - x1**2


def test_implicitize_line():
    poly = implicitize_plane_curve(LINE)
    assert poly == MPoly.var(x_ring(), "x2")


def test_implicitize_cuspidal_cubic():
    cusp = CurveMap.from_coeffs([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    poly = implicitize_plane_curve(cusp)
    names = x_ring()
    x0, x1, x2 = (MPoly.var(names, k) for k in names)
    assert poly == x0 * x2**2 - x1**3
    # independent check: substituting the parametrization gives the zero form
    one = BinaryForm([Fraction(1)])
    env = {f"x{i}": c for i, c in enumerate(cusp.components)}
    assert poly.evaluate(env, one=one).is_zero


def test_implicitize_random_curves_vanish_on_image():
    rng = random.Random(47)
    one = BinaryForm([Fraction(1)])
    for _ in range(10):
        f = rand_curve_birational(rng, 2, rng.randint(1, 3))
        poly = implicitize_plane_curve(f)
        assert poly.total_degree() == f.d
        env = {f"x{i}": c for i, c in enumerate(f.components)}
        assert poly.evaluate(env, one=one).is_zero


def test_implicitize_errors():
    with pytest.raises(ValueError):
        implicitize_plane_curve(CurveMap.from_coeffs([[1, 0], [0, 1], [0, 0], [0, 0]]))
    double = CurveMap.from_coeffs([[1, 0, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(ValueError, match="birational"):
        implicitize_plane_curve(double)


def reference_implicitize(f):
    """The route implicitize_plane_curve replaced: the (u, v) biform rewritten
    in p_ij, the duality applied by MPoly.evaluate, then normalized."""
    rep = plucker_rewrite(cayley_biform(f))
    names = x_ring()
    env = {
        "p12": MPoly.var(names, "x0"),
        "p02": -MPoly.var(names, "x1"),
        "p01": MPoly.var(names, "x2"),
    }
    _, q = content_primitive(rep.poly.evaluate(env, one=MPoly.const(names, 1)))
    return q


def rand_rational_plane_curve(rng, d):
    while True:
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d + 1)]
            for _ in range(3)
        ]
        if any(any(r) for r in rows):
            f = CurveMap.from_coeffs(rows)
            if checked_with(f, rng).birational:
                return f


def test_implicitize_matches_plucker_rewrite_route():
    rng = random.Random(449)
    for d in range(1, 7):
        for f in (
            rand_curve_birational(rng, 2, d),
            rand_curve_birational(rng, 2, d),
            rand_rational_plane_curve(rng, d),
            rand_rational_plane_curve(rng, d),
        ):
            assert format_terms(implicitize_plane_curve(f)) == format_terms(
                reference_implicitize(f)
            ), f


def test_implicitize_skips_the_uv_round_trip(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("implicitization left the p-form route")

    monkeypatch.setattr("chowforms.chow.plucker_rewrite", forbidden)
    monkeypatch.setattr("chowforms.chow.cayley_biform", forbidden)
    monkeypatch.setattr(MPoly, "evaluate", forbidden)
    names = x_ring()
    x0, x1, x2 = (MPoly.var(names, k) for k in names)
    assert implicitize_plane_curve(CONIC) == x0 * x2 - x1**2
    rng = random.Random(450)
    for d in (3, 4):
        assert implicitize_plane_curve(rand_curve_birational(rng, 2, d)).total_degree() == d


def test_plucker_rejects_non_wedge_biform_in_p2():
    # u0*v0 has bidegree (1, 1) but is not a linear form in the p_ij; the
    # exact solve must reject it without a separate wedge pre-check
    names = uv_names(2)
    bad = CayleyBiform(2, 1, MPoly.var(names, "u0") * MPoly.var(names, "v0"))
    with pytest.raises(ValueError, match="wedge"):
        plucker_rewrite(bad)


def test_plucker_rejects_eps_biform():
    names = uv_names(1, eps=True)
    p01 = MPoly.var(names, "u0") * MPoly.var(names, "v1") - MPoly.var(
        names, "u1"
    ) * MPoly.var(names, "v0")
    with pytest.raises(ValueError, match="eps"):
        plucker_rewrite(CayleyBiform(1, 1, MPoly.var(names, "eps") * p01))
