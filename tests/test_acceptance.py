"""Acceptance suite: every criterion is exact (zero tolerance) and seeded.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion; each test prints its line only after every exact check in it has
succeeded.
"""

import random
from fractions import Fraction

from chowforms import (
    BinaryForm,
    CayleyBiform,
    CurveMap,
    MPoly,
    act_gl2,
    act_gln,
    boundary_factor_check,
    cayley_biform,
    check_curve,
    content_primitive,
    det_bareiss,
    family_biform,
    format_terms,
    implicitize_plane_curve,
    incident,
    incident_oracle,
    join_family,
    limit_direction,
    map_degree,
    proportional,
    resultant,
    sylvester,
    uv_names,
)
from chowforms.chow import depends_only_on_wedge
from helpers import (
    allpairs_sample_map_degree,
    compose_curve,
    plane_through,
    rand_base_free_pair,
    rand_curve,
    rand_curve_birational,
    rand_invertible,
    rand_plane,
)

PASS = "ACCEPTANCE {num} ({name}): PASS"


def _report(num, name):
    print(PASS.format(num=num, name=name))


def test_criterion_1_oracle_equivalence():
    rng = random.Random(1001)
    dims = [(n, d) for n in (2, 3, 4) for d in (1, 2, 3)]
    checked = 0
    for k in range(50):
        n, d = dims[k % len(dims)]
        f = rand_curve_birational(rng, n, d)
        ca = cayley_biform(f)
        for _ in range(20):
            plane = rand_plane(rng, n)
            assert incident(ca, plane) == incident_oracle(f, plane)
            checked += 1
        for _ in range(10):
            z = (Fraction(rng.randint(-20, 20)), Fraction(rng.randint(1, 20)))
            point = f.point(z)
            plane = plane_through(rng, point)
            assert incident(ca, plane)
            assert incident_oracle(f, plane)
            checked += 1
    assert checked == 50 * 30
    _report(1, "oracle equivalence on 1500 curve/plane incidences")


def test_criterion_2_grassmannian_lines():
    rng = random.Random(1002)
    done = 0
    while done < 20:
        n = rng.randint(2, 4)
        a = [rng.randint(-5, 5) for _ in range(n + 1)]
        b = [rng.randint(-5, 5) for _ in range(n + 1)]
        coords = {
            (i, j): Fraction(a[i]) * b[j] - Fraction(a[j]) * b[i]
            for i in range(n + 1)
            for j in range(i + 1, n + 1)
        }
        if not any(coords.values()):
            continue
        f = CurveMap.from_coeffs([[a[i], b[i]] for i in range(n + 1)])
        names = uv_names(n)
        expansion = MPoly.zero(names)
        for (i, j), c in coords.items():
            if c:
                w = MPoly.var(names, f"u{i}") * MPoly.var(names, f"v{j}") - MPoly.var(
                    names, f"u{j}"
                ) * MPoly.var(names, f"v{i}")
                expansion = expansion + c * w
        ca = cayley_biform(f)
        assert ca.poly == expansion
        assert ca.normalized().poly == content_primitive(expansion)[1]
        done += 1
    _report(2, "degree-1 biforms are Plucker coordinate expansions")


def test_criterion_3_plane_curve_implicitization():
    xnames = ("x0", "x1", "x2")
    x0, x1, x2 = (MPoly.var(xnames, k) for k in xnames)

    conic = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert implicitize_plane_curve(conic) in (x0 * x2 - x1**2, x1**2 - x0 * x2)

    cusp = CurveMap.from_coeffs([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert implicitize_plane_curve(cusp) in (x0 * x2**2 - x1**3, x1**3 - x0 * x2**2)

    rng = random.Random(1003)
    one = BinaryForm([Fraction(1)])
    for _ in range(10):
        f = rand_curve_birational(rng, 2, rng.randint(1, 3))
        poly = implicitize_plane_curve(f)
        env = {f"x{i}": c for i, c in enumerate(f.components)}
        assert poly.evaluate(env, one=one).is_zero
    _report(3, "plane-curve implicit equations vanish on the parametrization")


def test_criterion_4_covariance_suite():
    rng = random.Random(1004)
    dims = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 1)]
    lams = (Fraction(2), Fraction(-3), Fraction(1, 2))
    for k in range(20):
        n, d = dims[k % len(dims)]
        f = rand_curve(rng, n, d)
        ca = cayley_biform(f)
        names = uv_names(n)

        lam = lams[k % 3]
        assert cayley_biform(f.scale(lam)).poly == lam ** (2 * d) * ca.poly

        A = rand_invertible(rng, 2)
        detA = Fraction(A[0][0]) * A[1][1] - Fraction(A[0][1]) * A[1][0]
        assert cayley_biform(act_gl2(f, A)).poly == detA ** (d * d) * ca.poly

        B = rand_invertible(rng, n + 1)
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
        assert cayley_biform(act_gln(f, B)).poly == ca.poly.evaluate(env, one=MPoly.const(names, 1))

        if not ca.is_zero:
            assert depends_only_on_wedge(ca)  # unipotent + swap identities
    _report(4, "scaling, GL2, GLn, unipotent, and swap covariance exact on 20 samples")


def test_criterion_5_orbit_separation():
    rng = random.Random(1005)
    for _ in range(10):
        f = rand_curve_birational(rng, 2, rng.randint(1, 2))
        A = rand_invertible(rng, 2)
        assert cayley_biform(f).normalized() == cayley_biform(act_gl2(f, A)).normalized()
    found = 0
    while found < 10:
        f = rand_curve_birational(rng, 2, 2)
        g = rand_curve_birational(rng, 2, 2)
        if implicitize_plane_curve(f) == implicitize_plane_curve(g):
            continue  # same image; not a separating pair
        assert cayley_biform(f).normalized() != cayley_biform(g).normalized()
        found += 1
    _report(5, "normalized biforms separate orbits at sample scale")


def test_criterion_6_cover_detection():
    rng = random.Random(1006)
    for _ in range(5):
        g = rand_curve_birational(rng, 2, rng.randint(1, 2))
        phi0, phi1 = rand_base_free_pair(rng, 2)
        f = compose_curve(g, phi0, phi1)
        assert proportional(cayley_biform(f), cayley_biform(g) * cayley_biform(g))
        k = map_degree(f)
        assert allpairs_sample_map_degree(f, rng) == k
        assert k == 2
    _report(6, "degree-2 covers detected: Ca_f proportional to Ca_g^2, map degree 2")


def test_criterion_7_degeneration_factorization():
    f2 = CurveMap.from_coeffs([[1, 0], [1, 0], [1, 1]])
    g2 = CurveMap.from_coeffs([[0, 1], [1, 1], [0, 1]])
    fam = join_family(f2, g2)
    limit = limit_direction(family_biform(fam))
    assert boundary_factor_check(limit, [cayley_biform(f2), cayley_biform(g2)])

    # line + conic in P^3 through (1, 1, 1, 1)
    f3 = CurveMap.from_coeffs([[1, 0], [1, 1], [1, 2], [1, 3]])
    g3 = CurveMap.from_coeffs([[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    assert check_curve(f3).birational
    assert check_curve(g3).birational
    fam3 = join_family(f3, g3)
    limit3 = limit_direction(family_biform(fam3))
    assert boundary_factor_check(limit3, [cayley_biform(f3), cayley_biform(g3)])
    _report(7, "joined-family limits factor into component Chow forms")


def test_criterion_8_determinant_backends_agree():
    rng = random.Random(1008)
    for _ in range(20):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        names = uv_names(n)
        rows = [[rng.randint(-5, 5) for _ in range(d + 1)] for _ in range(n + 1)]
        forms = []
        for block in ("u", "v"):
            forms.append(
                BinaryForm(
                    [
                        sum(
                            (
                                MPoly.var(names, f"{block}{i}") * c
                                for i, c in enumerate(col)
                                if c
                            ),
                            MPoly.zero(names),
                        )
                        for col in zip(*rows)
                    ]
                )
            )
        lap = resultant(forms[0], forms[1])
        bar = det_bareiss(sylvester(forms[0], forms[1]))
        assert lap == bar
        if not lap.is_zero:
            assert format_terms(content_primitive(lap)[1]) == format_terms(
                content_primitive(bar)[1]
            )
    _report(8, "Laplace and Bareiss backends byte-identical on 20 symbolic instances")
