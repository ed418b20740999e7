import random
from dataclasses import astuple
from fractions import Fraction

import pytest

from chowforms import (
    BinaryForm,
    CurveCheck,
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
from chowforms.polynomial import form_gcd_all
from helpers import (
    all_minors,
    allpairs_sample_map_degree,
    compose_curve,
    plane_through,
    rand_base_free_pair,
    rand_curve,
    rand_curve_birational,
    rand_form,
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


def sampler_cases():
    """Seeded curves for the sampler tests: n = 1..5, integer curves, curves
    with Fraction coefficients and degree-2 covers."""
    cases = []
    for n in range(1, 6):
        rng = random.Random(n)
        for _ in range(7):
            d = rng.randint(1, 3)
            cases.append(rand_curve(rng, n, d))
            rows = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d + 1)]
                for _ in range(n + 1)
            ]
            cases.append(CurveMap.from_coeffs(rows))
            phi0, phi1 = rand_base_free_pair(rng, 2)
            cases.append(compose_curve(rand_curve(rng, n, rng.randint(1, 2)), phi0, phi1))
    return cases


def _checked(f, seed):
    rng = random.Random(seed)
    try:
        report = check_curve(f, rng=rng)
    except RuntimeError as exc:
        report = str(exc)
    return report, rng.getstate()


def test_pivot_sampler_matches_the_all_pairs_reference(monkeypatch):
    import chowforms.oracle as oracle

    cases = sampler_cases()
    assert len(cases) >= 100
    ours = [_checked(f, seed) for seed, f in enumerate(cases)]
    monkeypatch.setattr(oracle, "_sample_map_degree", allpairs_sample_map_degree)
    reference = [_checked(f, seed) for seed, f in enumerate(cases)]
    assert ours == reference
    reports = [r for r, _ in ours if isinstance(r, CurveCheck) and r.base_free]
    assert len(reports) >= 90
    assert {1, 2} <= {r.map_degree for r in reports}


def test_pivot_minors_have_the_gcd_of_all_minors():
    # P_k M_ij = P_j N_i - P_i N_j with N_i = P_k f_i - P_i f_k, P_k != 0.
    rng = random.Random(17)
    points = [(1, 2), (2, -3), (0, 1), (1, 0)]
    # f_0 vanishes at (1, 2) on the last five curves, so the pivot there is a
    # later coordinate.
    root = BinaryForm([-2, 1])
    curves = sampler_cases() + [
        CurveMap((root * rand_form(rng, 2),) + f.components[1:])
        for f in (rand_curve(rng, n, 3) for n in range(1, 6))
    ]
    shifted = 0
    for f in curves:
        if not base_locus_free(f):
            continue
        for z in points + [(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(3)]:
            P = f.point(z)
            k = next(i for i, x in enumerate(P) if x)
            shifted += k > 0
            pivot = [P[k] * h - P[i] * f.components[k] for i, h in enumerate(f.components) if i != k]
            everything = all_minors(f, P)
            if all(m.is_zero for m in pivot):
                assert everything == []
            else:
                assert form_gcd_all(pivot) == form_gcd_all(everything)
    assert shifted


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


def _counting_base_locus_free(monkeypatch):
    import chowforms.oracle as oracle

    calls = []
    original = oracle.base_locus_free

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(oracle, "base_locus_free", counting)
    return calls


def test_incident_oracle_tests_the_base_locus_only_when_incident(monkeypatch):
    calls = _counting_base_locus_free(monkeypatch)
    disjoint = Plane((0, 1, 0), (1, 0, -1))  # x1 = 0 and x0 = x2 miss the conic
    assert not incident_oracle(CONIC, disjoint)
    assert calls == []
    assert incident_oracle(CONIC, Plane((0, 1, 0), (0, 0, 1)))
    assert len(calls) == 1


def test_incident_oracle_raises_on_base_points_for_every_plane():
    # f = l * g with a base point at the root of l, in P^3 with x3 = 0 on f
    rng = random.Random(13)
    for _ in range(5):
        g = rand_curve_birational(rng, 2, rng.randint(1, 2))
        l = BinaryForm([rng.randint(1, 4), rng.randint(-4, 4)])
        f = CurveMap(tuple(l * c for c in g.components) + (BinaryForm.zero(g.d + 1),))
        point = g.point((rng.randint(-3, 3), rng.randint(1, 3))) + (0,)
        planes = [plane_through(rng, point) for _ in range(5)]
        planes += [rand_plane(rng, 3) for _ in range(5)]
        # <f, u> is identically zero for u = e3
        planes += [Plane((0, 0, 0, 1), (1, rng.randint(-3, 3), rng.randint(-3, 3), 0))]
        for plane in planes:
            with pytest.raises(ValueError, match="base locus"):
                incident_oracle(f, plane)


# check_curve reports on seeded curves and their degree-2 covers, with the
# next draw of the shared generator: a printed seed reproduces every sample.
CHECK_PINS = {
    0: ((True, 1, 1, True), (True, 2, 1, False), 279701488),
    1: ((True, 1, 2, True), (True, 2, 2, False), 593628450),
    2: ((True, 1, 3, True), (True, 2, 3, False), 189751635),
    3: ((True, 1, 1, True), (True, 2, 1, False), 45944372),
    4: ((True, 1, 2, True), (True, 2, 2, False), 508511121),
    5: ((True, 1, 3, True), (True, 2, 3, False), 310639063),
    6: ((True, 1, 1, True), (True, 2, 1, False), 864127571),
    7: ((True, 1, 2, True), (True, 2, 2, False), 450047120),
    8: ((True, 1, 3, True), (True, 2, 3, False), 115673040),
    9: ((True, 1, 1, True), (True, 2, 1, False), 220074250),
}


@pytest.mark.parametrize("seed", sorted(CHECK_PINS))
def test_check_curve_reports_are_pinned(seed):
    rng = random.Random(seed)
    f = rand_curve_birational(rng, 2 + seed % 2, 1 + seed % 3)
    phi0, phi1 = rand_base_free_pair(rng, 2)
    cover = compose_curve(f, phi0, phi1)
    reports = (astuple(check_curve(f, rng=rng)), astuple(check_curve(cover, rng=rng)))
    assert reports + (rng.randint(0, 10**9),) == CHECK_PINS[seed]


def test_check_curve_report_ignores_component_scales():
    # check_curve samples on the primitive integer components; rescaling
    # each component by a nonzero rational changes neither the report nor
    # the draws it takes from the generator.
    rng = random.Random(107)
    for seed in range(6):
        f = rand_curve(rng, 2 + seed % 2, 1 + seed % 3)
        scales = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in f.components]
        g = CurveMap(tuple(c * h for c, h in zip(scales, f.components)))
        r1, r2 = random.Random(seed), random.Random(seed)
        assert check_curve(f, rng=r1) == check_curve(g, rng=r2)
        assert r1.random() == r2.random()
