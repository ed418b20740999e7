"""Incidence queries over Z: numeric biform evaluation stays in the ring of
its inputs, incident() answers rational covectors exactly, and the scalar
entry points reject inexact values."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chowforms.cli
from chowforms import (
    CayleyBiform,
    CurveMap,
    MPoly,
    Plane,
    cayley_biform,
    content_primitive,
    family_biform,
    format_terms,
    incident,
    incident_oracle,
    join_family,
    limit_direction,
    normalize_attachment,
    uv_names,
)
from helpers import is_normal, plane_through, rand_curve_birational

# two lines in P^2 through (1, 1, 1), joined at parameters (1, 0) and (0, 1)
LINE_F = CurveMap.from_coeffs([[1, 0], [1, 0], [1, 1]])
LINE_G = CurveMap.from_coeffs([[0, 1], [1, 1], [0, 1]])
CONIC = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def denominators_cleared(w):
    lam = math.lcm(*(Fraction(x).denominator for x in w))
    return tuple(int(x * lam) for x in w)


# -- biform evaluation ----------------------------------------------------------


def test_eval_at_integer_covectors_returns_int():
    rng = random.Random(5)
    for n, d in [(2, 2), (2, 3), (3, 2)]:
        ca = cayley_biform(rand_curve_birational(rng, n, d)).normalized()
        for _ in range(5):
            u = [rng.randint(-6, 6) for _ in range(n + 1)]
            v = [rng.randint(-6, 6) for _ in range(n + 1)]
            value = ca.eval(u, v)
            assert type(value) is int
            assert value == ca.poly.evaluate(
                {**{f"u{i}": Fraction(x) for i, x in enumerate(u)},
                 **{f"v{i}": Fraction(x) for i, x in enumerate(v)}},
                one=Fraction(1),
            )


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in _compositions(total - first, parts - 1)
    ]


scalars = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)


@st.composite
def biforms_and_covectors(draw):
    n = draw(st.integers(1, 2))
    d = draw(st.integers(1, 2))
    monos = _compositions(d, n + 1)
    raw = draw(
        st.lists(
            st.tuples(st.sampled_from(monos), st.sampled_from(monos), scalars),
            min_size=1,
            max_size=6,
        )
    )
    terms: dict = {}
    for a, b, c in raw:
        terms[a + b] = terms.get(a + b, 0) + c
    ca = CayleyBiform(n, d, MPoly(uv_names(n), terms))
    u = draw(st.lists(scalars, min_size=n + 1, max_size=n + 1))
    v = draw(st.lists(scalars, min_size=n + 1, max_size=n + 1))
    return ca, u, v


@settings(max_examples=200, deadline=None)
@given(biforms_and_covectors())
def test_eval_equals_the_fraction_route(case):
    ca, u, v = case
    env = {f"u{i}": Fraction(x) for i, x in enumerate(u)}
    env.update((f"v{i}", Fraction(x)) for i, x in enumerate(v))
    old = ca.poly.evaluate(env, one=Fraction(1))
    value = ca.eval(u, v)
    assert value == old
    assert is_normal(value)
    # Scaling each covector scales the value by lam^d mu^d.
    lam = math.lcm(*(Fraction(x).denominator for x in u))
    mu = math.lcm(*(Fraction(x).denominator for x in v))
    scaled = ca.eval(denominators_cleared(u), denominators_cleared(v))
    assert scaled == lam**ca.d * mu**ca.d * value


def test_evaluate_default_stays_in_the_ring_of_its_inputs():
    xy = ("x", "y")
    p = MPoly(xy, {(2, 0): 3, (1, 1): -2, (0, 0): 5})
    assert type(p.evaluate({"x": 2, "y": 7})) is int
    assert p.evaluate({"x": 2, "y": 7}) == 3 * 4 - 2 * 14 + 5
    assert p.evaluate({"x": Fraction(1, 2), "y": 1}) == Fraction(3, 4) - 1 + 5
    half = MPoly(xy, {(1, 0): Fraction(1, 2)})
    assert half.evaluate({"x": 4, "y": 0}) == 2
    assert MPoly.zero(xy).evaluate({}) == 0


# -- incidence -------------------------------------------------------------------


def _rational_mix(rng, plane):
    """Another pair of covectors for the same plane, with rational entries."""
    while True:
        a, b, c, e = (Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(4))
        if a * e - b * c:
            break
    u = tuple(a * x + b * y for x, y in zip(plane.u, plane.v))
    v = tuple(c * x + e * y for x, y in zip(plane.u, plane.v))
    return Plane(u, v)


def _random_rational_plane(rng, n):
    while True:
        u = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(n + 1))
        v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(n + 1))
        try:
            return Plane(u, v)
        except ValueError:
            continue


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2)])
def test_incident_at_rational_covectors_agrees_with_rescaling_and_oracle(n, d):
    rng = random.Random(100 * n + d)
    for _ in range(3):
        f = rand_curve_birational(rng, n, d)
        raw = cayley_biform(f)
        biforms = [raw, raw.normalized(), CayleyBiform(n, d, raw.poly * Fraction(-5, 3))]
        planes = []
        for _ in range(4):
            z = (rng.randint(-3, 3), rng.randint(1, 3))
            planes.append(_rational_mix(rng, plane_through(rng, f.point(z))))
            planes.append(_random_rational_plane(rng, n))
        assert any(x.denominator > 1 for p in planes for x in p.u + p.v)
        for plane in planes:
            expected = incident_oracle(f, plane)
            rescaled = Plane(denominators_cleared(plane.u), denominators_cleared(plane.v))
            for ca in biforms:
                assert incident(ca, plane) is expected
                assert incident(ca, rescaled) is expected
        assert sum(incident(raw, p) for p in planes) >= 4


def test_incident_still_rejects_zero_and_eps_biforms():
    plane = Plane((Fraction(1, 2), 0, 1), (0, Fraction(2, 3), 1))
    with pytest.raises(ValueError):
        incident(CayleyBiform(2, 2, MPoly.zero(uv_names(2))), plane)
    with pytest.raises(ValueError):
        incident(family_biform(join_family(LINE_F, LINE_G)), plane)


def test_eval_rejects_eps_biforms():
    fb = family_biform(join_family(LINE_F, LINE_G))
    with pytest.raises(ValueError, match="eps"):
        fb.eval((1, 2, -3), (2, -1, 5))


# -- exact scalars at every entry point -------------------------------------------


@pytest.mark.parametrize("bad", [0.5, "1/2", True])
def test_curve_point_rejects_inexact_parameters(bad):
    with pytest.raises(TypeError):
        CONIC.point((bad, 1))
    with pytest.raises(TypeError):
        CONIC.point((1, bad))
    assert CONIC.point((Fraction(1, 2), 1)) == (Fraction(1, 4), Fraction(1, 2), 1)


# -- content_primitive -----------------------------------------------------------

polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(st.integers(-60, 60), scalars),
    max_size=6,
).map(lambda t: MPoly(("x", "y"), t))


@settings(max_examples=200, deadline=None)
@given(polys)
def test_content_primitive_matches_the_fraction_route(p):
    if p.is_zero:
        return
    c, q = content_primitive(p)
    num = math.gcd(*(Fraction(k).numerator for k in p.terms.values()))
    den = math.lcm(*(Fraction(k).denominator for k in p.terms.values()))
    expected_c = Fraction(num, den) if p.leading_coeff() > 0 else -Fraction(num, den)
    assert type(c) is Fraction and c == expected_c
    assert q == p * (1 / expected_c)
    assert all(type(k) is int for k in q.terms.values())
    assert q.leading_coeff() > 0


# -- degenerate builds no component product in (u, v) -------------------------------


def test_degenerate_multiplies_no_component_biforms(tmp_path, capsys, monkeypatch):
    # The factor check runs on Plucker normal forms, and the product line of
    # a join that factors is the limit's text: no biform is multiplied.
    rows_f = [["2", "1"], ["1", "3"], ["1", "1"]]
    rows_g = [["1", "0", "1"], ["0", "1", "1"], ["1", "1", "1"]]
    paths = []
    for name, rows in (("f.json", rows_f), ("g.json", rows_g)):
        path = tmp_path / name
        path.write_text(json.dumps({"n": 2, "d": len(rows[0]) - 1, "coeffs": rows}))
        paths.append(str(path))
    f = normalize_attachment(CurveMap.from_coeffs([[int(x) for x in r] for r in rows_f]), at=(1, 0))
    g = normalize_attachment(CurveMap.from_coeffs([[int(x) for x in r] for r in rows_g]), at=(0, 1))
    limit = limit_direction(family_biform(join_family(f, g)))
    product = cayley_biform(f).normalized() * cayley_biform(g).normalized()
    expected = (
        f"limit n=2 d=3\n{format_terms(limit.poly)}\n"
        f"product n=2 d=3\n{format_terms(product.poly)}\nFACTORS:yes\n"
    )

    calls = []
    mul = CayleyBiform.__mul__

    def counting_mul(self, other):
        calls.append((self.d, other.d))
        return mul(self, other)

    monkeypatch.setattr(CayleyBiform, "__mul__", counting_mul)
    code = chowforms.cli.main(["degenerate", *paths, "--normalize-attachment"])
    out = capsys.readouterr().out
    assert code == 0
    assert calls == []
    assert out == expected
