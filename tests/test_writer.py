"""The term writer against the plain references of ``helpers``: the same
graded-lex order, the same text of every monomial, and the same eps table,
byte for byte, whatever order a polynomial's terms are stored in."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowforms import (
    CayleyBiform,
    MPoly,
    PluckerRep,
    content_primitive,
    family_biform,
    family_orders,
    join_family,
    normalize_attachment,
    uv_names,
)
from chowforms.chow import pform_scale, plucker_names
from chowforms.cli import _compute_json, _write_eps_table, load_curve, main
from chowforms.polynomial import _grlex_key, format_terms, monomial_writer
from helpers import (
    rand_curve_birational,
    reference_compute_json,
    ref_eps_table,
    ref_format_terms,
    ref_sorted_terms,
    seeded_joins,
)

RINGS = [(), ("x",), ("x0", "x1", "x2"), uv_names(1), uv_names(2), uv_names(2, eps=True)]


def rand_coeff(rng):
    if rng.random() < 0.5:
        return rng.choice([-1, 1]) * rng.randint(1, 12)
    return Fraction(rng.randint(-30, 30) or 1, rng.randint(2, 9))


def rand_poly(rng, names, terms):
    """Up to ``terms`` terms of mixed degrees, constant term included."""
    return MPoly(names, {tuple(rng.randint(0, 3) for _ in names): rand_coeff(rng) for _ in range(terms)})


def rand_mirrored(rng, n, terms):
    """A (d, d) biform on P^n whose every u-part equals its v-part, so the
    two halves of each exponent vector are equal tuples."""
    names = uv_names(n)
    parts = [tuple(rng.randint(0, 2) for _ in range(n + 1)) for _ in range(terms)]
    return MPoly(names, {part + part: rand_coeff(rng) for part in parts})


def check(p):
    assert p.sorted_terms() == ref_sorted_terms(p)
    assert format_terms(p) == ref_format_terms(p)


@pytest.mark.parametrize("names", RINGS, ids=lambda names: f"{len(names)}vars")
def test_format_terms_matches_the_reference(names):
    rng = random.Random(f"writer-{len(names)}")
    check(MPoly.zero(names))
    check(MPoly.const(names, Fraction(-7, 3)))
    check(MPoly.const(names, 5))
    for terms in (1, 2, 5, 20, 60):
        check(rand_poly(rng, names, terms))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_equal_halves_keep_their_own_variables(n):
    rng = random.Random(f"mirrored-{n}")
    for terms in (1, 3, 12):
        check(rand_mirrored(rng, n, terms))
    names = uv_names(1)
    p = MPoly(names, {(1, 0, 1, 0): 1, (0, 1, 0, 1): -2, (1, 1, 1, 1): Fraction(1, 2)})
    assert format_terms(p) == "+1/2 * u0^1 u1^1 v0^1 v1^1\n+1 * u0^1 v0^1\n-2 * u1^1 v1^1"


def test_one_writer_serves_many_polynomials_of_a_ring():
    rng = random.Random("shared-writer")
    names = uv_names(2)
    write = monomial_writer(names)
    for _ in range(20):
        for exps, _ in rand_poly(rng, names, 10).sorted_terms():
            assert write(exps) == " ".join(f"{v}^{e}" for v, e in zip(names, exps) if e)


@st.composite
def grlex_polys(draw, homogeneous):
    """A nonzero polynomial in 1-6 variables with nonzero int coefficients:
    every term of one total degree, or of mixed total degrees."""
    nv = draw(st.integers(1, 6))
    exps = st.lists(st.integers(0, 4), min_size=nv, max_size=nv)
    if homogeneous:
        # Each tuple is a sorted cut of 0..deg into nv parts.
        deg = draw(st.integers(0, 5))
        cuts = st.lists(st.integers(0, deg), min_size=nv - 1, max_size=nv - 1).map(sorted)
        exps = cuts.map(lambda c: [b - a for a, b in zip([0, *c], [*c, deg])])
    coeff = st.integers(1, 9) | st.integers(-9, -1)
    terms = draw(st.dictionaries(exps.map(tuple), coeff, min_size=1, max_size=25))
    return MPoly(tuple(f"x{i}" for i in range(nv)), terms)


@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "mixed"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_grlex_order_matches_the_key_sort(homogeneous, data):
    p = data.draw(grlex_polys(homogeneous))
    expected = sorted(p.terms, key=_grlex_key, reverse=True)
    assert [e for e, _ in p.sorted_terms()] == expected
    assert p.leading_term() == (expected[0], Fraction(p.terms[expected[0]]))
    _, q = content_primitive(p)
    assert q.terms[expected[0]] > 0


def curve_doc(f):
    return {"n": f.n, "d": f.d, "coeffs": [[str(c) for c in h.coeffs] for h in f.components]}


def has_fraction(fam):
    coeffs = [c for h in fam for c in h.coeffs]
    values = [x for c in coeffs for x in (c.terms.values() if isinstance(c, MPoly) else (c,))]
    return any(Fraction(x).denominator != 1 for x in values)


def write_pair(tmp_path, rng, n, d1, d2):
    """Curve files f.json and g.json of random birational curves of degrees
    d1 and d2 in P^n; returns their paths."""
    paths = []
    for name, d in (("f", d1), ("g", d2)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(curve_doc(rand_curve_birational(rng, n, d, -3, 3))))
        paths.append(str(path))
    return paths


# d = d1 + d2 of the family; d(d+1)/2 is odd for d = 2 and even for d = 3, 4.
@pytest.mark.parametrize("n, d1, d2", [(2, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2)])
def test_eps_table_of_normalized_joins_matches_the_reference(n, d1, d2, tmp_path, capsys):
    paths = write_pair(tmp_path, random.Random(f"eps-table-{n}-{d1}-{d2}"), n, d1, d2)
    table = tmp_path / "eps.tsv"
    argv = ["degenerate", *paths, "--normalize-attachment", "--emit-eps-table", str(table)]
    assert main(argv) == 0
    capsys.readouterr()
    f = normalize_attachment(load_curve(paths[0]), at=(1, 0))
    g = normalize_attachment(load_curve(paths[1]), at=(0, 1))
    fam = join_family(f, g)
    assert has_fraction(fam)  # the resultant is divided by lam^(2d) with lam > 1
    assert table.read_text(encoding="utf-8") == ref_eps_table(family_biform(fam))


def run_eps_table(tmp_path, capsys):
    paths = write_pair(tmp_path, random.Random("eps-table-split"), 3, 1, 2)
    table = tmp_path / "eps.tsv"
    argv = ["degenerate", *paths, "--normalize-attachment", "--emit-eps-table", str(table)]
    assert main(argv) == 0
    capsys.readouterr()


def test_eps_table_run_splits_the_family_determinant_by_eps_once(tmp_path, monkeypatch, capsys):
    # eps is split off once, by the slots of one whole coded determinant,
    # which both the table and its L are read from: no polynomial is
    # decomposed by eps.
    import chowforms.degeneration as degeneration

    calls = []
    decompose = MPoly.decompose
    coded_det = degeneration._coded_det

    def counted(self, name):
        calls.append(name)
        return decompose(self, name)

    def spy(M, K=None, headroom=0):
        calls.append(K)
        return coded_det(M, K, headroom)

    monkeypatch.setattr(MPoly, "decompose", counted)
    monkeypatch.setattr(degeneration, "_coded_det", spy)
    run_eps_table(tmp_path, capsys)
    assert calls == [None]


def test_eps_table_run_sends_no_eps_form_through_contraction_resultant(tmp_path, monkeypatch, capsys):
    # The table is written from the integer orders of the family
    # determinant, and the factor check runs on Plucker normal forms: no
    # form takes the route that divides by the scale.
    import chowforms.chow as chow
    import chowforms.degeneration as degeneration

    seen = []
    resultant = chow.contraction_resultant

    def spy(forms):
        seen.append(any(isinstance(c, MPoly) for h in forms for c in h.coeffs))
        return resultant(forms)

    monkeypatch.setattr(chow, "contraction_resultant", spy)
    monkeypatch.setattr(degeneration, "contraction_resultant", spy)
    run_eps_table(tmp_path, capsys)
    assert seen == []


# -- the writers do not lean on the stored order ----------------------------------
# The production route stores biform terms in output order already; each
# writer still sorts, so reversed and shuffled term dicts give the same bytes.


def reorderings(p):
    """p with its term dict rebuilt in reversed and in shuffled order."""
    items = list(p.terms.items())
    shuffled = items[:]
    random.Random(len(items)).shuffle(shuffled)
    return [MPoly(p.names, dict(order)) for order in (items[::-1], shuffled)]


def rand_part(rng, size, d):
    """A random exponent vector of ``size`` entries summing to d."""
    cuts = sorted(rng.randint(0, d) for _ in range(size - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))


def rand_bihomogeneous(rng, names, d, coeff=rand_coeff, terms=40):
    """A (d, d) form in u-block and v-block ``names``; the term
    u0^d v_n^d is always among them, so d >= 10 gives exponents of 10."""
    h = len(names) // 2
    exps = [rand_part(rng, h, d) + rand_part(rng, h, d) for _ in range(terms)]
    exps.append((d,) + (0,) * (2 * h - 2) + (d,))
    return MPoly(names, {e: coeff(rng) for e in exps})


def rand_homogeneous(rng, names, d, terms=40):
    """A degree-d form in ``names``, with the term names[0]^d among them."""
    exps = [rand_part(rng, len(names), d) for _ in range(terms)] + [(d,) + (0,) * (len(names) - 1)]
    return MPoly(names, {e: rand_coeff(rng) for e in exps})


def rand_int(rng):
    return rng.choice([-1, 1]) * rng.randint(1, 10**6)


@pytest.mark.parametrize("n, d", [(1, 11), (2, 10), (3, 12)])
def test_writers_ignore_the_stored_order_of_wide_biforms(n, d):
    rng = random.Random(f"stored-order-{n}-{d}")
    ca = CayleyBiform(n, d, rand_bihomogeneous(rng, uv_names(n), d))
    rep = PluckerRep(n, d, rand_homogeneous(rng, plucker_names(n), d))
    values = [*ca.poly.terms.values(), *rep.poly.terms.values()]
    assert max(max(e) for e in ca.poly.terms) >= 10
    assert any(type(c) is Fraction for c in values) and any(c < 0 for c in values)
    text, doc = ref_format_terms(ca.poly), reference_compute_json(ca, rep)
    for poly, prep in zip(reorderings(ca.poly), reorderings(rep.poly)):
        assert format_terms(poly) == text
        assert _compute_json(CayleyBiform(n, d, poly), PluckerRep(n, d, prep)) == doc


@pytest.mark.parametrize("n, d_f, d_g, f, g", seeded_joins("stored-order")[1::2])
def test_eps_table_ignores_the_stored_order(n, d_f, d_g, f, g, tmp_path):
    fam = join_family(f, g)
    _, orders = family_orders(fam)
    # Integer orders with exponents of 10 and more, against the same scale.
    rng = random.Random(f"stored-eps-{n}")
    wide = {k: rand_bihomogeneous(rng, uv_names(n), 10, rand_int, terms=15) for k in (0, 2, 3)}
    q = pform_scale(fam)
    eps_poly = MPoly(
        uv_names(n, eps=True),
        {e + (k,): Fraction(c, q) for k, w in wide.items() for e, c in w.terms.items()},
    )
    cases = [(orders, family_biform(fam)), (wide, CayleyBiform(n, 10, eps_poly))]
    path = tmp_path / "eps.tsv"
    for table, biform in cases:
        expected = ref_eps_table(biform)
        assert "/" in expected and "\t-" in expected
        for i in range(2):
            _write_eps_table(str(path), fam, {k: reorderings(w)[i] for k, w in table.items()})
            assert path.read_text(encoding="utf-8") == expected
