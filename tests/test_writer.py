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
    CurveMap,
    MPoly,
    PluckerRep,
    cayley_biform,
    content_primitive,
    det_expand,
    family_biform,
    family_orders,
    join_family,
    limit_direction,
    limit_pform,
    normalize_attachment,
    plucker_form,
    uv_names,
)
from chowforms.chow import bezout_pform, normalized_expansion, pform_scale, plucker_names, wedge_terms
from chowforms.cli import _compute_json, _write_eps_table, load_curve, main
from chowforms.polynomial import PackedTerms, _grlex_key, format_terms
from helpers import (
    mpolys,
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
    for _ in range(20):
        p = rand_poly(rng, names, 10)
        texts = [mono for mono, _ in PackedTerms.of(p).monomials()]
        assert texts == [" ".join(f"{v}^{e}" for v, e in zip(names, exps) if e) for exps, _ in p.sorted_terms()]


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
        assert _compute_json(n, d, PackedTerms.of(poly), PluckerRep(n, d, prep)) == doc


@pytest.mark.parametrize("n, d_f, d_g, f, g", seeded_joins("stored-order")[1::2])
def test_eps_table_ignores_the_stored_order(n, d_f, d_g, f, g, tmp_path):
    fam = join_family(f, g)
    orders = mpolys(family_orders(fam)[1])
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
            _write_eps_table(str(path), fam, {k: PackedTerms.of(reorderings(w)[i]) for k, w in table.items()})
            assert path.read_text(encoding="utf-8") == expected


# -- packed terms from the wedge kernel ---------------------------------------------
# compute, degenerate and the eps table print the packed items of wedge_terms as
# they stand: no exponent tuple is built and nothing is sorted again.


def fraction_curve(rng, n, d):
    """A curve in P^n whose coefficients have denominators up to 6."""
    while True:
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(d + 1)] for _ in range(n + 1)]
        if any(x.denominator != 1 for row in rows for x in row):
            return CurveMap.from_coeffs(rows)


@pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (2, 4), (3, 3), (4, 2), (5, 2)])
def test_packed_chow_forms_write_the_reference_bytes(n, d):
    rng = random.Random(f"packed-{n}-{d}")
    m = n + 1
    for f in (rand_curve_birational(rng, n, d, -3, 3), fraction_curve(rng, n, d), fraction_curve(rng, n, d)):
        pform = det_expand(bezout_pform(f.components))
        exact = cayley_biform(f)
        # The exact resultant straight from the kernel, Fraction coefficients and all.
        raw = wedge_terms(pform * Fraction(1, pform_scale(f.components)), m)
        assert format_terms(raw) == ref_format_terms(exact.poly)
        assert _compute_json(n, d, raw, None) == reference_compute_json(exact, None)
        terms = normalized_expansion(pform, m)
        if exact.is_zero:
            assert not terms and format_terms(terms) == "0"
            continue
        ca = exact.normalized()
        rep = plucker_form(f)
        assert format_terms(terms) == ref_format_terms(ca.poly)
        assert _compute_json(n, d, terms, None) == reference_compute_json(ca, None)
        assert _compute_json(n, d, wedge_terms(rep.poly, m), rep) == reference_compute_json(ca, rep)
    assert any(type(c) is Fraction for _, c in raw.items)


@pytest.mark.parametrize("n, d_f, d_g, f, g", seeded_joins("packed-eps"))
def test_packed_orders_write_the_reference_eps_table_and_limit(n, d_f, d_g, f, g, tmp_path):
    fam = join_family(f, g)
    biform = family_biform(fam)
    path = tmp_path / "eps.tsv"
    _write_eps_table(str(path), fam, family_orders(fam)[1])
    assert path.read_text(encoding="utf-8") == ref_eps_table(biform)
    _, w = limit_pform(fam)
    assert format_terms(w.normalized()) == ref_format_terms(limit_direction(biform).poly)


ODD_RINGS = [("x0", "x1", "x2"), plucker_names(1), plucker_names(2), plucker_names(4), uv_names(3, eps=True)]


@pytest.mark.parametrize("names", RINGS + ODD_RINGS, ids=lambda names: "-".join(names) or "none")
def test_packed_terms_of_ignores_the_stored_order(names):
    rng = random.Random(f"packed-of-{'-'.join(names)}")
    for terms in (1, 5, 30):
        p = rand_poly(rng, names, terms)
        packed = PackedTerms.of(p)
        assert list(packed.mpoly().terms.items()) == ref_sorted_terms(p)
        assert packed.mpoly() == p and format_terms(packed) == ref_format_terms(p)
        assert all(PackedTerms.of(q) == packed for q in reorderings(p))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_halves_write_each_distinct_half_once(n):
    # Mirrored biforms: every u-part equals its v-part, and each half still
    # gets its own memo and its own variables.
    rng = random.Random(f"halves-{n}")
    m = n + 1
    names = uv_names(n, eps=True)
    for terms in (1, 4, 15):
        p = rand_mirrored(rng, n, terms)
        p = MPoly(names, {e + (rng.randint(0, 2),): c for e, c in p.terms.items()})
        calls = []

        def low(half, part):
            calls.append(("low", half, part))
            return f"L{part}"

        def high(half, part):
            calls.append(("high", half, part))
            return f"H{part}"

        got = list(PackedTerms.of(p).halves(low, high))
        assert got == [(f"L{e[:m]}", f"H{e[m:]}", c) for e, c in ref_sorted_terms(p)]
        lows = {("low", names[:m], e[:m]) for e in p.terms}
        highs = {("high", names[m:], e[m:]) for e in p.terms}
        assert sorted(calls) == sorted(lows | highs)


def test_two_byte_fields_write_the_reference_bytes():
    # p01^300 on P^1: exponents of 300 take two-byte fields, and the Plucker
    # ring has one variable, so the first half of its exponents is empty.
    terms = wedge_terms(MPoly(("p0,1",), {(300,): 1}), 2)
    assert terms.w == 2 and len(terms.items) == 301
    ca = CayleyBiform(1, 300, terms.mpoly())
    rep = PluckerRep(1, 300, MPoly(plucker_names(1), {(300,): -7}))
    assert terms.normalized() is terms and ca.normalized() == ca
    assert format_terms(terms) == ref_format_terms(ca.poly)
    assert _compute_json(1, 300, terms, rep) == reference_compute_json(ca, rep)
    assert format_terms(rep.poly) == "-7 * p01^300"


def test_the_zero_polynomial_writes_0():
    for names in ((), ("x0", "x1", "x2"), plucker_names(2), uv_names(2)):
        zero = PackedTerms.of(MPoly.zero(names))
        assert not zero and zero.items == [] and zero.normalized() == zero
        assert zero.mpoly() == MPoly.zero(names) and format_terms(zero) == "0"
    # The Plucker relation p01 p23 - p02 p13 + p03 p12 expands to zero.
    relation = MPoly(plucker_names(3), {(1, 0, 0, 0, 0, 1): 1, (0, 1, 0, 0, 1, 0): -1, (0, 0, 1, 1, 0, 0): 1})
    terms = wedge_terms(relation, 4)
    assert not terms and format_terms(terms) == "0"
    assert _compute_json(3, 2, terms, None) == reference_compute_json(CayleyBiform(3, 2, MPoly.zero(uv_names(3))), None)
