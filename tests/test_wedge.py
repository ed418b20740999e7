"""The packed wedge kernel: p_kl -> u_k v_l - u_l v_k by ``wedge_expand``,
and the triangular Plucker rewrite, each against the route it replaced.

The references are kept here: substitution through ``MPoly.evaluate`` with
one MPoly per wedge coordinate, and the dense power-table system over every
degree-d p-monomial solved by Gauss-Jordan elimination over Q.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowforms import (
    CayleyBiform,
    MPoly,
    cayley_biform,
    family_biform,
    family_limit,
    family_orders,
    join_family,
    normalize_attachment,
    plucker_form,
    plucker_rewrite,
    uv_names,
)
from chowforms.chow import EPS, bezout_pform, plucker_names, wedge_expand
from chowforms.resultant import det_expand
from helpers import rand_curve, rand_curve_birational, ref_sorted_terms, seeded_joins, wedge


def evaluate_route(pform, m, names):
    """The substitution wedge_expand replaced: MPoly.evaluate of the p-form
    at the wedge coordinates, coefficient variables mapped to themselves."""
    env = {
        p: wedge(names, k, l)
        for (k, l), p in zip(combinations(range(m), 2), pform.names)
    }
    env.update((x, MPoly.var(names, x)) for x in names[2 * m :])
    return pform.evaluate(env, one=MPoly.const(names, 1))


def pair_ring(m, extra=()):
    return tuple(f"p{k},{l}" for k, l in combinations(range(m), 2)) + extra


def rand_pform(rng, m, d, extra=(), rational=False, terms=12, extra_deg=3):
    ring = pair_ring(m, extra)
    npairs = len(ring) - len(extra)
    out = {}
    for _ in range(terms):
        exps = [0] * npairs
        for _ in range(d):
            exps[rng.randrange(npairs)] += 1
        exps += [rng.randint(0, extra_deg) for _ in extra]
        c = rng.randint(-9, 9)
        if rational:
            c = Fraction(c, rng.randint(1, 6))
        out[tuple(exps)] = c
    return MPoly(ring, out)


# -- wedge_expand ---------------------------------------------------------------


@pytest.mark.parametrize("rational", [False, True])
def test_wedge_expand_matches_evaluate_on_random_pforms(rational):
    rng = random.Random(801 + rational)
    for _ in range(40):
        m, d = rng.randint(2, 6), rng.randint(0, 4)
        pform = rand_pform(rng, m, d, rational=rational)
        names = uv_names(m - 1)
        got = wedge_expand(pform, m)
        assert got == evaluate_route(pform, m, names)
        assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


def test_wedge_expand_matches_evaluate_on_mixed_degrees_with_eps():
    rng = random.Random(803)
    for _ in range(20):
        m = rng.randint(2, 5)
        pform = rand_pform(rng, m, 2, extra=(EPS,), rational=True)
        pform = pform + rand_pform(rng, m, 3, extra=(EPS,))
        names = uv_names(m - 1, eps=True)
        assert wedge_expand(pform, m) == evaluate_route(pform, m, names)


def test_wedge_expand_matches_evaluate_on_a_family_pform():
    line = rand_curve_birational(random.Random(804), 3, 1)
    conic = rand_curve_birational(random.Random(805), 3, 2)
    fam = join_family(
        normalize_attachment(line, at=(1, 0)), normalize_attachment(conic, at=(0, 1))
    )
    matrix = bezout_pform(fam)
    pform = det_expand(matrix)
    assert pform.degree_in(EPS) > 0
    names = uv_names(len(fam) - 1, eps=True)
    got = wedge_expand(pform, len(fam))
    assert got and got == evaluate_route(pform, len(fam), names)


def test_wedge_expand_widens_fields_past_one_byte():
    # Exponents of 300 need two bytes per field; one byte would carry.
    ring = pair_ring(3)
    names = uv_names(2)
    p01 = MPoly.var(ring, "p0,1")
    got = wedge_expand(p01**300, 3)
    assert got == evaluate_route(p01**300, 3, names)
    assert len(got.terms) == 301
    assert got.terms[(300, 0, 0, 0, 300, 0)] == 1
    assert got.terms[(150, 150, 0, 150, 150, 0)] == math.comb(300, 150)


def test_wedge_expand_widens_fields_for_eps_degree():
    ring = pair_ring(3, (EPS,))
    names = uv_names(2, eps=True)
    pform = MPoly(ring, {(1, 0, 2, 256): 5, (0, 2, 1, 0): -3, (3, 0, 0, 300): Fraction(1, 7)})
    got = wedge_expand(pform, 3)
    assert got == evaluate_route(pform, 3, names)
    assert max(e[-1] for e in got.terms) == 300


def test_wedge_expand_of_zero_and_constants():
    ring = pair_ring(3)
    names = uv_names(2)
    assert wedge_expand(MPoly.zero(ring), 3) == MPoly.zero(names)
    assert wedge_expand(MPoly.const(ring, 7), 3) == MPoly.const(names, 7)
    with pytest.raises(ValueError, match="fewer variables than the 6 pairs"):
        wedge_expand(MPoly.zero(ring), 4)


def test_wedge_expand_sorts_no_cancelled_sum(monkeypatch):
    # The Plucker relation p01 p23 - p02 p13 + p03 p12 expands to sums that
    # all cancel: the result is the zero MPoly, and no zero key is sorted.
    import chowforms.chow as chow

    seen = []

    def spy(keys, reverse=False):
        seen.append(len(keys))
        return sorted(keys, reverse=reverse)

    monkeypatch.setattr(chow, "sorted", spy, raising=False)
    ring = pair_ring(4)
    p = [MPoly.var(ring, x) for x in ring]
    relation = p[0] * p[5] - p[1] * p[4] + p[2] * p[3]
    assert wedge_expand(relation, 4) == MPoly.zero(uv_names(3))
    assert wedge_expand(relation * relation + p[0], 4) == wedge(uv_names(3), 0, 1)
    assert seen == [0, 2]


# -- terms in output order ----------------------------------------------------------
# wedge_expand unpacks its terms in descending packed order.  Every eps-free
# biform built on it then holds them in the order the writers print.


def in_output_order(p):
    return list(p.terms) == [e for e, _ in ref_sorted_terms(p)]


@pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (2, 5), (3, 3), (3, 4), (4, 3), (5, 4)])
def test_chow_forms_come_in_output_order(n, d):
    f = rand_curve_birational(random.Random(f"order-{n}-{d}"), n, d)
    ca = cayley_biform(f)
    assert ca.poly and in_output_order(ca.poly)
    assert in_output_order(ca.normalized().poly)
    assert in_output_order(plucker_form(f).expand().poly)


@pytest.mark.parametrize("n, d_f, d_g, f, g", seeded_joins("order"))
def test_family_limits_and_orders_come_in_output_order(n, d_f, d_g, f, g):
    fam = join_family(f, g)
    assert in_output_order(family_limit(fam).poly)
    _, orders = family_orders(fam)
    assert orders and all(in_output_order(w) for w in orders.values())
    # With eps the total degrees mix: the terms are in lex order only, and
    # sorting them still gives graded-lex order.
    poly = family_biform(fam).poly
    assert list(poly.terms) == sorted(poly.terms, reverse=True)
    assert poly.sorted_terms() == ref_sorted_terms(poly)


@st.composite
def wide_pforms(draw):
    """A homogeneous p-form on m points whose p-degree is at least 256, so
    some u- and v-exponents need two-byte fields."""
    m = draw(st.integers(2, 4))
    npairs = m * (m - 1) // 2
    degree = draw(st.integers(260, 300))
    small = st.lists(st.integers(0, 1), min_size=npairs - 1, max_size=npairs - 1)
    tails = draw(st.lists(small, min_size=1, max_size=4))
    coeff = st.integers(-9, -1) | st.integers(1, 9) | st.fractions(max_denominator=7).filter(bool)
    terms = {(degree - sum(t), *t): draw(coeff) for t in tails}
    return m, MPoly(pair_ring(m), terms)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(wide_pforms())
def test_wedge_expand_keeps_output_order_in_two_byte_fields(case):
    m, pform = case
    got = wedge_expand(pform, m)
    assert max(max(e) for e in got.terms) >= 256
    assert in_output_order(got)


# -- the Plucker rewrite against the dense solve ----------------------------------


def rational_rref_solve(A, ncols):
    """Gauss-Jordan over Q on [A | b], free variables pinned to zero."""
    A = [[Fraction(x) for x in row] for row in A]
    nrows = len(A)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(nrows):
            if i != r and A[i][c]:
                factor = A[i][c]
                A[i] = [x - factor * y for x, y in zip(A[i], A[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if A[i][ncols] and not any(A[i][c] for c in range(ncols)):
            return None
    x = [Fraction(0)] * ncols
    for row, col in pivots:
        x[col] = A[row][ncols]
    return x


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def dense_plucker_solve(ca):
    """The rewrite plucker_rewrite replaced: one column per degree-d
    p-monomial in descending graded-lex order, one row per (u, v) monomial,
    reduced echelon solution with free coordinates zero; None when the
    system is inconsistent."""
    pnames = plucker_names(ca.n)
    uv = uv_names(ca.n)
    base = [wedge(uv, i, j) for i, j in combinations(range(ca.n + 1), 2)]
    monos = list(compositions(ca.d, len(pnames)))
    cols = []
    for exps in monos:
        poly = MPoly.const(uv, 1)
        for b, e in zip(base, exps):
            if e:
                poly = poly * b**e
        cols.append(poly)
    row_keys = set(ca.poly.terms)
    for c in cols:
        row_keys.update(c.terms)
    A = [
        [c.terms.get(rk, 0) for c in cols] + [ca.poly.terms.get(rk, 0)]
        for rk in sorted(row_keys)
    ]
    x = rational_rref_solve(A, len(cols))
    if x is None:
        return None
    return MPoly(pnames, {m: c for m, c in zip(monos, x) if c})


def wedge_biform(rng, n, d, rational=False):
    """The expansion of a random degree-d p-form: a biform in the image."""
    pform = rand_pform(rng, n + 1, d, rational=rational, terms=8)
    return CayleyBiform(n, d, wedge_expand(pform, n + 1))


# (n, d) with n <= 5 and d <= 4 where the dense reference takes at most
# about two seconds; (5, 3) and (4, 4) take 18 s and 31 s.
DENSE_GRID = [(1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)]


@pytest.mark.parametrize("n, d", DENSE_GRID)
def test_plucker_rewrite_matches_dense_solve(n, d):
    rng = random.Random(810 + 10 * n + d)
    cases = [cayley_biform(rand_curve(rng, n, d)), wedge_biform(rng, n, d, rational=True)]
    for ca in cases:
        if ca.is_zero:
            continue
        rep = plucker_rewrite(ca)
        assert rep.poly == dense_plucker_solve(ca)
        assert rep.canonical == (n <= 2 or d == 1)


def nested_pair(exps, n):
    """A pair p_ad, p_bc with a < b < c < d both in the monomial, if any."""
    present = [ij for ij, e in zip(combinations(range(n + 1), 2), exps) if e]
    for a, d in present:
        for b, c in present:
            if a < b < c < d:
                return (a, d), (b, c)
    return None


@pytest.mark.parametrize("n, d", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3)])
def test_plucker_rewrite_has_no_nested_pair(n, d):
    rng = random.Random(830 + 10 * n + d)
    for ca in (cayley_biform(rand_curve(rng, n, d)), wedge_biform(rng, n, d)):
        rep = plucker_rewrite(ca)
        assert rep.poly
        assert all(nested_pair(exps, n) is None for exps in rep.poly.terms)
        assert rep.expand().poly == ca.poly


def test_plucker_rewrite_straightens_a_nested_pair():
    # p03 p12 = p02 p13 - p01 p23 is the three-term Plucker relation.
    names = plucker_names(3)
    p = {k: MPoly.var(names, k) for k in names}
    ca = CayleyBiform(3, 2, wedge_expand(p["p03"] * p["p12"], 4))
    assert plucker_rewrite(ca).poly == p["p02"] * p["p13"] - p["p01"] * p["p23"]


# -- rejection --------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 4])
def test_plucker_rewrite_rejects_u0_v0(n):
    names = uv_names(n)
    bad = CayleyBiform(n, 1, MPoly.var(names, "u0") * MPoly.var(names, "v0"))
    with pytest.raises(ValueError, match="not a function of u wedge v"):
        plucker_rewrite(bad)
    assert dense_plucker_solve(bad) is None


@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (2, 3)])
def test_plucker_rewrite_rejects_random_non_wedge_biforms(n, d):
    rng = random.Random(840 + 10 * n + d)
    names = uv_names(n)
    monos = [a + b for a in compositions(d, n + 1) for b in compositions(d, n + 1)]
    rejected = 0
    for _ in range(5):
        ca = wedge_biform(rng, n, d)
        # One added (d, d) monomial takes the sum out of the image, unless
        # the dense solve still finds a solution.
        extra = MPoly.monomial(names, rng.choice(monos), rng.randint(1, 5))
        bad = CayleyBiform(n, d, ca.poly + extra)
        solution = dense_plucker_solve(bad)
        if solution is not None:
            assert plucker_rewrite(bad).poly == solution
            continue
        with pytest.raises(ValueError, match="not a function of u wedge v"):
            plucker_rewrite(bad)
        rejected += 1
    assert rejected >= 3


def test_plucker_rewrite_rejects_eps_biform():
    pform = rand_pform(random.Random(850), 3, 2, extra=(EPS,))
    ca = CayleyBiform(2, 2, wedge_expand(pform, 3))
    assert ca.has_eps
    with pytest.raises(ValueError, match="eps-free"):
        plucker_rewrite(ca)
