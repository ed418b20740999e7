"""The eps-valuations scaled out of the family Bezout p-form.

``limit_pform`` and ``family_orders`` divide row i and column j of the
p-form M by eps^(r_i + c_j) before any determinant, so det M = eps^s
det M'.  Both are compared term for term with the unscaled routes of
``helpers`` (``ref_limit_pform``, ``ref_family_det``,
``ref_family_orders``); the scaling helper is checked on synthetic
matrices, and the Kronecker slots of ``family_orders`` at their bound.
"""

import pytest

from chowforms import (
    BinaryForm,
    CurveMap,
    MPoly,
    det_expand,
    family_orders,
    join_family,
    limit_pform,
)
from chowforms.chow import wedge_expand
from helpers import (
    mpolys,
    ref_family_det,
    ref_family_orders,
    ref_limit,
    ref_limit_pform,
    ref_valuation_bound,
    seeded_joins,
)

LINE_G = CurveMap.from_coeffs([[0, 1], [1, 1], [0, 1]])
EPS = MPoly.var(("eps",), "eps")
DOUBLE_LINE = (BinaryForm([1, 0, 0]), BinaryForm([0, EPS, 0]), BinaryForm([0, 0, 1]))
TRIPLE_LINE = (BinaryForm([1, 0, 0, 0]), BinaryForm([0, EPS, 0, 0]), BinaryForm([0, 0, EPS, 0]), BinaryForm([0, 0, 0, 1]))
CONIC = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).components
FAMILIES = [join_family(f, g) for *_, f, g in seeded_joins("valscale")] + [DOUBLE_LINE, TRIPLE_LINE, CONIC]
IDS = [f"join{k}" for k in range(len(FAMILIES) - 3)] + ["double_line", "triple_line", "eps_free_conic"]
# A constant f, where every Leibniz term meets a zero entry, and an f with
# the base point z0 + z1 = 0: both families are zero.
ZERO_FAMILIES = [
    join_family(CurveMap.from_coeffs([[1, 0], [1, 0], [1, 0]]), LINE_G),
    join_family(CurveMap.from_coeffs([[1, 1, 0], [1, 2, 1], [1, 3, 2]]), LINE_G),
]


def valuations(matrix):
    return [[min(e[-1] for e in x.terms) if x else None for x in row] for row in matrix]


# -- both family routes against the unscaled ones ---------------------------------


@pytest.mark.parametrize("fam", FAMILIES, ids=IDS)
def test_limit_pform_and_family_det_equal_the_unscaled_routes(fam):
    # The family determinant reaches family_orders only in Kronecker slots:
    # its L and every order are checked against the unscaled determinant.
    pform, w = limit_pform(fam)
    limit = (pform, w.mpoly())
    assert limit == ref_limit_pform(fam)
    pform, orders = family_orders(fam)
    orders = mpolys(orders)
    assert orders == ref_family_orders(fam)
    low = min(orders)
    assert pform == ref_family_det(fam).decompose("eps")[low]
    assert (pform, orders[low]) == limit
    assert all(type(c) is int for c in pform.terms.values())


@pytest.mark.parametrize("fam", ZERO_FAMILIES, ids=["constant_f", "base_point"])
def test_zero_families_fail_alike_on_both_routes(fam):
    for route in (limit_pform, ref_limit_pform):
        with pytest.raises(ValueError, match="^zero family biform has no limit$"):
            route(fam)
    pform, orders = family_orders(fam)
    assert pform.is_zero and orders == {} and ref_family_det(fam).is_zero


def test_the_first_truncated_determinant_of_a_corpus_join_is_taken_modulo_eps(monkeypatch):
    # On the corpus join shapes the row and column minima are tight: the
    # scaled p-form has min-plus value 0, so the first try is the eps-free
    # determinant of M' at eps = 0, and it already holds the limit.
    import chowforms.degeneration as degeneration

    coded_det = degeneration._coded_det
    truncs = []

    def spy(M, K=None, headroom=0):
        truncs.append(K)
        return coded_det(M, K, headroom)

    monkeypatch.setattr(degeneration, "_coded_det", spy)
    for *_, f, g in seeded_joins("valscale"):
        truncs.clear()
        limit_pform(join_family(f, g))
        assert truncs == [1]


# -- the scaling helper -------------------------------------------------------------

NAMES = ("p", "q", "eps")
P, Q, E = (MPoly.var(NAMES, x) for x in NAMES)
ZERO = MPoly.zero(NAMES)

SYNTHETIC = {
    "zero_entries": [
        [E**2 * P, E * Q + E**3, ZERO],
        [E**3 * Q, E**4 * P, E**2 * (P + Q)],
        [E * P + E**2, ZERO, E**5 * Q],
    ],
    "zero_row": [
        [E * P, E**2 * Q, E**3],
        [ZERO, ZERO, ZERO],
        [E**2 * Q, P, E * (P - Q)],
    ],
    "column_shift": [
        [E * P, E**3 * Q],
        [E**2 * Q, E**6 * P + E**4],
    ],
}


@pytest.mark.parametrize("name", SYNTHETIC)
def test_scaling_takes_out_eps_to_the_s_exactly(name):
    from chowforms.degeneration import _valuation_scaled

    M = SYNTHETIC[name]
    scaled, s = _valuation_scaled(M)
    assert det_expand(M) == E**s * det_expand(scaled)
    vals = valuations(M)
    r = [min((v for v in row if v is not None), default=0) for row in vals]
    c = [min((v - ri for v, ri in zip(col, r) if v is not None), default=0) for col in zip(*vals)]
    assert s == sum(r) + sum(c)
    for i, row in enumerate(scaled):
        for j, x in enumerate(row):
            assert x * E ** (r[i] + c[j]) == M[i][j]
    # Every nonzero row and column of M' has an entry of valuation 0.
    shifted = valuations(scaled)
    for line in shifted + [list(col) for col in zip(*shifted)]:
        assert all(v is None for v in line) or min(v for v in line if v is not None) == 0


def test_scaling_is_tight_where_the_assignment_value_is_the_sum_of_minima():
    from chowforms.degeneration import _valuation_scaled

    for name in ("zero_entries", "column_shift"):
        M = SYNTHETIC[name]
        scaled, s = _valuation_scaled(M)
        assert ref_valuation_bound(scaled) == 0 and ref_valuation_bound(M) == s


def not_tight_matrix():
    """Valuations [[0, 0, 0], [0, 1, 1], [0, 1, 1]] over the pair variables
    of three points: the row and column minima are all 0, so s = 0, but
    rows 1 and 2 cannot both take column 0, and the assignment value is 1."""
    names = ("p0,1", "p0,2", "p1,2", "eps")
    a, b, c, eps = (MPoly.var(names, x) for x in names)
    return [
        [a, b, c],
        [b, eps * a, eps * c],
        [c, eps * b, eps * a],
    ]


def test_a_limit_past_greedy_minima_that_are_not_tight(monkeypatch):
    # The residual min-plus value of M' sets the first K: det M' has no
    # eps^0 term, and its eps^1 coefficient is the limit.
    import chowforms.degeneration as degeneration
    from chowforms.degeneration import _valuation_scaled

    M = not_tight_matrix()
    assert valuations(M) == [[0, 0, 0], [0, 1, 1], [0, 1, 1]]
    scaled, s = _valuation_scaled(M)
    assert (s, ref_valuation_bound(M)) == (0, 1)
    assert min(det_expand(M).decompose("eps")) == 1
    coded_det = degeneration._coded_det
    truncs = []

    def spy(matrix, K=None, headroom=0):
        truncs.append(K)
        return coded_det(matrix, K, headroom)

    monkeypatch.setattr(degeneration, "_eps_pform", lambda components: M)
    monkeypatch.setattr(degeneration, "_coded_det", spy)
    pform, w = limit_pform((None,) * 3)
    w = w.mpoly()
    assert (pform, w) == ref_limit(M, 3)
    assert pform == det_expand(M).decompose("eps")[1] and w
    assert truncs == [2]


# -- the Kronecker slots of family_orders -------------------------------------------


def orders_of(det, m):
    """(L, orders) of ``family_orders`` read off a full determinant over the
    pair variables of m points and eps, one order at a time."""
    parts = det.decompose("eps")
    orders = {k: wedge_expand(parts[k], m) for k in sorted(parts)}
    orders = {k: w for k, w in orders.items() if w}
    return parts[min(orders)], orders


@pytest.mark.parametrize("W", [2, 3, 5])
def test_kronecker_determinant_slots_hold_a_one_sign_determinant(monkeypatch, W):
    # M = eps^r_i x p (1 + eps) [[1, 1], [-1, 1]] scaled by eps and eps^2:
    # both Leibniz terms are +x^2 p^2 (1 + eps)^2, so det M' = 2 x^2 p^2
    # (1 + 2 eps + eps^2) has no cancellation, and its expansion, with
    # p^2 -> u0^2 v1^2 - 2 u0 u1 v0 v1 + u1^2 v0^2, has largest coefficient
    # 8 x^2 at order 1.  That is an eighth of the bound, the product (4 x)^2
    # of the row 1-norms times the 2^2 of the expansion: the bound sets
    # slots of W bytes, and in W - 1 bytes the largest coefficient no
    # longer fits, so the orders read wrong.
    import chowforms.chow as chow
    import chowforms.degeneration as degeneration

    names = ("p0,1", "eps")
    p, eps = (MPoly.var(names, x) for x in names)
    x = 1 << (4 * W - 4)
    a = x * p * (1 + eps)
    M = [[eps * a, eps * a], [-(eps**2) * a, eps**2 * a]]
    det = det_expand(M)
    assert det == 2 * x**2 * p**2 * eps**3 * (1 + eps) ** 2
    expected = orders_of(det, 2)
    width = chow._slot_bytes
    assert width((4 * x) ** 2 << 2) == W
    assert max(abs(c) for w in expected[1].values() for c in w.terms.values()) >= 1 << (8 * (W - 1) - 1)
    monkeypatch.setattr(degeneration, "_eps_pform", lambda components: M)
    pform, orders = family_orders((None,) * 2)
    assert (pform, mpolys(orders)) == expected
    monkeypatch.setattr(chow, "_slot_bytes", lambda bound: width(bound) - 1)
    pform, orders = family_orders((None,) * 2)
    assert (pform, mpolys(orders)) != expected
