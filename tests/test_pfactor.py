"""The degenerate factor check in Plucker coordinates, and every eps-order of
the family determinant from one Kronecker-substituted wedge expansion.

``pform_factor_check`` is compared with ``boundary_factor_check``, which
multiplies (u, v) biforms, and ``family_orders`` with
``helpers.ref_family_orders``, which expands one order at a time.
"""

import json
import random

import pytest

from chowforms import (
    BinaryForm,
    CayleyBiform,
    CurveMap,
    MPoly,
    boundary_factor_check,
    cayley_biform,
    family_limit,
    family_orders,
    join_family,
    limit_pform,
    normalize_attachment,
    pform_factor_check,
)
from chowforms.chow import EPS, plucker_normal_form, wedge_expand
from chowforms.cli import main
from helpers import rand_curve_birational, ref_family_det, ref_family_orders, seeded_joins

LINE_F = CurveMap.from_coeffs([[1, 0], [1, 0], [1, 1]])
LINE_G = CurveMap.from_coeffs([[0, 1], [1, 1], [0, 1]])


def rand_join(tag, n, d_f, d_g):
    """(f, g): random birational curves with no zero component, f moved to
    (1, ..., 1) at (1, 0) and g at (0, 1)."""
    rng = random.Random(f"pfactor-{tag}-{n}-{d_f}-{d_g}")
    while True:
        f = rand_curve_birational(rng, n, d_f, -3, 3)
        g = rand_curve_birational(rng, n, d_g, -3, 3)
        if all(not h.is_zero for h in f.components + g.components):
            return normalize_attachment(f, at=(1, 0)), normalize_attachment(g, at=(0, 1))


JOINS = [(f, g) for _, _, _, f, g in seeded_joins("pfactor")]
JOINS += [rand_join(k, *shape) for shape in [(4, 1, 2), (3, 2, 2)] for k in range(2)]


def uv_verdict(fam, curves):
    """The (u, v) route: the limit against the product of component biforms."""
    return boundary_factor_check(family_limit(fam), [cayley_biform(c) for c in curves])


def plucker_relation(names):
    """p01 p23 - p02 p13 + p03 p12 in a ring whose first six variables are
    the pairs of four points in combinations order: zero on the
    Grassmannian, nonzero in the p-ring."""
    p = [MPoly.var(names, x) for x in names[:6]]
    return p[0] * p[5] - p[1] * p[4] + p[2] * p[3]


# -- the verdict ----------------------------------------------------------------


@pytest.mark.parametrize("k", range(len(JOINS)))
def test_pform_verdict_equals_the_uv_route_on_joins(k):
    f, g = JOINS[k]
    fam = join_family(f, g)
    pform, w = limit_pform(fam)
    factors, product = pform_factor_check(pform, [f, g])
    assert factors and uv_verdict(fam, [f, g])
    assert w == wedge_expand(pform, f.n + 1)
    # By Gauss's lemma the normalized expansion of the product is the
    # product of the normalized component Chow forms.
    d = f.d + g.d
    expected = cayley_biform(f).normalized() * cayley_biform(g).normalized()
    assert CayleyBiform(f.n, d, wedge_expand(product, f.n + 1)).normalized() == expected


@pytest.mark.parametrize("k", range(len(JOINS)))
def test_pform_verdict_equals_the_uv_route_on_mismatched_pairs(k):
    # The limit of join(f, g) against f with another curve of g's degree,
    # and against two copies of f where the degrees allow: FACTORS:no.
    f, g = JOINS[k]
    fam = join_family(f, g)
    pform, _ = limit_pform(fam)
    other = rand_curve_birational(random.Random(f"mismatch-{k}"), f.n, g.d, -3, 3)
    wrong = [[f, other]] + ([[f, f]] if f.d == g.d else [])
    for curves in wrong:
        assert pform_factor_check(pform, curves)[0] is False
        assert uv_verdict(fam, curves) is False


def test_pform_verdict_straightens_when_the_pforms_differ(monkeypatch):
    # Adding a Plucker relation to L changes the p-form but not its
    # expansion: the verdict still holds, now reached on normal forms.
    import chowforms.degeneration as degeneration

    calls = []

    def spy(pform, m):
        calls.append(m)
        return plucker_normal_form(pform, m)

    monkeypatch.setattr(degeneration, "plucker_normal_form", spy)
    for f, g in JOINS:
        if f.n != 3:
            continue
        pform, _ = limit_pform(join_family(f, g))
        names = pform.names
        bent = pform + plucker_relation(names) * MPoly.var(names, names[0]) ** (f.d + g.d - 2)
        assert bent != pform and wedge_expand(bent, 4) == wedge_expand(pform, 4)
        calls.clear()
        assert pform_factor_check(bent, [f, g])[0] is True
        assert calls == [4, 4]


def test_pform_factor_check_of_a_base_pointed_curve_raises():
    based = CurveMap.from_coeffs([[1, 1, 0], [1, 2, 1], [1, 3, 2]])
    pform, _ = limit_pform(join_family(LINE_F, LINE_G))
    with pytest.raises(ValueError, match="base point"):
        pform_factor_check(pform, [based, LINE_G])


# -- the eps-orders ----------------------------------------------------------------


def same_terms_in_order(got, expected):
    assert list(got) == list(expected)
    for k in expected:
        assert list(got[k].terms.items()) == list(expected[k].terms.items())
        assert got[k].names == expected[k].names


@pytest.mark.parametrize("k", range(len(JOINS)))
def test_kronecker_orders_equal_the_per_order_route_on_joins(k):
    fam = join_family(*JOINS[k])
    same_terms_in_order(family_orders(fam)[1], ref_family_orders(fam))


def eps_poly(coeffs):
    return MPoly(("eps",), {(s,): c for s, c in enumerate(coeffs) if c})


def test_kronecker_orders_of_multiple_lines_and_eps_free_tuples():
    eps = eps_poly([0, 1])
    double = (BinaryForm([1, 0, 0]), BinaryForm([0, eps, 0]), BinaryForm([0, 0, 1]))
    triple = (BinaryForm([1, 0, 0, 0]), BinaryForm([0, eps, 0, 0]), BinaryForm([0, 0, eps, 0]), BinaryForm([0, 0, 0, 1]))
    conic = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).components
    based = join_family(CurveMap.from_coeffs([[1, 1, 0], [1, 2, 1], [1, 3, 2]]), LINE_G)
    for fam in (double, triple, conic, based):
        same_terms_in_order(family_orders(fam)[1], ref_family_orders(fam))
    assert list(family_orders(conic)[1]) == [0]
    pform, orders = family_orders(based)
    assert pform.is_zero and orders == {}


def test_family_orders_read_the_cli_limit_off_one_determinant():
    # The eps-table route takes L from the untruncated coded determinant:
    # the same p-coefficient as the truncated route of limit_pform, and the
    # lowest surviving order of the unscaled determinant.
    for f, g in JOINS:
        fam = join_family(f, g)
        pform, orders = family_orders(fam)
        low = min(orders)
        assert (pform, orders[low]) == limit_pform(fam)
        assert pform == ref_family_det(fam).decompose(EPS)[low]


def one_order_matrix(d, T):
    """A d x d diagonal p-form on two points: p01 d - 1 times, then
    T p01 (1 + eps + ... + eps^4).  Its determinant is T p01^d times that
    eps polynomial, every coefficient positive, and the product of its row
    1-norms is 5 T."""
    names = ("p0,1", EPS)
    p = MPoly.var(names, "p0,1")
    last = MPoly(names, {(1, k): T for k in range(5)})
    zero = MPoly.zero(names)
    return [[(last if i == d - 1 else p) if i == j else zero for j in range(d)] for i in range(d)]


@pytest.mark.parametrize("d", [1, 2, 8])
def test_slot_width_holds_one_sign_coefficients_at_the_bound(monkeypatch, d):
    # Every order of the family determinant is T p01^d, whose expansion has
    # middle coefficient C(d, d/2) T.  T is as large as the slot bound
    # 5 T 2^d allows in W bytes: one byte narrower and the largest (u, v)
    # coefficient no longer fits its slot, so the orders read wrong.  At
    # d = 8 the determinant's coefficients fit in W - 1 bytes, and only the
    # 2^d of the expansion needs the headroom: without it the slots are one
    # byte narrower and the orders read wrong too.
    import chowforms.chow as chow
    import chowforms.degeneration as degeneration

    width = chow._slot_bytes
    coded_det = degeneration._coded_det
    for W in (2, 3, 5):
        T = ((1 << (8 * W - 1)) - 1) // (5 << d)
        assert width(5 * T << d) == W
        M = one_order_matrix(d, T)
        monkeypatch.setattr(degeneration, "_eps_pform", lambda components: M)
        w = wedge_expand(MPoly(("p0,1",), {(d,): T}), 2)
        expected = {k: w for k in range(5)}
        pform, orders = family_orders((None,) * 2)
        assert pform == MPoly(("p0,1",), {(d,): T})
        same_terms_in_order(orders, expected)
        assert max(w.terms.values()) >= 1 << (8 * (W - 1) - 1)
        monkeypatch.setattr(chow, "_slot_bytes", lambda bound: width(bound) - 1)
        assert family_orders((None,) * 2)[1] != expected
        monkeypatch.setattr(chow, "_slot_bytes", width)
        if d == 8:
            assert width(5 * T) == W - 1
            monkeypatch.setattr(degeneration, "_coded_det", lambda M, K=None, headroom=0: coded_det(M, K))
            assert family_orders((None,) * 2)[1] != expected
            monkeypatch.setattr(degeneration, "_coded_det", coded_det)


# -- the CLI builds no (u, v) product --------------------------------------------


@pytest.mark.parametrize("table", [False, True])
def test_degenerate_that_factors_builds_no_uv_biform(tmp_path, capsys, monkeypatch, table):
    import chowforms.chow as chow

    def forbidden(*args, **kwargs):
        raise AssertionError("a component biform was built")

    uv = []
    mul = MPoly.__mul__

    def spy_mul(self, other):
        uv.append(self.names[0] == "u0" or getattr(other, "names", ("",))[0] == "u0")
        return mul(self, other)

    monkeypatch.setattr(chow, "cayley_biform", forbidden)
    monkeypatch.setattr(CayleyBiform, "__mul__", forbidden)
    monkeypatch.setattr(MPoly, "__mul__", spy_mul)
    f, g = rand_join("cli", 3, 1, 2)
    paths = []
    for name, curve in (("f", f), ("g", g)):
        rows = [[str(c) for c in h.coeffs] for h in curve.components]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": curve.n, "d": curve.d, "coeffs": rows}))
        paths.append(str(path))
    argv = ["degenerate", *paths] + (["--emit-eps-table", str(tmp_path / "eps.tsv")] if table else [])
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("FACTORS:yes\n")
    assert uv and not any(uv)
