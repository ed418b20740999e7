import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from chowforms import (
    BinaryForm,
    CayleyBiform,
    CurveMap,
    MPoly,
    boundary_factor_check,
    cayley_biform,
    check_curve,
    det_expand,
    family_biform,
    family_limit,
    family_orders,
    join_family,
    limit_direction,
    normalize_attachment,
    proportional,
    uv_names,
)
from chowforms.chow import bezout_pform, contraction_resultant, pform_scale
from helpers import (
    coded_det_at,
    is_normal,
    plane_through,
    rand_curve_birational,
    ref_at_eps,
    ref_specialize_eps,
    seeded_joins,
    truncated,
)

# two lines in P^2 through (1, 1, 1): f = (z0, z0, z0+z1), g = (z1, z0+z1, z1)
LINE_F = CurveMap.from_coeffs([[1, 0], [1, 0], [1, 1]])
LINE_G = CurveMap.from_coeffs([[0, 1], [1, 1], [0, 1]])
EPS = MPoly.var(("eps",), "eps")


def test_join_family_components():
    fam = join_family(LINE_F, LINE_G)
    eps_ring = ("eps",)
    eps = MPoly.var(eps_ring, "eps")
    one = MPoly.const(eps_ring, 1)
    # F = (z0*z1, z0*(eps*z0 + z1), (z0+z1)*z1)
    assert fam[0].coeffs == (0, one, 0)
    assert fam[1].coeffs == (eps, one, 0)
    assert fam[2].coeffs == (0, one, one)
    assert all(h.degree == 2 for h in fam)


def ref_join_family(f, g):
    """The join by form products: F_i = f_i * g_i(eps*z0, z1)."""
    eps = MPoly.var(("eps",), "eps")
    return tuple(
        fi * BinaryForm([c * eps ** (gi.degree - k) for k, c in enumerate(gi.coeffs)])
        for fi, gi in zip(f.components, g.components)
    )


def test_join_family_equals_the_form_product():
    # Every coefficient is a nonzero MPoly or the int 0, also where a zero
    # g_i coefficient leaves the only product out: the reference has a zero
    # MPoly there, F_0[0] = 1 * (0 * eps^1) for the sparse pair.
    sparse_f = CurveMap.from_coeffs([[1, 0, 0], [1, 0, 1], [1, 2, 0]])  # (1,1,1) at (1,0)
    sparse_g = CurveMap.from_coeffs([[0, 1], [1, 1], [2, 1]])  # (1,1,1) at (0,1)
    joins = [(f, g) for *_, f, g in seeded_joins("product")] + [(LINE_F, LINE_G), (sparse_f, sparse_g)]
    for f, g in joins:
        fam = join_family(f, g)
        assert fam == ref_join_family(f, g)
        assert all(c if isinstance(c, MPoly) else type(c) is int and c == 0 for h in fam for c in h.coeffs)
        assert all(is_normal(x) for h in fam for c in h.coeffs if c for x in c.terms.values())
    assert join_family(sparse_f, sparse_g)[0].coeffs[0] == 0
    assert isinstance(ref_join_family(sparse_f, sparse_g)[0].coeffs[0], MPoly)


def test_join_checks_attachment():
    assert LINE_F.point((1, 0)) == (Fraction(1),) * 3
    assert LINE_G.point((0, 1)) == (Fraction(1),) * 3
    bad = CurveMap.from_coeffs([[1, 0], [0, 1], [1, 0]])  # f(1,0) = (1, 0, 1)
    with pytest.raises(ValueError, match="coordinate 1 is zero"):
        join_family(bad, LINE_G)
    with pytest.raises(ValueError, match="different ambient"):
        join_family(LINE_F, CurveMap.from_coeffs([[0, 1], [1, 1]]))


def test_normalize_attachment_moves_point():
    f = CurveMap.from_coeffs([[2, 1], [1, 3], [1, 1]])
    g = normalize_attachment(f, at=(1, 0))
    assert g.point((1, 0)) == (Fraction(1),) * 3
    h = normalize_attachment(f, at=(0, 1))
    assert h.point((0, 1)) == (Fraction(1),) * 3
    # the curve moves by a diagonal ambient map, staying a birational line
    assert g.d == f.d
    assert check_curve(g).birational


def test_normalize_attachment_rejects_hyperplane_curve():
    f = CurveMap.from_coeffs([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(ValueError, match="coordinate hyperplane"):
        normalize_attachment(f)


def test_family_biform_specialization_commutes():
    fam = join_family(LINE_F, LINE_G)
    fb = family_biform(fam)
    for val in (Fraction(1), Fraction(2), Fraction(-1, 3)):
        assert ref_specialize_eps(fb, val).poly == cayley_biform(ref_at_eps(fam, val)).poly
    assert not ref_specialize_eps(fb, 1).is_zero
    # f(1, 1) = (1, 1, 2) times g(1/3, 1) = (1, 4/3, 1), componentwise
    assert ref_at_eps(fam, Fraction(1, 3)).point((1, 1)) == (1, Fraction(4, 3), 2)


def test_family_biform_generic_point_eps_polynomial():
    fam = join_family(LINE_F, LINE_G)
    fb = family_biform(fam)
    u, v = (1, 2, -3), (2, -1, 5)
    # the value at (u, v) is a polynomial in eps: one value per eps-order
    orders = {k: CayleyBiform(fb.n, fb.d, c).eval(u, v) for k, c in fb.poly.decompose("eps").items()}
    assert len(orders) > 1
    assert sum(orders.values()) == ref_specialize_eps(fb, 1).eval(u, v)


def test_family_biform_eps_degree_bound():
    # both contraction blocks carry eps, so the sharp general bound is 2*d*d2
    fam = join_family(LINE_F, LINE_G)
    fb = family_biform(fam)
    assert fb.poly.degree_in("eps") == 2
    assert fb.poly.degree_in("eps") <= 2 * fb.d * LINE_G.d


def test_limit_direction_synthetic():
    names = uv_names(2, eps=True)
    plain = uv_names(2)

    def w(i, j, ring):
        return MPoly.var(ring, f"u{i}") * MPoly.var(ring, f"v{j}") - MPoly.var(
            ring, f"u{j}"
        ) * MPoly.var(ring, f"v{i}")

    eps = MPoly.var(names, "eps")
    ca = CayleyBiform(2, 1, eps**2 * w(0, 1, names))
    assert limit_direction(ca).poly == w(0, 1, plain)

    mixed = CayleyBiform(2, 1, 3 * w(0, 2, names) + eps * w(0, 1, names))
    assert limit_direction(mixed).poly == w(0, 2, plain)

    with pytest.raises(ValueError):
        limit_direction(CayleyBiform(2, 1, MPoly.zero(names)))


def test_two_lines_limit_factors():
    fam = join_family(LINE_F, LINE_G)
    limit = limit_direction(family_biform(fam))
    ca_f = cayley_biform(LINE_F)
    ca_g = cayley_biform(LINE_G)
    assert boundary_factor_check(limit, [ca_f, ca_g])
    assert proportional(limit, ca_f * ca_g)
    # explicit product: (p02 + p12)(p12 - p01) expanded into the biform ring
    names = uv_names(2)

    def w(i, j):
        return MPoly.var(names, f"u{i}") * MPoly.var(names, f"v{j}") - MPoly.var(
            names, f"u{j}"
        ) * MPoly.var(names, f"v{i}")

    expected = (w(0, 2) + w(1, 2)) * (w(1, 2) - w(0, 1))
    assert proportional(limit, CayleyBiform(2, 2, expected))


def test_two_lines_wrong_factors_fail():
    fam = join_family(LINE_F, LINE_G)
    limit = limit_direction(family_biform(fam))
    ca_f = cayley_biform(LINE_F)
    assert not boundary_factor_check(limit, [ca_f, ca_f])


def test_boundary_factor_check_degree_mismatch():
    fam = join_family(LINE_F, LINE_G)
    limit = limit_direction(family_biform(fam))
    with pytest.raises(ValueError, match="degree mismatch"):
        boundary_factor_check(limit, [cayley_biform(LINE_F)])


def test_limit_vanishes_on_planes_meeting_either_component():
    rng = random.Random(61)
    fam = join_family(LINE_F, LINE_G)
    limit = limit_direction(family_biform(fam))
    for k in range(20):
        curve = LINE_F if k % 2 else LINE_G
        z = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9)))
        point = curve.point(z)
        if not any(point):
            continue
        plane = plane_through(rng, point)
        assert limit.eval(plane.u, plane.v) == 0


def test_random_join_factors():
    rng = random.Random(67)
    for _ in range(3):
        f = normalize_attachment(rand_curve_birational(rng, 2, 1), at=(1, 0))
        g = normalize_attachment(rand_curve_birational(rng, 2, 2), at=(0, 1))
        fam = join_family(f, g)
        limit = limit_direction(family_biform(fam))
        assert boundary_factor_check(limit, [cayley_biform(f), cayley_biform(g)])


def test_normalize_attachment_postcondition_is_checked(monkeypatch):
    # a reparametrization that fails to move the point must not slip through
    import chowforms.degeneration as degeneration

    monkeypatch.setattr(degeneration, "act_gl2", lambda f, A: f)
    f = CurveMap.from_coeffs([[2, 1], [1, 3], [1, 1]])
    with pytest.raises(RuntimeError, match="attachment"):
        normalize_attachment(f, at=(1, 0))


@pytest.mark.parametrize(
    "n, d_f, d_g, trials",
    [(2, 1, 1, 3), (2, 1, 2, 3), (2, 2, 2, 3), (3, 1, 2, 3), (2, 3, 3, 1)],
)
def test_family_limit_equals_full_route(n, d_f, d_g, trials):
    rng = random.Random(71 + 10 * n + d_f + d_g)
    for _ in range(trials):
        f = normalize_attachment(rand_curve_birational(rng, n, d_f), at=(1, 0))
        g = normalize_attachment(rand_curve_birational(rng, n, d_g), at=(0, 1))
        fam = join_family(f, g)
        assert family_limit(fam).poly == limit_direction(family_biform(fam)).poly


def scaled_orders(fam):
    """The eps-orders of the reference family biform times the scale q."""
    fb, q = family_biform(fam), pform_scale(fam)
    if not fb.has_eps:
        return {0: fb.poly * q} if fb.poly else {}
    return {k: c * q for k, c in sorted(fb.poly.decompose("eps").items())}


# The join shapes of the eps-table reference test in test_writer.py.
@pytest.mark.parametrize("n, d_f, d_g", [(2, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2)])
def test_family_orders_are_the_scaled_orders_of_the_family_biform(n, d_f, d_g):
    # The curves of those tests: the same seed, the same draws.
    rng = random.Random(f"eps-table-{n}-{d_f}-{d_g}")
    f = rand_curve_birational(rng, n, d_f, -3, 3)
    g = rand_curve_birational(rng, n, d_g, -3, 3)
    fam = join_family(normalize_attachment(f, at=(1, 0)), normalize_attachment(g, at=(0, 1)))
    _, orders = family_orders(fam)
    assert orders == scaled_orders(fam)
    assert list(orders) == sorted(orders)
    assert all(w.names == uv_names(n) for w in orders.values())
    assert all(type(c) is int for w in orders.values() for c in w.terms.values())
    lowest = CayleyBiform(n, d_f + d_g, orders[min(orders)]).normalized()
    assert lowest.poly == limit_direction(family_biform(fam)).poly


def test_family_orders_of_an_eps_free_tuple_and_a_zero_family():
    # Eps-free components give one order, 0: their Chow form times q.
    conic = CurveMap.from_coeffs([[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 3]])
    assert list(family_orders(conic.components)[1]) == [0]
    assert family_orders(conic.components)[1] == scaled_orders(conic.components)
    # A base point (z0 + z1 = 0) in f makes every member, so the family, zero.
    f = CurveMap.from_coeffs([[1, 1, 0], [1, 2, 1], [1, 3, 2]])
    fam = join_family(f, LINE_G)
    pform, orders = family_orders(fam)
    assert pform.is_zero and orders == {} == scaled_orders(fam)


def test_det_expand_reducer_is_truncation_past_unattained_bound():
    # Every entry has eps-valuation 0, so the min-plus bound is 0, but det M
    # = eps^2 p + eps^3 (p + q) + eps^4 after cancellation: truncating
    # modulo eps^1 and eps^2 leaves nothing, and eps^4 keeps order 2.
    names = ("p", "q", "eps")
    p, q, eps = (MPoly.var(names, x) for x in names)
    M = [
        [p + eps, p, q],
        [p, p + eps**2, q],
        [p, p, q + eps],
    ]
    vals = [[min(e[-1] for e in x.terms) for x in row] for row in M]
    bound = min(sum(vals[i][s[i]] for i in range(3)) for s in permutations(range(3)))
    full = det_expand(M)
    assert bound == 0
    assert full == eps**2 * p + eps**3 * (p + q) + eps**4
    for K in (1, 2, 4, 8):
        assert coded_det_at(M, K) == truncated(full, K)
        assert coded_det_at(M, K).is_zero == (K <= 2)


def test_family_limit_of_an_eps_free_family_is_its_chow_form():
    # Components without eps give a constant family: the p-form ring has no
    # eps, and the limit is the normalized Chow form of the components.
    conic = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    fam = conic.components
    expected = cayley_biform(conic).normalized().poly
    assert family_limit(fam).poly == limit_direction(family_biform(fam)).poly == expected


def test_family_limit_builds_one_pform_for_an_eps_free_family(monkeypatch):
    import chowforms.chow as chow
    import chowforms.degeneration as degeneration

    conic = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    expected = cayley_biform(conic).normalized()
    calls = []

    def counting(forms):
        calls.append(len(forms))
        return bezout_pform(forms)

    monkeypatch.setattr(chow, "bezout_pform", counting)
    monkeypatch.setattr(degeneration, "bezout_pform", counting)
    assert family_limit(conic.components) == expected
    assert calls == [3]
    # a base point (z0 + z1 = 0) makes the determinant vanish
    based = CurveMap.from_coeffs([[1, 1, 0], [1, 2, 1], [1, 3, 2]])
    with pytest.raises(ValueError, match="zero family biform"):
        family_limit(based.components)


def test_family_limit_runs_an_eps_free_family_on_the_truncated_route(monkeypatch):
    # Eps-free components are lifted to a constant family over Q[eps]: every
    # entry has eps-degree 0, so one expansion modulo eps^1 gives the limit.
    import chowforms.degeneration as degeneration

    conic = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    coded_det = degeneration._coded_det
    truncs = []

    def spy(M, K=None, headroom=0):
        truncs.append(K)
        return coded_det(M, K, headroom)

    monkeypatch.setattr(degeneration, "_coded_det", spy)
    assert family_limit(conic.components) == cayley_biform(conic).normalized()
    assert truncs == [1]


def test_family_routes_reject_other_rings_before_any_determinant(monkeypatch):
    import chowforms.chow as chow
    import chowforms.degeneration as degeneration

    # bezout_pform reads the ring off the coefficients before any Bezoutian
    # or determinant is taken, and every route reaches it.
    def forbidden(*args, **kwargs):
        raise AssertionError("a Bezoutian or determinant was built")

    monkeypatch.setattr(chow, "bezoutian", forbidden)
    monkeypatch.setattr(chow, "det_expand", forbidden)
    monkeypatch.setattr(degeneration, "det_expand", forbidden)
    t = MPoly.var(("t",), "t")
    x, e = (MPoly.var(("x", "eps"), v) for v in ("x", "eps"))
    over_t = (BinaryForm([1, 0, 0]), BinaryForm([0, t, 0]), BinaryForm([0, 0, 1]))
    over_x_eps = (BinaryForm([1, 0, 0]), BinaryForm([0, x * e, 0]), BinaryForm([0, 0, 1]))
    for route in (bezout_pform, contraction_resultant, family_biform, family_limit, family_orders):
        for fam, ring in [(over_t, "Q[t]"), (over_x_eps, "Q[x, eps]")]:
            with pytest.raises(ValueError, match=f"^{re.escape(f'coefficients must lie in Q or Q[eps], not {ring}')}$"):
                route(fam)


@pytest.mark.parametrize("forms", [(), (BinaryForm([1, 0]),)], ids=["none", "one"])
def test_fewer_than_two_forms_are_rejected(forms):
    for route in (contraction_resultant, family_biform, family_limit):
        with pytest.raises(ValueError, match="at least two forms"):
            route(forms)


@pytest.mark.parametrize(
    "fam",
    [
        (BinaryForm([1, 0, 0]), BinaryForm([0, EPS, 0]), BinaryForm([0, 0, 1])),
        (
            BinaryForm([1, 0, 0, 0]),
            BinaryForm([0, EPS, 0, 0]),
            BinaryForm([0, 0, EPS, 0]),
            BinaryForm([0, 0, 0, 1]),
        ),
    ],
    ids=["double_line_P2", "triple_line_P3"],
)
def test_multiple_line_limits(fam):
    # A rational normal curve for eps != 0 whose member at eps = 0 covers
    # the line (z0, 0, ..., 0, z1) k = n times: the limit is its Chow form
    # to the k-th power.
    k = len(fam) - 1
    limit = family_limit(fam)
    assert limit.poly == limit_direction(family_biform(fam)).poly
    line = CurveMap.from_coeffs([[1, 0]] + [[0, 0]] * (k - 1) + [[0, 1]])
    assert boundary_factor_check(limit, [cayley_biform(line).normalized()] * k)


def test_family_limit_rejects_zero_family():
    # f has the base point z0 + z1 = 0, so every member of the family does
    # and the family biform vanishes; the entries are not all zero, so the
    # truncation order doubles up to its cap before giving up.
    f = CurveMap.from_coeffs([[1, 1, 0], [1, 2, 1], [1, 3, 2]])
    fam = join_family(f, LINE_G)
    assert family_biform(fam).is_zero
    with pytest.raises(ValueError, match="zero family biform"):
        family_limit(fam)


def _base_pointed_at_zero():
    """A family of conics in P^3 whose member at eps = 0, (z0 + z1) * l_i,
    has a base point, so its lowest eps-order is 1 although every Bezout
    entry has eps-valuation 0."""
    eps = MPoly.var(("eps",), "eps")
    lines = ([1, 0], [0, 1], [1, 2], [2, -1])
    quads = ([0, 1, 3], [1, 0, -1], [2, 1, 0], [0, 0, 1])
    return tuple(
        BinaryForm([1, 1]) * BinaryForm(l) + BinaryForm(q) * eps for l, q in zip(lines, quads)
    )


def test_family_limit_doubles_past_an_unattained_bound():
    fam = _base_pointed_at_zero()
    matrix = bezout_pform(fam)
    vals = [[min(e[-1] for e in x.terms) for x in row] for row in matrix]
    assert min(vals[0][0] + vals[1][1], vals[0][1] + vals[1][0]) == 0
    full = family_biform(fam)
    assert min(full.poly.decompose("eps")) == 1
    assert family_limit(fam).poly == limit_direction(full).poly


def test_family_limit_tests_survival_after_substitution(monkeypatch):
    # Add the Plucker relation p01 p23 - p02 p13 + p03 p12 to the order-0
    # coefficient of the p-form determinant: it is nonzero in the p-ring but
    # vanishes on the Grassmannian, so the limit must not change.
    import chowforms.degeneration as degeneration

    fam = _base_pointed_at_zero()
    expected = limit_direction(family_biform(fam)).poly
    coded_det = degeneration._coded_det

    def det_plus_relation(M, K=None, headroom=0):
        # The coded determinant is over the pair variables, in combinations
        # order; adding an int coefficient adds it to slot 0, order 0.
        det, digits = coded_det(M, K, headroom)
        p = [MPoly.var(det.names, x) for x in det.names]
        relation = p[0] * p[5] - p[1] * p[4] + p[2] * p[3]
        return det + relation, digits

    monkeypatch.setattr(degeneration, "_coded_det", det_plus_relation)
    assert family_limit(fam).poly == expected


def test_routes_give_biforms_of_bidegree_d_d():
    # cayley_biform, family_limit and family_orders wrap their polynomials
    # without the bidegree check of the public constructor.
    def check(n, d, poly):
        m = n + 1
        assert poly.names == uv_names(n) and poly.terms
        assert all(sum(e[:m]) == d == sum(e[m:]) for e in poly.terms)
        assert CayleyBiform(n, d, poly).poly is poly

    rng = random.Random("bidegree-grid")
    for n, d in [(2, 3), (2, 4), (3, 3), (4, 3)]:
        ca = cayley_biform(rand_curve_birational(rng, n, d, -3, 3))
        check(ca.n, ca.d, ca.poly)
    for n, d_f, d_g, f, g in seeded_joins("bidegree"):
        fam = join_family(f, g)
        limit = family_limit(fam)
        assert (limit.n, limit.d) == (n, d_f + d_g)
        check(n, d_f + d_g, limit.poly)
        for w in family_orders(fam)[1].values():
            check(n, d_f + d_g, w)


def test_family_routes_check_their_tuple_once(monkeypatch):
    import importlib

    import chowforms.chow as chow

    resultant_module = importlib.import_module("chowforms.resultant")
    form_ring = chow.form_ring
    calls = []

    def counted(forms):
        calls.append(len(forms))
        return form_ring(forms)

    for module in (chow, resultant_module):
        monkeypatch.setattr(module, "form_ring", counted)
    conic = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    families = [join_family(f, g) for *_, f, g in seeded_joins("one-check")[::2]]
    for fam in families + [conic.components]:
        for route in (family_limit, family_orders):
            calls.clear()
            route(fam)
            assert calls == [len(fam)]


def test_family_routes_do_no_polynomial_arithmetic(monkeypatch):
    # join_family writes its term dicts directly and bezout_pform runs the
    # Bezoutian on ints, so no MPoly is multiplied, added or subtracted, and
    # no BinaryForm multiplied, from the join to the limit and the eps orders.
    def forbidden(*args):
        raise AssertionError("polynomial arithmetic was done")

    joins = [(f, g) for *_, f, g in seeded_joins("no-product")]
    conic = CurveMap.from_coeffs([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    double_line = (BinaryForm([1, 0, 0]), BinaryForm([0, EPS, 0]), BinaryForm([0, 0, 1]))
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(MPoly, name, forbidden)
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(BinaryForm, name, forbidden)
    families = [join_family(f, g) for f, g in joins] + [double_line, conic.components]
    for fam in families:
        family_limit(fam)
        family_orders(fam)


def test_a_sparse_join_takes_its_bezoutians_on_ints(monkeypatch, tmp_path, capsys):
    # The line (z0, z0 + z1, z0 + 2 z1) joined to the birational nonic
    # g = (z0^9 + z1^9, z0^5 z1^4 + z1^9, z1^9): few eps terms spread over
    # eps-degree 0..9.  Its p-form still takes every Bezoutian on ints.
    import json

    import chowforms.chow as chow
    from chowforms.cli import main

    line = CurveMap.from_coeffs([[1, 0], [1, 1], [1, 2]])
    g = CurveMap.from_coeffs([[1] + [0] * 8 + [1], [0] * 4 + [1] + [0] * 4 + [1], [0] * 9 + [1]])
    fam = join_family(line, g)
    kinds, bezoutian = [], chow.bezoutian

    def spy(a, b):
        kinds.append({type(c) for c in a + b})
        return bezoutian(a, b)

    monkeypatch.setattr(chow, "bezoutian", spy)
    assert family_limit(fam) == limit_direction(family_biform(fam))
    assert kinds and all(k == {int} for k in kinds)
    paths = []
    for name, f in [("line.json", line), ("sparse9.json", g)]:
        doc = {"n": f.n, "d": f.d, "coeffs": [[str(c) for c in h.coeffs] for h in f.components]}
        (tmp_path / name).write_text(json.dumps(doc))
        paths.append(str(tmp_path / name))
    assert main(["degenerate", *paths]) == 0
    assert capsys.readouterr().out.endswith("\nFACTORS:yes\n")
