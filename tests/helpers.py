"""Shared generators and independent oracles for the test suite.

``naive_det`` is a deliberately separate determinant (first-row cofactor
expansion) used to cross-check the production backends; keep it free of any
imports from chowforms.resultant internals.  ``ref_format_terms`` and
``ref_eps_table`` write terms one factor at a time, as a plain reference for
the memoized term writer.  ``ref_embed``, ``ref_specialize_eps`` and
``ref_depends_only_on_wedge`` substitute through ``MPoly.evaluate`` with an
MPoly ``one``: ring changes the package itself never needs.
``ref_family_orders`` expands the eps-orders of a family one at a time,
and ``coded_det_at`` decodes the Kronecker-coded family determinant.
``ref_family_det`` and ``ref_limit_pform`` take the family determinant and
its limit on the p-form as built, with no eps-powers scaled out of its rows
and columns; ``ref_valuation_bound`` tries every permutation.
``ref_check_curve`` is the retired Monte-Carlo map-degree report: seeded
tests call it wherever they passed their generator to ``check_curve`` or
``map_degree``, so their later draws stay those of the original inputs.
"""

import json
import math
import random
from fractions import Fraction
from itertools import permutations

from chowforms import (
    BinaryForm,
    CayleyBiform,
    CurveCheck,
    CurveMap,
    MPoly,
    Plane,
    base_locus_free,
    check_curve,
    det_expand,
    normalize_attachment,
    uv_names,
)
from chowforms.chow import bezout_pform, wedge_expand
from chowforms.polynomial import form_gcd_all


def naive_det(M):
    """Cofactor expansion along the first row; exact, O(n!)."""
    n = len(M)
    if n == 1:
        return M[0][0]
    acc = None
    for j in range(n):
        entry = M[0][j]
        if isinstance(entry, MPoly):
            if entry.is_zero:
                continue
        elif not entry:
            continue
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = entry * naive_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        for row in M:
            for entry in row:
                if isinstance(entry, MPoly):
                    return MPoly.zero(entry.names)
        return Fraction(0)
    return acc


def truncated(p, K):
    """p modulo x^K, x the last variable of its ring: every term of
    x-degree K or more dropped."""
    return MPoly(p.names, {e: c for e, c in p.terms.items() if e[-1] < K})


def coded_det_at(matrix, K):
    """The Kronecker-coded determinant of ``matrix``, a square matrix over
    the pair variables then eps, at truncation order K, decoded back into
    the matrix's ring: slot k of the coefficient of mu becomes the term
    mu eps^k."""
    from chowforms.degeneration import _coded_det

    det, digits = _coded_det(matrix, K)
    terms = {mu + (k,): x for mu, v in det.terms.items() for k, x in enumerate(digits(v)) if x}
    return MPoly(matrix[0][0].names, terms)


def is_normal(x) -> bool:
    """Coefficient normal form: an int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def ref_normalized(h: list) -> list:
    """Primitive integer multiple of a nonzero list of rationals, first
    nonzero entry positive."""
    num = 0
    den = 1
    for c in h:
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    scale = Fraction(den, num)
    if next(c for c in h if c) < 0:
        scale = -scale
    return [c * scale for c in h]


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_gcd(a: list, b: list) -> list:
    """Euclid over Q on the forms dehomogenized at z0 = 1; the z0 power of
    the gcd is the lesser drop in degree (the multiplicity at (0 : 1))."""
    pa, pb = _trim(list(a)), _trim(list(b))
    z0_power = min(len(a) - len(pa), len(b) - len(pb))
    while pb:
        r = list(pa)
        while len(r) >= len(pb):
            q, shift = r[-1] / pb[-1], len(r) - len(pb)
            for i, c in enumerate(pb):
                r[i + shift] -= q * c
            _trim(r)
        pa, pb = pb, r
    return ref_normalized(pa + [Fraction(0)] * z0_power)


def wedge(names, i, j):
    """The wedge coordinate u_i v_j - u_j v_i in the ring ``names``."""
    ui, vj = MPoly.var(names, f"u{i}"), MPoly.var(names, f"v{j}")
    uj, vi = MPoly.var(names, f"u{j}"), MPoly.var(names, f"v{i}")
    return ui * vj - uj * vi


def matmul(A, B):
    size = len(A)
    return [
        [sum(Fraction(A[i][k]) * Fraction(B[k][j]) for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def rand_form(rng, d, lo=-5, hi=5, nonzero=True):
    while True:
        h = BinaryForm([rng.randint(lo, hi) for _ in range(d + 1)])
        if not nonzero or not h.is_zero:
            return h


def rand_curve(rng, n, d, lo=-5, hi=5):
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(d + 1)] for _ in range(n + 1)]
        if any(any(r) for r in rows):
            return CurveMap.from_coeffs(rows)


def rand_curve_birational(rng, n, d, lo=-5, hi=5):
    """Random curve that is base-point-free and one-to-one onto its image.
    A degree-d map P^1 -> P^1 has map degree d, so n = 1 allows d = 1 only."""
    if n == 1 and d >= 2:
        raise ValueError(f"no degree-{d} map onto P^1 is birational")
    while True:
        f = rand_curve(rng, n, d, lo, hi)
        if checked_with(f, rng).birational:
            return f


def checked_with(f, rng):
    """``check_curve(f)``, asserted equal to :func:`ref_check_curve` on rng,
    which advances rng as the retired sampler did."""
    report = check_curve(f)
    assert ref_check_curve(f, rng) == report
    return report


# The (n, d_f, d_g) join shapes of the benchmark corpus: lines_P2,
# line_conic_P3, line_conic_P2 and conic_conic_P2.
JOIN_SHAPES = [(2, 1, 1), (3, 1, 2), (2, 1, 2), (2, 2, 2)]


def seeded_joins(tag):
    """Two pairs per corpus join shape, as (n, d_f, d_g, f, g): random
    birational curves with no zero component, f moved to (1, ..., 1) at
    (1, 0) and g at (0, 1), so join_family(f, g) has Fraction coefficients
    in general."""
    rng = random.Random(f"joins-{tag}")
    joins = []
    while len(joins) < 2 * len(JOIN_SHAPES):
        n, d_f, d_g = JOIN_SHAPES[len(joins) // 2]
        f = rand_curve_birational(rng, n, d_f, -3, 3)
        g = rand_curve_birational(rng, n, d_g, -3, 3)
        if all(not h.is_zero for h in f.components + g.components):
            joins.append((n, d_f, d_g, normalize_attachment(f, at=(1, 0)), normalize_attachment(g, at=(0, 1))))
    return joins


def rand_plane(rng, n, lo=-5, hi=5):
    while True:
        u = [rng.randint(lo, hi) for _ in range(n + 1)]
        v = [rng.randint(lo, hi) for _ in range(n + 1)]
        try:
            return Plane(tuple(u), tuple(v))
        except ValueError:
            continue


def plane_through(rng, point, lo=-3, hi=3):
    """Random plane whose kernel contains the given projective point."""
    n = len(point) - 1
    k = next(i for i, c in enumerate(point) if c)
    basis = []
    for i in range(n + 1):
        if i == k:
            continue
        vec = [Fraction(0)] * (n + 1)
        vec[i] = point[k]
        vec[k] = -point[i]
        basis.append(vec)
    while True:
        covs = []
        for _ in range(2):
            cov = [Fraction(0)] * (n + 1)
            for b in basis:
                c = rng.randint(lo, hi)
                if c:
                    cov = [x + c * y for x, y in zip(cov, b)]
            covs.append(tuple(cov))
        try:
            return Plane(covs[0], covs[1])
        except ValueError:
            continue


def rand_invertible(rng, size, lo=-4, hi=4):
    while True:
        M = [[rng.randint(lo, hi) for _ in range(size)] for _ in range(size)]
        if naive_det([[Fraction(x) for x in row] for row in M]):
            return M


def compose_curve(g, phi0, phi1):
    """Curve map z -> g(phi0(z), phi1(z))."""
    return CurveMap(tuple(c.compose(phi0, phi1) for c in g.components))


def ref_at_eps(components, value):
    """The member at eps = value of the family with the given components
    over Q[eps]: every MPoly coefficient evaluated, giving a curve map."""
    env = {"eps": Fraction(value)}
    return CurveMap.from_coeffs(
        [[c.evaluate(env) if isinstance(c, MPoly) else c for c in comp.coeffs] for comp in components]
    )


def ref_eps_pform(components):
    """The Bezout p-form of the components over Q[eps]; an eps-free one is
    lifted to a constant family, every term at eps^0."""
    matrix = bezout_pform(components)
    if matrix[0][0].names[-1] != "eps":
        names = matrix[0][0].names + ("eps",)
        matrix = [[MPoly(names, {e + (0,): c for e, c in x.terms.items()}) for x in row] for row in matrix]
    return matrix


def ref_family_det(components):
    """The family determinant by one ``det_expand`` of the unscaled p-form
    over Q[eps]: the route that the valuation-scaled Kronecker determinant
    of ``family_orders`` replaced."""
    return det_expand(ref_eps_pform(components))


def ref_valuation_bound(matrix):
    """Least sum of eps-valuations over the permutations of a square matrix
    with eps last in its ring, by trying every permutation; None when each
    one meets a zero entry."""
    vals = [[min(e[-1] for e in x.terms) if x else None for x in row] for row in matrix]
    sums = [
        sum(vals[i][j] for i, j in enumerate(perm))
        for perm in permutations(range(len(matrix)))
        if all(vals[i][j] is not None for i, j in enumerate(perm))
    ]
    return min(sums, default=None)


def ref_limit(matrix, m):
    """(L, W) of ``limit_pform`` for a matrix over the pair variables of m
    points and eps, by ``truncated(det_expand(matrix), K)`` on the matrix
    as given: K starts one above the min-plus value of its eps-valuations
    and doubles up to one past the eps-degree of its determinant.  This is
    the unscaled route that ``limit_pform`` replaced, with each truncation
    taken after the full determinant."""
    bound = ref_valuation_bound(matrix)
    if bound is None:
        raise ValueError("zero family biform has no limit")
    top = 1 + sum(max(x.degree_in("eps") for x in row) for row in matrix)
    full = det_expand(matrix)
    K = bound + 1
    while True:
        parts = truncated(full, K).decompose("eps")
        for k in sorted(parts):
            w = wedge_expand(parts[k], m)
            if w:
                return parts[k], w
        if K == top:
            raise ValueError("zero family biform has no limit")
        K = min(2 * K, top)


def ref_limit_pform(components):
    """``ref_limit`` on the unscaled p-form of the components over Q[eps]."""
    return ref_limit(ref_eps_pform(components), len(components))


def ref_family_orders(components):
    """The nonzero eps-orders of the family determinant, one ``wedge_expand``
    per order: the route that the one coded expansion of ``family_orders``
    replaced."""
    parts = ref_family_det(components).decompose("eps")
    orders = {k: wedge_expand(parts[k], len(components)) for k in sorted(parts)}
    return {k: w for k, w in orders.items() if w}


def ref_embed(p, names):
    """p read in the ring ``names``, which contains every variable of p."""
    names = tuple(names)
    return p.evaluate({x: MPoly.var(names, x) for x in p.names}, one=MPoly.const(names, 1))


def ref_specialize_eps(ca, value):
    """The eps-biform ``ca`` at eps = value: its eps-orders summed with
    weights value^k."""
    acc = MPoly.zero(uv_names(ca.n))
    for k, c in ca.poly.decompose("eps").items():
        acc = acc + c * Fraction(value) ** k
    return CayleyBiform(ca.n, ca.d, acc)


def ref_depends_only_on_wedge(ca):
    """The wedge check by substitution: p(u, v + lam*u) = p in Q[u, v, lam],
    and p(v, u) = (-1)^(d*d) p."""
    names = ca.poly.names
    ext = names + ("lam",)
    lam = MPoly.var(ext, "lam")
    shift = {x: MPoly.var(ext, x) for x in names}
    for i in range(ca.n + 1):
        shift[f"v{i}"] = shift[f"v{i}"] + lam * MPoly.var(ext, f"u{i}")
    if ca.poly.evaluate(shift, one=MPoly.const(ext, 1)) != ref_embed(ca.poly, ext):
        return False
    swap = {f"{a}{i}": MPoly.var(names, f"{b}{i}") for a, b in ("uv", "vu") for i in range(ca.n + 1)}
    sign = -1 if (ca.d * ca.d) % 2 else 1
    return ca.poly.evaluate(swap, one=MPoly.const(names, 1)) == sign * ca.poly


def rand_base_free_pair(rng, e, lo=-4, hi=4):
    """Two degree-e forms with no common root (a base-point-free pair)."""
    from chowforms import form_gcd

    while True:
        p = rand_form(rng, e, lo, hi)
        q = rand_form(rng, e, lo, hi)
        if form_gcd(p, q).degree == 0:
            return p, q


def all_minors(f, P):
    """Every nonzero 2x2 minor P_j f_i - P_i f_j, i < j, at the image point P."""
    minors = []
    for i in range(f.n + 1):
        for j in range(i + 1, f.n + 1):
            m = P[j] * f.components[i] - P[i] * f.components[j]
            if not m.is_zero:
                minors.append(m)
    return minors


def ref_root_count(h: BinaryForm) -> tuple[int, bool]:
    """Distinct roots over Q-bar: the degree of the squarefree part of the
    core by Euclid over Q, plus the roots at (1:0) and (0:1)."""
    nz = [j for j, c in enumerate(h.coeffs) if c]
    p1, p0 = nz[0], h.degree - nz[-1]
    core = [Fraction(c) for c in h.coeffs[nz[0] : nz[-1] + 1]]
    e = 0
    if len(core) > 1:
        e = len(ref_gcd(core, [k * c for k, c in enumerate(core)][1:])) - 1
    count = len(core) - 1 - e + (p0 > 0) + (p1 > 0)
    return count, p0 <= 1 and p1 <= 1 and e == 0


def allpairs_sample_map_degree(f, rng, trials=3):
    """The retired Monte-Carlo map degree: the least distinct-root count of
    the fiber polynomials over ``trials`` accepted samples, each the gcd of
    all C(n+1, 2) minors.  Samples with no fiber polynomial or a repeated
    root are rejected; past 100 draws per trial it raises RuntimeError."""
    counts = []
    attempts = 0
    while len(counts) < trials:
        attempts += 1
        if attempts > 100 * trials:
            raise RuntimeError("could not find enough unramified sample points")
        z = (rng.randint(-20, 20), rng.randint(1, 20))
        minors = all_minors(f, f.point(z))
        if not minors:
            continue
        G = form_gcd_all(minors)
        if G.degree == 0:
            continue
        count, squarefree = ref_root_count(G)
        if not squarefree:
            continue
        counts.append(count)
    return min(counts)


def ref_check_curve(f, rng):
    """The retired ``check_curve`` on :func:`allpairs_sample_map_degree`:
    up to five sampled degrees, the first that divides d is reported."""
    if any(type(x) is not int for c in f.components for x in c.coeffs):
        f = CurveMap(tuple(c if c.is_zero else c.normalized() for c in f.components))
    if not base_locus_free(f):
        return CurveCheck(False, None, None, False)
    for _ in range(5):
        e = allpairs_sample_map_degree(f, rng)
        if f.d % e == 0:
            return CurveCheck(True, e, f.d // e, e == 1)
    raise RuntimeError("map degree sampling failed to divide the curve degree")


def ref_sorted_terms(p):
    """The terms of p in descending graded-lex order, by a key function."""
    return sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def ref_format_terms(p) -> str:
    """``format_terms`` written term by term, factor by factor."""
    if not p.terms:
        return "0"
    lines = []
    for exps, c in ref_sorted_terms(p):
        coeff = f"+{c}" if c > 0 else str(c)
        factors = " ".join(f"{n}^{e}" for n, e in zip(p.names, exps) if e)
        lines.append(f"{coeff} * {factors}" if factors else coeff)
    return "\n".join(lines)


def ref_eps_table(fam) -> str:
    """The ``--emit-eps-table`` file of an eps biform: a header, then one
    ``order, monomial, coefficient`` line per term, orders ascending."""
    parts = fam.poly.decompose("eps")
    lines = ["# eps_order\tmonomial\tcoeff"]
    for k in sorted(parts):
        for exps, c in ref_sorted_terms(parts[k]):
            mono = " ".join(f"{name}^{e}" for name, e in zip(parts[k].names, exps) if e)
            lines.append(f"{k}\t{mono or '1'}\t{c}")
    return "\n".join(lines) + "\n"


def _terms_doc(poly):
    return [{"coeff": str(c), "exps": list(exps)} for exps, c in ref_sorted_terms(poly)]


def reference_compute_json(ca, rep):
    """The ``compute --json`` document as ``json.dumps(doc, indent=2)``."""
    doc = {"n": ca.n, "d": ca.d, "variables": list(ca.poly.names), "terms": _terms_doc(ca.poly)}
    if rep is not None:
        doc["plucker"] = {
            "variables": list(rep.poly.names),
            "canonical": rep.canonical,
            "terms": _terms_doc(rep.poly),
        }
    return json.dumps(doc, indent=2)
