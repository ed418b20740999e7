"""One-parameter families of curves and their boundary Chow forms.

A family is its component tuple: n+1 binary forms of one degree d whose
coefficients lie in Q[eps], a curve map for every eps != 0.  Some limit
components can be multiple, as in the double line (z0^2, eps*z0*z1, z1^2).
Its Chow form is a polynomial in eps; the projective limit of the family
as eps -> 0 is the lowest nonvanishing eps-order coefficient.

:func:`join_family` builds one such tuple.  Two curves attached at the
all-ones point A = (1, ..., 1) -- the first at parameter (1, 0), the
second at (0, 1) -- give the components

    F_i = f_i(z0, z1) * g_i(eps*z0, z1),

of degree d1+d2, and for a valid join the limit factors into the two
component Chow forms.  This realizes, in exact arithmetic, the
degeneration of a rational curve onto a connected two-component curve.
The join writes each coefficient's eps terms directly, and
:func:`~chowforms.chow.bezout_pform` takes the Bezoutians on ints, so no
MPoly is multiplied or added from the join to the determinant.  Every
family route reaches :func:`~chowforms.chow.bezout_pform`, which rejects
coefficient rings other than Q and Q[eps].

Both family determinants start by taking the eps-valuations out of the
Bezout p-form M: row i is divided by eps^r_i, r_i its least valuation,
then column j by eps^c_j, the least valuation left in it, which gives M'
with det M = eps^s det M', s = sum r + sum c.  eps then reaches a
determinant one way only, :func:`_coded_det`: each p-monomial's eps
polynomial in an entry of M' becomes one int (Kronecker substitution),
its orders below K kept, and the eps-free determinant of those ints
carries every order below K in slots of its coefficients.
:func:`limit_pform` starts K from the min-plus bound on the valuation of
det M', 0 on every join probed, so the first try is det M' at eps = 0,
and only the lowest surviving order is substituted into (u, v).  It
returns that order's p-coefficient L with its expansion, packed terms in
output order (:class:`~chowforms.polynomial.PackedTerms`), and
:func:`family_limit` is the normalized expansion.  :func:`family_orders`
keeps every order: the coded determinant goes straight into one
:func:`~chowforms.chow.wedge_terms`, one pass over its packed output
splits it into the orders W_k, integer (u, v) biforms that stay packed
and in output order, the eps table (``--emit-eps-table``) is written from
those, and its L is read off the same coded determinant.  :func:`pform_factor_check` tests that L factors into
the component Chow forms on Plucker normal forms, where
:func:`boundary_factor_check` multiplies (u, v) biforms.
:func:`family_biform` is the reference route: it also expands every
order, but divides each term by the scale
:func:`~chowforms.chow.pform_scale` to give the exact family biform, and
:func:`limit_direction` reads the limit off that.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Sequence

from .chow import (
    EPS,
    CayleyBiform,
    bezout_pform,
    contraction_resultant,
    kronecker,
    plucker_normal_form,
    proportional,
    wedge_terms,
)
from .curves import CurveMap, act_gl2
from .polynomial import BinaryForm, MPoly, PackedTerms, content_primitive, rational
from .resultant import det_expand

__all__ = [
    "join_family",
    "normalize_attachment",
    "family_biform",
    "limit_direction",
    "family_limit",
    "limit_pform",
    "family_orders",
    "boundary_factor_check",
    "pform_factor_check",
]

def _attachment_errors(f: CurveMap, param: tuple[int, int]) -> list[str]:
    point = f.point(param)
    label = f"({param[0]},{param[1]})"
    errs = []
    for i, value in enumerate(point):
        if value == 1:
            continue
        desc = "zero" if value == 0 else str(value)
        errs.append(f"attachment coordinate {i} is {desc} at parameter {label}")
    return errs


def join_family(f: CurveMap, g: CurveMap) -> tuple[BinaryForm, ...]:
    """Components over Q[eps] of the family joining f (at parameter (1,0))
    to g (at parameter (0,1)).

    Both curves must pass through A = (1, ..., 1) at those parameters with
    coordinates exactly 1; use :func:`normalize_attachment` to arrange
    that.  Callers are expected to hand in base-point-free birational
    parametrizations; the attachment condition itself is checked here.

    Coefficient m of F_i = f_i(z0, z1) * g_i(eps*z0, z1) is the sum of
    f_i[a] g_i[b] eps^(d_g - b) over a + b = m.  Each b gives its own
    power of eps, so no two products meet, and each term dict is written
    directly; a coefficient that no nonzero product reaches is the int 0.
    """
    if f.n != g.n:
        raise ValueError("curves live in different ambient spaces")
    errs = [f"f: {e}" for e in _attachment_errors(f, (1, 0))]
    errs += [f"g: {e}" for e in _attachment_errors(g, (0, 1))]
    if errs:
        raise ValueError("; ".join(errs))
    components = []
    for fi, gi in zip(f.components, g.components):
        coeffs: list[dict] = [{} for _ in range(fi.degree + gi.degree + 1)]
        for a, x in enumerate(fi.coeffs):
            for b, y in enumerate(gi.coeffs):
                if x and y:
                    coeffs[a + b][(gi.degree - b,)] = rational(x * y)
        components.append(BinaryForm([MPoly._trusted((EPS,), c) if c else 0 for c in coeffs]))
    return tuple(components)


def normalize_attachment(f: CurveMap, at: tuple[int, int] = (1, 0)) -> CurveMap:
    """Move a point with all coordinates nonzero to A = (1, ..., 1).

    Picks a parameter where no coordinate vanishes, reparametrizes so that
    point sits at the parameter ``at`` and rescales coordinates by a
    diagonal ambient matrix.  If no suitable parameter exists the curve
    lies in a coordinate hyperplane and no diagonal normalization can work.
    """
    for i, comp in enumerate(f.components):
        if comp.is_zero:
            raise ValueError(
                f"component {i} vanishes identically: curve lies in the "
                f"coordinate hyperplane x{i} = 0"
            )
    s, t = _find_nonvanishing_parameter(f)
    values = f.point((s, t))
    if at == (1, 0):
        A = ((s, 0), (t, 1)) if s else ((s, 1), (t, 0))
    elif at == (0, 1):
        A = ((1, s), (0, t)) if t else ((0, s), (1, t))
    else:
        raise ValueError("attachment parameter must be (1, 0) or (0, 1)")
    moved = act_gl2(f, A)
    rescaled = CurveMap(
        tuple(Fraction(1, w) * c for w, c in zip(values, moved.components))
    )
    if rescaled.point(at) != (1,) * (f.n + 1):
        raise RuntimeError("attachment normalization missed (1, ..., 1)")
    return rescaled


def _find_nonvanishing_parameter(f: CurveMap) -> tuple[int, int]:
    bound = 1
    while True:
        for p in range(-bound, bound + 1):
            for q in range(0, bound + 1):
                if (p, q) == (0, 0) or max(abs(p), q) != bound:
                    continue
                if all(f.point((p, q))):
                    return (p, q)
        bound += 1
        if bound > (f.n + 1) * f.d + 2:
            raise RuntimeError("no parameter avoids all coordinate zeros")


def family_biform(components: Sequence[BinaryForm]) -> CayleyBiform:
    """Chow biform of the family with the given components, eps carried as
    a ring variable.  The forms share one degree d, and there are n+1 of
    them for a family in P^n.  Raises ValueError where
    :func:`~chowforms.chow.contraction_resultant` does, for a coefficient
    ring other than Q or Q[eps] among others."""
    poly = contraction_resultant(components)
    return CayleyBiform(len(components) - 1, components[0].degree, poly)


def limit_direction(ca: CayleyBiform) -> CayleyBiform:
    """Projective limit of the family at eps -> 0.

    Writes the biform as sum_k eps^k C_k and returns the normalized C_k of
    least k with C_k != 0: the lowest-order direction of the algebraic arc.
    Only that one coefficient is split off.  This is the reference route:
    it reads a fully expanded biform such as :func:`family_biform` gives.
    :func:`family_limit` gives the same limit from the components
    themselves, computed modulo eps^K with K starting from the min-plus
    valuation bound on the lowest order, and the eps table takes it as
    the lowest of the :func:`family_orders`, normalized.
    """
    if ca.is_zero:
        raise ValueError("zero family biform has no limit")
    if not ca.has_eps:
        return ca.normalized()
    k0 = min(exps[-1] for exps in ca.poly.terms)
    low = {exps[:-1]: c for exps, c in ca.poly.terms.items() if exps[-1] == k0}
    return CayleyBiform(ca.n, ca.d, MPoly(ca.poly.names[:-1], low)).normalized()


def family_orders(components: Sequence[BinaryForm]) -> tuple[MPoly, dict[int, PackedTerms]]:
    """(L, orders) for the whole family determinant D, the determinant of
    its Bezout p-form: ``orders`` maps each k with a nonzero W_k to W_k, k
    ascending, and L is the eps^k p-coefficient of D for the least such k,
    in the pair variables; a zero family gives (0, {}).

    W_k is the eps^k coefficient of D with p_kl -> u_k v_l - u_l v_k
    substituted, an integer (d, d) biform in ``uv_names(n)``, as packed
    terms in output order.
    The family biform is their sum sum_k eps^k W_k / q, q =
    :func:`~chowforms.chow.pform_scale`, so its eps^k coefficient is
    W_k / q and its limit is W_k normalized for the least k.  D is
    eps^s det M' (:func:`_valuation_scaled`), and det M' is taken once, on
    ints that code its eps polynomials in Kronecker slots
    (:func:`_coded_det`), which go straight into one
    :func:`~chowforms.chow.wedge_terms`: one pass over its packed output
    reads each (u, v) coefficient back once, slot k landing at order
    s + k, and each order keeps the output order.  The expansion of a
    p-monomial of degree d has absolute coefficient sum at most 2^d (d
    factors of two terms, each +-1), so the slots get d bits of headroom.
    L is read off the same coded determinant.  Raises ValueError where
    :func:`~chowforms.chow.bezout_pform` does.
    """
    matrix, s = _valuation_scaled(_eps_pform(components))
    det, digits = _coded_det(matrix, headroom=len(matrix))
    coded = wedge_terms(det, len(components))
    orders = _slots(coded.items, digits)
    if not orders:
        return MPoly._trusted(det.names, {}), {}
    low = dict(_slots(det.terms.items(), digits)[min(orders)])
    return MPoly._trusted(det.names, low), {s + k: coded._replace(items=w) for k, w in orders.items()}


def family_limit(components: Sequence[BinaryForm]) -> CayleyBiform:
    """``limit_direction(family_biform(components))``, term for term, without
    forming the family biform: the normalized expansion of
    :func:`limit_pform`.

    The components are n+1 binary forms of one degree d over Q[eps], such
    as the tuple :func:`join_family` returns or the components of a
    :class:`~chowforms.curves.CurveMap`, whose limit is its normalized
    Chow form.  The scale :func:`~chowforms.chow.pform_scale` is skipped:
    normalization removes it.  Raises ValueError where :func:`limit_pform`
    does.
    """
    _, w = limit_pform(components)
    return CayleyBiform._trusted(len(components) - 1, components[0].degree, w.normalized().mpoly())


def limit_pform(components: Sequence[BinaryForm]) -> tuple[MPoly, PackedTerms]:
    """(L, W) for the limit of the family: L is the p-coefficient of the
    family determinant at the least eps-order whose expansion into (u, v)
    is nonzero, in the pair variables, and W that expansion, an integer
    (d, d) biform in ``uv_names(n)``, as the packed terms of
    :func:`~chowforms.chow.wedge_terms` in output order.

    The determinant D of the Bezout p-form M
    (:func:`~chowforms.chow.bezout_pform`) is eps^s det M', M' the p-form
    with the least eps-powers of its rows and then its columns divided out
    (:func:`_valuation_scaled`), so order k of det M' is order s + k of D
    with the same p-coefficient.  Only the orders of det M' below K are
    computed, in the Kronecker slots of :func:`_coded_det`.  Reduction
    modulo eps^K is a ring homomorphism, so they are exact.  K starts one
    above the min-plus assignment value of the eps-valuations of M', a
    lower bound on the order of every Leibniz term.  The row and column
    minima were tight on every join probed, so that value is 0 and the
    first try is the eps-free determinant of M' at eps = 0, one slot per
    coefficient; where they are not, the value is what they left.  Orders
    below K are tried in turn: p_kl -> u_k v_l - u_l v_k is substituted
    into that one p-coefficient, which survives when the result is nonzero
    (for n >= 3 a nonzero p-coefficient can vanish on the Grassmannian).
    Without a survivor K doubles, up to one past the eps-degree bound of
    det M' (:func:`_eps_top`).  For a join of f and g of degree d_g the
    family has degree d = d_f + d_g, each Bezout entry has eps-degree at
    most 2*d_g, and the cap is at most 2*d*d_g + 1.  :func:`family_orders`
    keeps every order.  The p-form of eps-free components is lifted to a
    constant family over Q[eps] and takes the same route: every entry has
    eps-degree 0, so one slot gives L = their Bezout determinant.  The
    tuple is checked once, by :func:`~chowforms.chow.bezout_pform`.
    Raises ValueError where that does, for a coefficient ring other than Q
    or Q[eps] among others, and when the family biform is identically
    zero.
    """
    matrix, _ = _valuation_scaled(_eps_pform(components))
    bound = _valuation_bound(matrix)
    if bound is None:
        raise ValueError("zero family biform has no limit")
    top = _eps_top(matrix)
    K = bound + 1
    while True:
        det, digits = _coded_det(matrix, K)
        for terms in _slots(det.terms.items(), digits).values():
            pform = MPoly._trusted(det.names, dict(terms))
            w = wedge_terms(pform, len(components))
            if w:
                return pform, w
        if K == top:
            raise ValueError("zero family biform has no limit")
        K = min(2 * K, top)


def _eps_pform(components: Sequence[BinaryForm]) -> list[list[MPoly]]:
    """The Bezout p-form of the components over Q[eps]; an eps-free one is
    lifted to a constant family, every term at eps^0.  Raises ValueError
    where :func:`~chowforms.chow.bezout_pform` does, the only check of the
    tuple and of its ring."""
    matrix = bezout_pform(components)
    if matrix[0][0].names[-1] == EPS:
        return matrix
    names = matrix[0][0].names + (EPS,)
    return [[MPoly._trusted(names, {e + (0,): c for e, c in x.terms.items()}) for x in row] for row in matrix]


def _valuation_scaled(matrix: list[list[MPoly]]) -> tuple[list[list[MPoly]], int]:
    """(M', s) with det M = eps^s det M', for a square matrix M with eps
    last in its ring.  r_i is the least eps-valuation in row i, c_j the
    least in column j once each row is shifted down by its r_i, and entry
    (i, j) of M' is entry (i, j) of M divided by eps^(r_i + c_j), so
    s = sum r + sum c.  A row or column with no nonzero entry is not
    shifted.  Every entry of M' has eps-valuation at least 0, and at least
    one entry in each nonzero row and column has valuation 0."""
    vals = [[min(e[-1] for e in x.terms) if x else None for x in row] for row in matrix]
    r = [min((v for v in row if v is not None), default=0) for row in vals]
    c = [min((v - ri for v, ri in zip(col, r) if v is not None), default=0) for col in zip(*vals)]
    scaled = [
        [
            MPoly._trusted(x.names, {e[:-1] + (e[-1] - ri - cj,): y for e, y in x.terms.items()}) if ri + cj else x
            for x, cj in zip(row, c)
        ]
        for row, ri in zip(matrix, r)
    ]
    return scaled, sum(r) + sum(c)


def _eps_top(matrix: list[list[MPoly]]) -> int:
    """One past the eps-degree bound of the determinant of a square matrix
    with eps last in its ring: each Leibniz term takes one entry per row."""
    return 1 + sum(max(x.degree_in(EPS) for x in row) for row in matrix)


def _coded_det(matrix: list[list[MPoly]], K: Optional[int] = None, headroom: int = 0):
    """(det, digits): the determinant of a square matrix over the pair
    variables then eps, its eps-orders below K coded in Kronecker slots
    (:func:`~chowforms.chow.kronecker`), and the slots' reader.

    Each entry's terms of eps-order below K are grouped by p-monomial, and
    each group's eps polynomial becomes one int; det is the eps-free
    p-form that :func:`~chowforms.resultant.det_expand` gives on those
    ints, and ``digits`` reads a coefficient of det back as the list of its
    eps-coefficients, order k in slot k.  There are K slots, or
    :func:`_eps_top` when K is None, which holds every order; slots past
    that stay zero.  Dropping the orders of K and more
    is reduction modulo eps^K, a ring homomorphism, and a slot's bits do
    not depend on the slots above it, so every slot read is exact.  A
    Leibniz term takes one entry per row, so no eps-coefficient of det
    exceeds the product of the rows' coefficient 1-norms; the slots' bound
    is that product shifted left by ``headroom`` bits, room for a later
    linear map such as :func:`~chowforms.chow.wedge_terms` to act on the
    coded ints.
    """
    n = _eps_top(matrix) if K is None else K
    names = matrix[0][0].names[:-1]
    if n == 1:  # one slot: each int is the eps^0 coefficient itself
        coded = [[MPoly._trusted(names, {e[:-1]: c for e, c in x.terms.items() if not e[-1]}) for x in row] for row in matrix]
        return det_expand(coded), lambda v: [v]
    norms = (sum(abs(c) for x in row for c in x.terms.values()) for row in matrix)
    encode, digits = kronecker(math.prod(norms) << headroom, n)

    def coded(x: MPoly) -> MPoly:
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for e, c in x.terms.items():
            if e[-1] < n:
                groups.setdefault(e[:-1], {})[e[-1]] = c
        return MPoly._trusted(names, {mu: encode(g) for mu, g in groups.items()})

    return det_expand([[coded(x) for x in row] for row in matrix]), digits


def _slots(pairs, digits) -> dict[int, list]:
    """The nonzero slots of (key, coded coefficient) pairs, slot ascending:
    slot k lists (key, k-th digit) for each pair whose k-th digit is
    nonzero, in the pairs' order."""
    slots: dict[int, list] = {}
    for key, v in pairs:
        for k, x in enumerate(digits(v)):
            if x:
                slots.setdefault(k, []).append((key, x))
    return {k: slots[k] for k in sorted(slots)}


def _valuation_bound(matrix: list[list[MPoly]]) -> Optional[int]:
    """Least sum of eps-valuations over the permutations of a square matrix
    with eps last in its ring, or None when every permutation meets a zero
    entry.  Rows are assigned in order; the state is the set of used
    columns."""
    best = {0: 0}
    for row in matrix:
        vals = [(j, min(e[-1] for e in x.terms)) for j, x in enumerate(row) if x]
        step: dict[int, int] = {}
        for used, total in best.items():
            for j, v in vals:
                if not used >> j & 1:
                    key, t = used | 1 << j, total + v
                    if key not in step or t < step[key]:
                        step[key] = t
        best = step
    return best.get((1 << len(matrix)) - 1)


def boundary_factor_check(limit: CayleyBiform, parts: Iterable[CayleyBiform]) -> bool:
    """Does the limit biform equal the product of the given component biforms
    up to scalar?  The Chow form of a union of curves is the product of the
    component Chow forms, so this is the factorization test for boundary
    limits.  This is the library's (u, v) route, and the reference for
    :func:`pform_factor_check`, which ``degenerate`` runs instead.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("no component biforms given")
    if sum(p.d for p in parts) != limit.d:
        raise ValueError(
            f"degree mismatch: components sum to {sum(p.d for p in parts)}, "
            f"limit has degree {limit.d}"
        )
    product = reduce(lambda a, b: a * b, parts)
    return proportional(limit, product)


def pform_factor_check(limit: MPoly, curves: Sequence[CurveMap]) -> tuple[bool, MPoly]:
    """:func:`boundary_factor_check` in Plucker coordinates: does the limit
    p-coefficient L (:func:`limit_pform`) expand to the product of the
    curves' Chow forms, up to scalar?  Returns the verdict and the product
    p-form P, the product of the determinants of the curves' Bezout
    p-forms.  L lives in the pair variables of the curves' P^n and has a
    nonzero expansion, as that of :func:`limit_pform` has.

    p -> u ^ v is a ring homomorphism, so P expands to the product of the
    component Chow forms up to scale.  The verdict is std(L) proportional
    to std(P), std being :func:`~chowforms.chow.plucker_normal_form` with
    its exact checks: standard monomials expand unitriangularly over Z, so
    two p-forms have proportional expansions exactly when their normal
    forms are proportional, and the verdict is that of
    :func:`boundary_factor_check` on the expansions, with no (u, v) biform
    built.  Where L and P are proportional as they stand, as on every join
    probed, the verdict is yes with nothing straightened.  The normalized
    expansion of P is the product of the normalized component Chow forms,
    by Gauss's lemma.  Raises ValueError when std(P) is zero, that is, when
    a curve has a base point.
    """
    m = curves[0].n + 1
    product = reduce(lambda a, b: a * b, (det_expand(bezout_pform(c.components)) for c in curves))
    if product and content_primitive(limit)[1] == content_primitive(product)[1]:
        return True, product
    std = plucker_normal_form(product, m)
    if std.is_zero:
        raise ValueError("zero Chow form: a curve has a base point")
    _, low = content_primitive(plucker_normal_form(limit, m))
    return low == content_primitive(std)[1], product
