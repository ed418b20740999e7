"""Chow forms of rational curves via resultants of contracted binary forms.

Contracting a curve map f against two covector blocks gives two degree-d
binary forms h1 = sum_i u_i f_i and h2 = sum_i v_i f_i; their resultant is
a bidegree-(d, d) polynomial in (u, v) that vanishes exactly on the planes
meeting the image curve.  That biform is the curve's Chow (Cayley) form, up
to scalar; it depends on the covectors only through the wedge u ^ v, so it
also admits a rewrite into Plucker coordinates p_ij = u_i v_j - u_j v_i.

The production route uses that dependence directly.  The Bezout matrix is
bilinear and alternating, so Bez(h1, h2) = sum_{k<l} p_kl Bez(f_k, f_l), a
d x d matrix whose entries are linear in the p_kl with coefficients in Q,
or in Q[eps] for a family: the only two coefficient rings of this route,
which :func:`bezout_pform` checks and each later stage reads off its
input.  The determinant, expanded back into (u, v), is the resultant up to
a sign fixed by d; the 2d x 2d Sylvester determinant over the u- and
v-variables is never formed.
The Sylvester backends in :mod:`chowforms.resultant` remain as cross-checks.
On P^2 the determinant itself is the Chow form in Plucker coordinates, and
:func:`implicitize_plane_curve` reads the implicit equation off it.

Biform coefficient tables are a faithful, canonical encoding: two curves
have the same image exactly when their normalized biforms agree.  The
Plucker representative is unique too, for every (n, d): the standard-monomial
normal form.  :func:`plucker_normal_form` reaches it from any integer
p-form by the straightening law of Gr(2, n+1), which rewrites each nested
pair p_ad p_bc (a < b < c < d) as p_ac p_bd - p_ab p_cd, with no (u, v)
biform built; its exact check expands only the rewritten part and its
image, which must agree in (u, v).  :func:`plucker_form` applies it to the
determinant of the Bezout p-form, and ``degenerate`` compares limits with
products of Chow forms on it.  :func:`plucker_rewrite` peels the normal
form off a given biform instead, and proves it by a round trip.  Both
directions between p and (u, v) work on monomials packed into one int each
(:func:`wedge_expand`, :func:`wedge_orders`, :func:`plucker_rewrite`,
:func:`plucker_normal_form`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Optional, Sequence

from .curves import CurveMap, Plane
from .oracle import check_curve
from .polynomial import (
    BinaryForm,
    MPoly,
    ScalarLike,
    content_primitive,
    field_bytes,
    form_ring,
    pack,
    rational,
    unpack,
)
from .resultant import bezoutian, det_expand

__all__ = [
    "uv_names",
    "CayleyBiform",
    "PluckerRep",
    "cayley_biform",
    "contraction_resultant",
    "bezout_pform",
    "pform_scale",
    "wedge_expand",
    "wedge_orders",
    "incident",
    "plucker_rewrite",
    "plucker_form",
    "plucker_normal_form",
    "implicitize_plane_curve",
    "NotBirational",
    "proportional",
]

EPS = "eps"


@lru_cache(maxsize=None)
def uv_names(n: int, eps: bool = False) -> tuple[str, ...]:
    """Variable ring for biforms on P^n: u-block, v-block, optional eps."""
    names = tuple(f"u{i}" for i in range(n + 1)) + tuple(f"v{i}" for i in range(n + 1))
    return names + (EPS,) if eps else names


@dataclass(frozen=True)
class CayleyBiform:
    """Bidegree-(d, d) form in covector blocks u, v (optionally over Q[eps]).

    Every stored term has u-degree d and v-degree d; the zero biform is
    allowed (it arises from parametrizations with base points) and reports
    ``is_zero``.
    """

    n: int
    d: int
    poly: MPoly

    def __post_init__(self):
        plain = uv_names(self.n)
        with_eps = uv_names(self.n, eps=True)
        if self.poly.names not in (plain, with_eps):
            raise ValueError("biform polynomial lives in the wrong ring")
        m = self.n + 1
        for exps in self.poly.terms:
            if sum(exps[:m]) != self.d or sum(exps[m : 2 * m]) != self.d:
                raise ValueError("term violates the (d, d) bidegree")

    @classmethod
    def _trusted(cls, n: int, d: int, poly: MPoly) -> "CayleyBiform":
        """Wrap ``poly`` without the checks of ``__post_init__``.  The caller
        guarantees the ring and the (d, d) bidegree of every term: a biform
        built from valid ones, or a resultant or eps-order of the
        production route, which is bihomogeneous of bidegree (d, d)."""
        ca = object.__new__(cls)
        object.__setattr__(ca, "n", n)
        object.__setattr__(ca, "d", d)
        object.__setattr__(ca, "poly", poly)
        return ca

    @property
    def has_eps(self) -> bool:
        return self.poly.names[-1] == EPS

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def eval(self, u: Sequence[ScalarLike], v: Sequence[ScalarLike]) -> ScalarLike:
        """Value at numeric covectors, in coefficient normal form (see
        :func:`~chowforms.polynomial.rational`): an ``int`` when integral,
        else a ``Fraction``.  Integer covectors against an integer biform
        are evaluated over Z throughout.  Entries must be exact rationals
        (int or Fraction); anything else raises TypeError.  An eps-biform
        has no numeric value and raises ValueError.
        """
        if self.has_eps:
            raise ValueError("evaluation needs an eps-free biform")
        if len(u) != self.n + 1 or len(v) != self.n + 1:
            raise ValueError(f"covectors must have length {self.n + 1}")
        env = dict(zip(self.poly.names, map(rational, [*u, *v])))
        return rational(self.poly.evaluate(env))

    def normalized(self) -> "CayleyBiform":
        """Primitive integer coefficients, positive graded-lex leading term."""
        if self.is_zero:
            raise ValueError("cannot normalize the zero biform")
        _, q = content_primitive(self.poly)
        return CayleyBiform._trusted(self.n, self.d, q)

    def __mul__(self, other):
        if not isinstance(other, CayleyBiform):
            return NotImplemented
        if other.n != self.n or self.has_eps or other.has_eps:
            raise ValueError("can only multiply eps-free biforms on one P^n")
        return CayleyBiform._trusted(self.n, self.d + other.d, self.poly * other.poly)


def contraction_resultant(forms: Sequence[BinaryForm]) -> MPoly:
    """Resultant of sum_i u_i f_i against sum_i v_i f_i, in the ring of
    :func:`wedge_expand`: the u-block, the v-block, then eps when the
    forms' coefficients lie in Q[eps].  It equals the Sylvester resultant
    exactly, sign included: the determinant of :func:`bezout_pform`, with
    p_kl -> u_k v_l - u_l v_k substituted at the end, divided by
    :func:`pform_scale`.  Raises ValueError where :func:`bezout_pform`
    does, for a coefficient ring other than Q or Q[eps] among others;
    :func:`~chowforms.resultant.resultant` takes any one ring.

    The determinant runs over Z, so each integer coefficient c is divided
    once by q = |pform_scale(forms)|, with its sign carried separately:
    with g = gcd(c, q), the quotient is (c/g) / (q/g), already in lowest
    terms.
    """
    out = wedge_expand(det_expand(bezout_pform(forms)), len(forms))
    q = pform_scale(forms)
    negate, q = q < 0, abs(q)
    if q == 1:
        return -out if negate else out
    terms = {}
    for exps, c in out.terms.items():
        g = math.gcd(c, q)
        num, den = (-c if negate else c) // g, q // g
        terms[exps] = num if den == 1 else Fraction(num, den)
    return MPoly._trusted(out.names, terms)


def pform_scale(forms: Sequence[BinaryForm]) -> int:
    """The integer q = (-1)^(d(d+1)/2) * lam^(2d) such that the determinant
    of :func:`bezout_pform`, with p_kl -> u_k v_l - u_l v_k substituted, is
    q * Res(sum_i u_i f_i, sum_i v_i f_i).

    lam is the lcm of every coefficient denominator, including those inside
    MPoly coefficients, and the sign is that of det Bez(h1, h2) =
    (-1)^(d(d+1)/2) * Res(h1, h2).  d is read off the first form with no
    check: the forms are meant to be a tuple that :func:`bezout_pform`
    accepts.
    """
    d = forms[0].degree
    sign = -1 if (d * (d + 1) // 2) % 2 else 1
    return sign * _denominator_lcm(forms) ** (2 * d)


@lru_cache(maxsize=None)
def _pair_vars(m: int) -> tuple[tuple[tuple[int, int], str], ...]:
    # Internal names only: "p{k},{l}" stays unambiguous for every m.
    return tuple(((k, l), f"p{k},{l}") for k, l in combinations(range(m), 2))


def bezout_pform(forms: Sequence[BinaryForm]) -> list[list[MPoly]]:
    """The d x d matrix sum_{k<l} p_kl Bez(lam f_k, lam f_l).

    lam is the lcm of every coefficient denominator, so the entries have
    integer coefficients.  The coefficients are numbers or MPolys over
    Q[eps]; the entries' ring is the pair variables p_kl, then eps when any
    coefficient is an MPoly.  Terms of different pairs never meet, so each
    entry's term dict is filled directly.  The determinant, with
    p_kl -> u_k v_l - u_l v_k substituted by :func:`wedge_expand`, is
    (-1)^(d(d+1)/2) * lam^(2d) * Res(sum_i u_i f_i, sum_i v_i f_i).
    Raises ValueError unless the forms pass
    :func:`~chowforms.polynomial.form_ring`, which runs once, and then,
    before any arithmetic, unless their ring is Q or Q[eps].  This is the
    ring check of every production route.

    Each Bez(f_k, f_l) is taken on ints, by Kronecker substitution: a
    scaled coefficient c(eps) (a number is a constant one) becomes the one
    int c(2^B), its eps^s term in slot s of B = 8 W bits.  With D the
    largest eps-degree of any coefficient, a product of two coefficients
    has eps-degree at most 2 D, so the radix 2 D + 1 keeps its terms in
    distinct slots.  The unchecked :func:`~chowforms.resultant.bezoutian`
    runs on those ints.  An entry is a sum of at most d minors
    a_p b_q - a_q b_p; a coefficient of a product sums at most D + 1
    products of two scaled coefficients, each at most A^2 in absolute
    value, with A the largest scaled coefficient.  So no entry coefficient
    exceeds 2 d (D + 1) A^2, the bound of the slots (:func:`_kronecker`)
    that encode the coefficients and read each entry back.
    """
    d, ring = form_ring(forms)
    _require_q_or_eps(ring)
    lam = _denominator_lcm(forms)

    def scaled(c) -> dict:
        """eps-degree -> scaled coefficient; a number sits at degree 0."""
        if isinstance(c, MPoly):
            return {s: _scaled(x, lam) for (s,), x in c.terms.items()}
        return {0: _scaled(c, lam)} if c else {}

    coeffs = [[scaled(c) for c in h.coeffs] for h in forms]
    nonzero = [c for h in coeffs for c in h if c]
    D = max((s for c in nonzero for s in c), default=0)
    A = max((abs(x) for c in nonzero for x in c.values()), default=0)
    encode, digits = _kronecker(2 * d * (D + 1) * A * A, 2 * D + 1)
    coded = [[encode(c) for c in h] for h in coeffs]
    pairs = _pair_vars(len(forms))
    npairs = len(pairs)
    terms: list[list[dict]] = [[{} for _ in range(d)] for _ in range(d)]
    for t, ((k, l), _) in enumerate(pairs):
        unit = (0,) * t + (1,) + (0,) * (npairs - t - 1)
        # Slot s holds the eps^s term, or over Q the one constant term.
        keys = [unit + (s,) if ring else unit for s in range(2 * D + 1)]
        for row, bez_row in zip(terms, bezoutian(coded[k], coded[l])):
            for entry, v in zip(row, bez_row):
                if v:
                    for key, x in zip(keys, digits(v)):
                        if x:
                            entry[key] = x
    names = tuple(p for _, p in pairs) + ring
    return [[MPoly._trusted(names, entry) for entry in row] for row in terms]


def _require_q_or_eps(ring: tuple[str, ...]) -> None:
    """Raise ValueError unless a coefficient ring is Q or Q[eps]."""
    if ring not in ((), (EPS,)):
        raise ValueError(f"coefficients must lie in Q or Q[eps], not Q[{', '.join(ring)}]")


def _slot_bytes(bound: int) -> int:
    """The least slot width W, in bytes, with 2^(8W-1) > bound."""
    return bound.bit_length() // 8 + 1


def _kronecker(bound: int, n: int):
    """Kronecker substitution of n balanced slots, each wide enough for an
    int of absolute value at most ``bound``: (encode, digits).

    With W = :func:`_slot_bytes` (bound) and B = 8 W, ``encode`` maps
    {s: x_s} to sum_s x_s 2^(B s), and ``digits`` reads such an int back as
    the list [x_0, ..., x_(n-1)], zeros included.  Every |x_s| < 2^(B-1),
    so adding 2^(B-1) to each slot leaves digits in [0, 2^B) with no
    carry, and each is a shift and a mask.  One slot holds the int itself,
    as for numeric forms."""
    if n == 1:  # one slot holds the int itself
        return (lambda c: c.get(0, 0)), (lambda v: [v])
    B = 8 * _slot_bytes(bound)
    half, mask = 1 << (B - 1), (1 << B) - 1
    shifts = [B * s for s in range(n)]
    offset = sum(half << s for s in shifts)

    def encode(c: dict) -> int:
        return sum(x << B * s for s, x in c.items())

    def digits(v: int) -> list[int]:
        v += offset
        return [(v >> s & mask) - half for s in shifts]

    return encode, digits


def _scaled(c: ScalarLike, lam: int) -> int:
    """lam * c as an int, for a rational c whose denominator divides lam."""
    return c * lam if type(c) is int else c.numerator * (lam // c.denominator)


def _wedge_powers(m: int, nv: int, w: int, tops: Sequence[int]) -> list[list[list]]:
    """``table[t][e]`` lists (u_k v_l - u_l v_k)^e, for the t-th pair k < l
    of :func:`_pair_vars` and e <= tops[t], as (packed monomial, int) pairs,
    leading term first; u is variables 0..m-1 and v is m..2m-1 of nv."""
    table = []
    for ((k, l), _), top in zip(_pair_vars(m), tops):
        a = pack([i in (k, m + l) for i in range(nv)], w)  # u_k v_l
        b = pack([i in (l, m + k) for i in range(nv)], w)  # u_l v_k
        table.append([
            [(i * a + (e - i) * b, (-1) ** (e - i) * math.comb(e, i)) for i in range(e, -1, -1)]
            for e in range(top + 1)
        ])
    return table


def _expand_monomial(pexps, table, base: int, c) -> list:
    """c * base * prod_t table[t][pexps[t]], packed; a monomial may repeat."""
    acc = [(base, c)]
    for t, e in enumerate(pexps):
        if e:
            acc = [(k1 + k2, c1 * c2) for k1, c1 in acc for k2, c2 in table[t][e]]
    return acc


def wedge_expand(pform: MPoly, m: int) -> MPoly:
    """Substitute p_kl -> u_k v_l - u_l v_k into ``pform``, whose ring is
    the pair variables of m forms in :func:`bezout_pform` order (names
    aside), then eps or nothing.  The result's ring is
    ``uv_names(m - 1, eps=...)``, with eps when ``pform`` has it.  Terms
    are expanded and summed packed, and unpacked once in descending order
    of their packed keys, which is descending lex order.  So an eps-free
    result whose terms share one total degree, as every biform's do,
    holds its terms in the graded-lex order of
    :meth:`~chowforms.polynomial.MPoly.sorted_terms`, and a writer's sort
    of them is one linear run; with eps, total degrees mix and only lex
    order holds.  Raises ValueError
    when the ring has fewer variables than pairs, or when the variables
    after the pairs are not () or (eps,), with the message of
    :func:`bezout_pform`."""
    npairs = m * (m - 1) // 2
    if len(pform.names) < npairs:
        raise ValueError(f"p-form ring has fewer variables than the {npairs} pairs of {m} forms")
    ring = pform.names[npairs:]
    _require_q_or_eps(ring)
    names = uv_names(m - 1, eps=bool(ring))
    nv = len(names)
    cols = list(zip(*pform.terms))  # empty for the zero p-form
    # A u- or v-exponent is at most the p-degree of its term.
    top = max([0, *map(sum, zip(*cols[:npairs])), *map(max, cols[npairs:])])
    w = field_bytes(top)
    table = _wedge_powers(m, nv, w, [max(col) for col in cols[:npairs]])
    out: dict[int, ScalarLike] = {}
    get = out.get
    for exps, c in pform.terms.items():
        base = pack(exps[npairs:], w)  # the coefficient variables come last
        for key, x in _expand_monomial(exps[:npairs], table, base, c):
            out[key] = get(key, 0) + x
    # Sums that cancel, as in every exact straightening check, are dropped
    # before the sort.
    keys = sorted([k for k, c in out.items() if c], reverse=True)
    terms = {unpack(k, nv, w): c if type(c) is int else rational(c) for k in keys for c in (out[k],)}
    return MPoly._trusted(names, terms)


def wedge_orders(pform: MPoly, m: int) -> dict[int, MPoly]:
    """The nonzero eps-orders of ``wedge_expand(pform, m)``, k ascending,
    each in the ring ``uv_names(m - 1)`` and in :func:`wedge_expand`'s term
    order.  ``pform`` has int coefficients in the pair variables of m forms,
    then eps, such as the determinant of :func:`bezout_pform` over Q[eps].

    Every order comes from one expansion, by Kronecker substitution
    (:func:`_kronecker`): the terms are grouped by p-monomial mu, each
    group's coefficient eps^-lo c_mu(eps) is encoded as one int at
    eps = 2^B, lo the least order present, the eps-free p-form of those
    ints is expanded once, and every (u, v) coefficient is read back as
    its balanced base-2^B digits, digit k being the coefficient in order
    lo + k.  The expansion of a p-monomial of degree e has absolute
    coefficient sum at most 2^e (e factors of two terms, each +-1), so no
    coefficient of any order exceeds the sum over mu of max_k |c_mu,k|,
    times 2^d for the largest p-degree d: that is the slots' bound.
    Raises ValueError unless the last variable is eps, and where
    :func:`wedge_expand` does."""
    if pform.names[-1:] != (EPS,):
        raise ValueError("the p-form ring must end in eps")
    lo = min((exps[-1] for exps in pform.terms), default=0)
    top = max((exps[-1] for exps in pform.terms), default=0)
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for exps, c in pform.terms.items():
        groups.setdefault(exps[:-1], {})[exps[-1] - lo] = c
    d = max(map(sum, groups), default=0)
    encode, digits = _kronecker(sum(max(map(abs, c.values())) for c in groups.values()) << d, top - lo + 1)
    coded = wedge_expand(MPoly._trusted(pform.names[:-1], {mu: encode(c) for mu, c in groups.items()}), m)
    # Slot k holds order lo + k.
    orders: list[dict] = [{} for _ in range(top - lo + 1)]
    for exps, y in coded.terms.items():
        for order, x in zip(orders, digits(y)):
            if x:
                order[exps] = x
    return {lo + k: MPoly._trusted(coded.names, order) for k, order in enumerate(orders) if order}


def _denominator_lcm(forms: Sequence[BinaryForm]) -> int:
    """Least common multiple of the denominators of every coefficient,
    including those inside MPoly coefficients."""
    lam = 1
    for h in forms:
        for c in h.coeffs:
            for q in c.terms.values() if isinstance(c, MPoly) else (c,):
                den = q.denominator
                if den != 1:
                    lam = math.lcm(lam, den)
    return lam


def cayley_biform(f: CurveMap) -> CayleyBiform:
    """Chow form of the image of f, up to scalar, as a (d, d) biform.

    Total on all curve maps: a parametrization with a base point yields the
    identically zero biform instead of an error.
    """
    return CayleyBiform._trusted(f.n, f.d, contraction_resultant(f.components))


def incident(ca: CayleyBiform, plane: Plane) -> bool:
    """True iff the plane meets the curve, i.e. the biform vanishes on it."""
    if ca.is_zero:
        raise ValueError("degenerate Cayley form")
    return ca.eval(plane.u, plane.v) == 0


def proportional(a: CayleyBiform, b: CayleyBiform) -> bool:
    """Projective equality of biforms by exact cross-multiplication; with
    equal leading coefficients the ratio is 1, so the biforms are compared
    as they are."""
    if a.n != b.n or a.d != b.d:
        raise ValueError("biforms must share (n, d)")
    if a.is_zero and b.is_zero:
        raise ValueError("proportionality of zero biforms")
    if a.is_zero or b.is_zero:
        return False
    la, lb = a.poly.leading_coeff(), b.poly.leading_coeff()
    if la == lb:
        return a.poly == b.poly
    return a.poly * (lb.numerator * la.denominator) == b.poly * (la.numerator * lb.denominator)


# -- Plucker coordinates -----------------------------------------------------


@dataclass(frozen=True)
class PluckerRep:
    """Degree-d polynomial in p_ij with p_ij -> u_i v_j - u_j v_i expanding
    back to the source biform exactly.

    Both producers return the standard-monomial normal form, the unique
    representative without a nested pair p_ad p_bc (a < b < c < d), for
    every (n, d): :func:`plucker_form` straightens the Bezout p-form of a
    curve and checks its rewrites exactly in (u, v), and
    :func:`plucker_rewrite` peels a given biform and checks the round trip.
    ``canonical`` is True when n <= 2 or d = 1: then no Plucker relation of
    degree d exists, so no other representative does.
    """

    n: int
    d: int
    poly: MPoly

    @property
    def canonical(self) -> bool:
        return self.n <= 2 or self.d == 1

    def expand(self) -> CayleyBiform:
        """The biform p_ij -> u_i v_j - u_j v_i.  A p-monomial of degree d
        expands to terms of bidegree (d, d) only, so checking the p-degrees
        checks every term of the result."""
        if any(sum(exps) != self.d for exps in self.poly.terms):
            raise ValueError("Plucker polynomial is not homogeneous of degree d")
        poly = wedge_expand(self.poly, self.n + 1)
        return CayleyBiform._trusted(self.n, self.d, poly)


def plucker_names(n: int) -> tuple[str, ...]:
    if n > 9:
        raise ValueError("p_ij naming supports n <= 9")
    return tuple(f"p{k}{l}" for (k, l), _ in _pair_vars(n + 1))


def depends_only_on_wedge(ca: CayleyBiform) -> bool:
    """Check that the biform p factors through u ^ v, read off its exponents.

    The test is that D = sum_i u_i d/dv_i annihilates p.  Over Q this is
    invariance under v -> v + lam*u, since p(u, v + lam*u) =
    sum_k lam^k D^k p / k! and D^k p = 0 for every k >= 1 once Dp = 0.
    It also gives p(v, u) = (-1)^d p, so the swap needs no check of its
    own: a bidegree-(d, d) p with Dp = 0 is a highest-weight vector of
    weight (d, d) for GL2 acting on the rows (u, v), so it spans a copy of
    det^d and is SL2-invariant; (u, v) -> (v, -u) lies in SL2 and p has
    degree d in v, so p(v, u) = (-1)^d p(v, -u) = (-1)^d p(u, v).
    """
    if ca.has_eps:
        raise ValueError("wedge check needs an eps-free biform")
    m = ca.n + 1
    # D takes u^a v^b to sum_i b_i u^(a + e_i) v^(b - e_i).
    image: dict[tuple[int, ...], ScalarLike] = {}
    for exps, c in ca.poly.terms.items():
        for i in range(m):
            b = exps[m + i]
            if b:
                e = list(exps)
                e[i], e[m + i] = e[i] + 1, b - 1
                key = tuple(e)
                image[key] = image.get(key, 0) + b * c
    return not any(image.values())


def plucker_rewrite(ca: CayleyBiform) -> PluckerRep:
    """Rewrite a biform as its standard-monomial normal form in the p_ij
    (Sturmfels, Algorithms in Invariant Theory, 1993, section 3.1).

    A triangular peel: the graded-lex leading term of p_ij (i < j) is
    u_i v_j, so the standard monomial prod_s p_{i_s j_s} (i and j sorted)
    has leading term u_I v_J.  Take the leading term c u_I v_J of what
    remains, pair sorted I with sorted J, subtract c times that monomial's
    expansion, and repeat.  A pairing with some i_s >= j_s leads no
    standard monomial: the biform is not a function of the wedge, and
    ValueError is raised.  The exact round-trip through
    :meth:`PluckerRep.expand` proves every accepted answer.
    """
    if ca.has_eps:
        raise ValueError("plucker rewrite needs an eps-free biform")
    pnames = plucker_names(ca.n)
    m, nv, w = ca.n + 1, 2 * ca.n + 2, field_bytes(ca.d)
    table = _wedge_powers(m, nv, w, [ca.d] * len(pnames))
    pair_index = {kl: t for t, (kl, _) in enumerate(_pair_vars(m))}
    rest = {pack(exps, w): c for exps, c in ca.poly.terms.items()}
    heap = [-key for key in rest]
    heapq.heapify(heap)
    rep: dict[tuple[int, ...], ScalarLike] = {}
    while heap:
        lead = -heapq.heappop(heap)
        c = rest.pop(lead)
        if not c:
            continue
        exps = unpack(lead, nv, w)
        I = [i for i in range(m) for _ in range(exps[i])]
        J = [j for j in range(m) for _ in range(exps[m + j])]
        pexps = [0] * len(pnames)
        for i, j in zip(I, J):
            if i >= j:
                raise ValueError("not a function of u wedge v")
            pexps[pair_index[i, j]] += 1
        rep[tuple(pexps)] = c
        # The expansion's leading term is lead, with coefficient 1; every
        # other term is below it, so only terms still to be peeled change.
        for key, x in _expand_monomial(pexps, table, 0, c):
            if key != lead:
                if key not in rest:
                    heapq.heappush(heap, -key)
                rest[key] = rest.get(key, 0) - x
    out = PluckerRep(ca.n, ca.d, MPoly(pnames, rep))
    if out.expand().poly != ca.poly:
        raise RuntimeError("plucker rewrite failed to round-trip")
    return out


def plucker_form(f: CurveMap) -> Optional[PluckerRep]:
    """The Plucker form of the normalized Chow form of f, straightened from
    det :func:`bezout_pform` without building the (u, v) biform; None when
    f has a base point, since its Chow form is zero.  It equals
    ``plucker_rewrite(cayley_biform(f).normalized())`` term for term.

    :func:`plucker_normal_form` gives the standard-monomial normal form of
    the determinant, checked exactly.  Standard monomials map to their
    (u, v) expansions by a unitriangular matrix over Z, prod p_{i_s j_s}
    leading with u_I v_J, so the content is divided out as it stands, and
    the sign makes positive the coefficient of the monomial with the
    greatest u_I v_J, the biform's graded-lex leading term
    (:meth:`CayleyBiform.normalized`).  A failed exact check raises
    RuntimeError.  Raises ValueError for n > 9 (:func:`plucker_names`),
    after the base point test.
    """
    m = f.n + 1
    std = plucker_normal_form(det_expand(bezout_pform(f.components)), m).terms
    if not std:
        return None
    names = plucker_names(f.n)
    # The leading term u_I v_J of a standard monomial, packed: it is linear
    # in the exponents, and packed ints compare in lex order.
    w = field_bytes(f.d)
    uv_lead = [pack([i in (k, m + l) for i in range(2 * m)], w) for (k, l), _ in _pair_vars(m)]
    lead = max(std, key=lambda exps: sum(map(mul, exps, uv_lead)))
    g = math.gcd(*std.values())
    g = g if std[lead] > 0 else -g
    return PluckerRep(f.n, f.d, MPoly._trusted(names, {e: c // g for e, c in std.items()}))


def plucker_normal_form(pform: MPoly, m: int) -> MPoly:
    """The standard-monomial normal form of a p-form with int coefficients
    in the pair variables of m forms, in :func:`bezout_pform` order (names
    aside, no eps), in the same ring.  Straightened by :func:`_straighten`
    and checked exactly: the p-form and its normal form must have one
    expansion into (u, v).  Their difference is the part R that was
    rewritten less its image S(R), whose supports are disjoint, and
    wedge_expand(R - S(R)) == 0 is tested; a failure raises RuntimeError.
    Standard monomials that pass through unchanged cancel and are not
    expanded, so on P^2, where no pair is nested, the check costs nothing.
    The normal form is zero exactly when the p-form vanishes on the
    Grassmannian: standard monomials expand to independent (u, v)
    polynomials.  Raises ValueError when the ring is not the pairs'."""
    if len(pform.names) != m * (m - 1) // 2:
        raise ValueError(f"p-form ring must be the {m * (m - 1) // 2} pairs of {m} forms")
    std = _straighten(pform.terms, m)
    diff = dict(pform.terms)
    for exps, c in std.items():
        c = diff.pop(exps, 0) - c
        if c:
            diff[exps] = c
    if diff and not wedge_expand(MPoly._trusted(pform.names, diff), m).is_zero:
        raise RuntimeError("Plucker straightening failed its exact check")
    return MPoly._trusted(pform.names, std)


def _plucker_relation(a: int, b: int, c: int, d: int) -> list[tuple[tuple[int, int], tuple[int, int], int]]:
    """p_ad p_bc as a sum of sign * p_kl p_ij, for a < b < c < d."""
    return [((a, c), (b, d), 1), ((a, b), (c, d), -1)]


def _straighten(terms: dict, m: int) -> dict:
    """The standard-monomial normal form of a p-form with int coefficients,
    as a dict of its nonzero terms.  ``terms`` maps exponent vectors over
    the pairs of m points, in :func:`bezout_pform` order, to ints.

    Each nested pair p_ad p_bc (a < b < c < d) is rewritten by
    :func:`_plucker_relation` (Sturmfels, Algorithms in Invariant Theory,
    1993, section 3.1) until none is left.  A rewrite lowers
    Phi = sum e_kl (l - k)^2 by at least 2 (by 2 (b - a)(d - c) for
    p_ac p_bd), so a worklist of buckets by Phi, taken from the top, pops
    each monomial once, after every monomial that feeds it; nothing
    recurses.  Monomials are packed (:func:`~chowforms.polynomial.pack`), so
    a rewrite adds one int; standard ones in ``terms`` pass through as they
    are.
    """
    pairs = [kl for kl, _ in _pair_vars(m)]
    npairs = len(pairs)
    w = field_bytes(max(map(sum, terms), default=0))
    index = {kl: t for t, kl in enumerate(pairs)}
    unit = [1 << 8 * w * (npairs - 1 - t) for t in range(npairs)]  # pack() of pair t
    field = [u * ((1 << 8 * w) - 1) for u in unit]  # the bits of pair t's exponent
    phi = [(l - k) ** 2 for k, l in pairs]

    def steps(outer: int, inner: int) -> list[tuple[int, int, int]]:
        """(key delta, Phi delta, sign) of each term of the relation."""
        (a, d), (b, c) = pairs[outer], pairs[inner]
        out = []
        for kl, ij, sign in _plucker_relation(a, b, c, d):
            s, t = index[kl], index[ij]
            key = unit[s] + unit[t] - unit[outer] - unit[inner]
            out.append((key, phi[s] + phi[t] - phi[outer] - phi[inner], sign))
        return out

    # Each pair (a, d) with the pairs (b, c) nested strictly inside it.
    nests = []
    for t, (a, d) in enumerate(pairs):
        inside = [(field[s], steps(t, s)) for s, (b, c) in enumerate(pairs) if a < b and c < d]
        if inside:
            nests.append((field[t], inside))

    def relation(key: int) -> Optional[list[tuple[int, int, int]]]:
        """The steps of the first nested pair of a packed monomial."""
        for outer, inside in nests:
            if key & outer:
                for inner, out in inside:
                    if key & inner:
                        return out
        return None

    std: dict[tuple[int, ...], int] = {}
    coef: dict[int, int] = {}
    todo: list[list[int]] = []
    for exps, c in terms.items():
        key = pack(exps, w)
        if relation(key) is None:
            std[exps] = c
            continue
        level = sum(map(mul, exps, phi))
        todo.extend([] for _ in range(level + 1 - len(todo)))
        coef[key] = c
        todo[level].append(key)
    for level in range(len(todo) - 1, -1, -1):
        for key in todo[level]:
            c = coef.pop(key)
            if not c:
                continue
            rule = relation(key)
            if rule is None:
                exps = unpack(key, npairs, w)
                std[exps] = std.get(exps, 0) + c
                continue
            for delta, drop, sign in rule:
                k = key + delta
                if k in coef:
                    coef[k] += sign * c
                else:
                    coef[k] = sign * c
                    todo[level + drop].append(k)
    return {exps: c for exps, c in std.items() if c}


# -- plane-curve implicitization ---------------------------------------------


class NotBirational(ValueError):
    """Raised by :func:`implicitize_plane_curve`; ``report`` is the
    :class:`~chowforms.oracle.CurveCheck` that rejected the curve."""

    def __init__(self, report):
        super().__init__(
            "parametrization is not birational onto its image: "
            f"base_free={report.base_free} map_degree={report.map_degree}"
        )
        self.report = report


def implicitize_plane_curve(f: CurveMap) -> MPoly:
    """Implicit equation of a birationally parametrized plane curve.

    Takes the determinant of the Bezout p-form (:func:`bezout_pform`), the
    Chow form written in p01, p02, p12, and applies the P^2 duality
    x0 = p12, x1 = -p02, x2 = p01 term by term; the normalized result is
    the degree-d equation of the image.  On P^2 the p_ij satisfy no Plucker
    relation, so this p-form is the unique one; it differs from the Chow
    form's only by the lam^(2d) scale and sign of
    :func:`contraction_resultant`, which normalization removes.  Raises
    :class:`NotBirational` when :func:`~chowforms.oracle.check_curve`
    rejects the parametrization.
    """
    if f.n != 2:
        raise ValueError("implicitization needs a plane curve (n = 2)")
    report = check_curve(f)
    if not report.birational:
        raise NotBirational(report)
    pform = det_expand(bezout_pform(f.components))
    # Exponents of p01, p02, p12 (the _pair_vars(3) order) become those of
    # x2, x1, x0; x1 = -p02 contributes the sign.
    image = {(c, b, a): -x if b % 2 else x for (a, b, c), x in pform.terms.items()}
    _, q = content_primitive(MPoly(("x0", "x1", "x2"), image))
    return q
