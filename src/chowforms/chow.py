"""Chow forms of rational curves via resultants of contracted binary forms.

Contracting a curve map f against two covector blocks gives two degree-d
binary forms h1 = sum_i u_i f_i and h2 = sum_i v_i f_i; their resultant is
a bidegree-(d, d) polynomial in (u, v) that vanishes exactly on the planes
meeting the image curve.  That biform is the curve's Chow (Cayley) form, up
to scalar; it depends on the covectors only through the wedge u ^ v, so it
also admits a rewrite into Plucker coordinates p_ij = u_i v_j - u_j v_i.

The production route uses that dependence directly.  The Bezout matrix is
bilinear and alternating, so Bez(h1, h2) = sum_{k<l} p_kl Bez(f_k, f_l), a
d x d matrix whose entries are linear in the p_kl with numeric (or Q[eps])
coefficients.  Its determinant, expanded back into (u, v), is the resultant
up to a sign fixed by d; the 2d x 2d Sylvester determinant over the u- and
v-variables is never formed.  The Sylvester backends in
:mod:`chowforms.resultant` remain as cross-checks.

Biform coefficient tables are a faithful, canonical encoding: two curves
have the same image exactly when their normalized biforms agree, which is
why all projective comparisons happen on biforms rather than on Plucker
representatives (those are unique only modulo Plucker relations once
n >= 3 and d >= 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

from .curves import CurveMap, Plane
from .oracle import check_curve
from .polynomial import BinaryForm, MPoly, ScalarLike, content_primitive, rational
from .resultant import bezout, det_expand

__all__ = [
    "uv_names",
    "CayleyBiform",
    "PluckerRep",
    "cayley_biform",
    "contraction_resultant",
    "bezout_pform",
    "wedge_env",
    "incident",
    "plucker_rewrite",
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

    @property
    def has_eps(self) -> bool:
        return self.poly.names[-1] == EPS

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def eval(self, u: Sequence[ScalarLike], v: Sequence[ScalarLike]):
        """Value at numeric covectors, or a poly in eps for an eps biform.

        A numeric value comes in coefficient normal form (see
        :func:`~chowforms.polynomial.rational`): an ``int`` when integral,
        else a ``Fraction``.  Integer covectors against an integer biform
        are evaluated over Z throughout.  Entries must be exact rationals
        (int or Fraction); anything else raises TypeError.
        """
        if len(u) != self.n + 1 or len(v) != self.n + 1:
            raise ValueError(f"covectors must have length {self.n + 1}")
        env: dict[str, object] = {}
        for i in range(self.n + 1):
            env[f"u{i}"] = rational(u[i])
            env[f"v{i}"] = rational(v[i])
        if self.has_eps:
            env[EPS] = MPoly.var((EPS,), EPS)
            return self.poly.evaluate(env, one=MPoly.const((EPS,), 1))
        return rational(self.poly.evaluate(env))

    def normalized(self) -> "CayleyBiform":
        """Primitive integer coefficients, positive graded-lex leading term."""
        if self.is_zero:
            raise ValueError("cannot normalize the zero biform")
        _, q = content_primitive(self.poly)
        return CayleyBiform(self.n, self.d, q)

    def specialize_eps(self, value: ScalarLike) -> "CayleyBiform":
        if not self.has_eps:
            raise ValueError("biform carries no eps")
        val = rational(value)
        parts = self.poly.decompose(EPS)
        acc = MPoly.zero(uv_names(self.n))
        for k, c in parts.items():
            acc = acc + c * val**k
        return CayleyBiform(self.n, self.d, acc)

    def __mul__(self, other):
        if not isinstance(other, CayleyBiform):
            return NotImplemented
        if other.n != self.n or self.has_eps or other.has_eps:
            raise ValueError("can only multiply eps-free biforms on one P^n")
        return CayleyBiform(self.n, self.d + other.d, self.poly * other.poly)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 1:
            raise ValueError("exponent must be a positive integer")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out


def contraction_resultant(forms: Sequence[BinaryForm], names: tuple[str, ...]) -> MPoly:
    """Resultant of sum_i u_i f_i against sum_i v_i f_i over the given ring.

    The ring ``names`` is the u-block and the v-block, one variable per
    form each, then any coefficient variables (such as eps); MPoly
    coefficients of the forms live in it and involve only the coefficient
    variables.  The result equals the Sylvester resultant exactly, sign
    included.  It is computed as the determinant of :func:`bezout_pform`
    over the ring of the p_kl and the coefficient variables, with
    p_kl -> u_k v_l - u_l v_k substituted at the end.  Raises ValueError
    unless the forms share one degree d >= 1.

    The determinant runs over Z: :func:`bezout_pform` scales every form by
    the lcm lam of all coefficient denominators, which multiplies the
    resultant by lam^(2d), and the result is divided by lam^(2d) at the end.
    """
    m = len(forms)
    coeff_vars = names[2 * m :]
    weighted, lam = bezout_pform(forms, coeff_vars)
    d = len(weighted)
    env = wedge_env(m, names)
    env.update((x, MPoly.var(names, x)) for x in coeff_vars)
    out = det_expand(weighted).evaluate(env, one=MPoly.const(names, 1))
    if lam != 1:
        out = out * Fraction(1, lam ** (2 * d))
    # det Bez(h1, h2) = (-1)^(d(d+1)/2) * Res(h1, h2).
    return -out if (d * (d + 1) // 2) % 2 else out


@lru_cache(maxsize=None)
def _pair_vars(m: int) -> tuple[tuple[tuple[int, int], str], ...]:
    # Internal names only: "p{k},{l}" stays unambiguous for every m.
    return tuple(((k, l), f"p{k},{l}") for k, l in combinations(range(m), 2))


def bezout_pform(
    forms: Sequence[BinaryForm], coeff_vars: tuple[str, ...]
) -> tuple[list[list[MPoly]], int]:
    """The d x d matrix sum_{k<l} p_kl Bez(lam f_k, lam f_l), and lam.

    lam is the lcm of every coefficient denominator, so the entries have
    integer coefficients.  They live in the ring of the pair variables p_kl
    followed by ``coeff_vars``; MPoly coefficients of the forms may involve
    only ``coeff_vars``.  The determinant, with p_kl -> u_k v_l - u_l v_k
    substituted by :func:`wedge_env`, is
    (-1)^(d(d+1)/2) * lam^(2d) * Res(sum_i u_i f_i, sum_i v_i f_i).
    Raises ValueError unless the forms share one degree d >= 1.
    """
    d = forms[0].degree
    if any(h.degree != d for h in forms):
        raise ValueError("forms must have equal degrees")
    if d < 1:
        raise ValueError("degree must be at least 1")
    lam = _denominator_lcm(forms)
    if lam != 1:
        forms = [h * lam for h in forms]
    pairs = _pair_vars(len(forms))
    ring = tuple(p for _, p in pairs) + coeff_vars
    weighted = [[MPoly.zero(ring)] * d for _ in range(d)]
    for (k, l), p in pairs:
        w = MPoly.var(ring, p)
        for i, row in enumerate(bezout(forms[k], forms[l])):
            for j, c in enumerate(row):
                if c:
                    if isinstance(c, MPoly):
                        c = c.restrict(coeff_vars).embed(ring)
                    weighted[i][j] = weighted[i][j] + w * c
    return weighted, lam


def wedge_env(m: int, names: tuple[str, ...]) -> dict[str, MPoly]:
    """Substitution p_kl -> u_k v_l - u_l v_k, into the ring ``names``, for
    the pair variables of :func:`bezout_pform` on m forms."""
    return {p: _wedge_coord(names, k, l) for (k, l), p in _pair_vars(m)}


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
    return CayleyBiform(f.n, f.d, contraction_resultant(f.components, uv_names(f.n)))


def incident(ca: CayleyBiform, plane: Plane) -> bool:
    """True iff the plane meets the curve, i.e. the biform vanishes on it."""
    if ca.is_zero:
        raise ValueError("degenerate Cayley form")
    if ca.has_eps:
        raise ValueError("incidence needs a numeric biform")
    return ca.eval(plane.u, plane.v) == 0


def proportional(a: CayleyBiform, b: CayleyBiform) -> bool:
    """Projective equality of biforms by exact cross-multiplication."""
    if a.n != b.n or a.d != b.d:
        raise ValueError("biforms must share (n, d)")
    if a.is_zero and b.is_zero:
        raise ValueError("proportionality of zero biforms")
    if a.is_zero or b.is_zero:
        return False
    return a.poly * b.poly.leading_coeff() == b.poly * a.poly.leading_coeff()


# -- Plucker coordinates -----------------------------------------------------


@dataclass(frozen=True)
class PluckerRep:
    """Degree-d polynomial in p_ij with p_ij -> u_i v_j - u_j v_i expanding
    back to the source biform exactly.

    The representative is canonical only when no Plucker relations exist
    (n = 2, or d = 1); otherwise it is the deterministic reduced-echelon
    solution with free coordinates set to zero.
    """

    n: int
    d: int
    poly: MPoly
    canonical: bool

    def expand(self) -> CayleyBiform:
        names = uv_names(self.n)
        env = {
            f"p{i}{j}": _wedge_coord(names, i, j)
            for i in range(self.n + 1)
            for j in range(i + 1, self.n + 1)
        }
        return CayleyBiform(self.n, self.d, self.poly.evaluate(env, one=MPoly.const(names, 1)))


def _wedge_coord(names: tuple[str, ...], i: int, j: int) -> MPoly:
    ui, vj = MPoly.var(names, f"u{i}"), MPoly.var(names, f"v{j}")
    uj, vi = MPoly.var(names, f"u{j}"), MPoly.var(names, f"v{i}")
    return ui * vj - uj * vi


def plucker_names(n: int) -> tuple[str, ...]:
    if n > 9:
        raise ValueError("p_ij naming supports n <= 9")
    return tuple(f"p{i}{j}" for i in range(n + 1) for j in range(i + 1, n + 1))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def depends_only_on_wedge(ca: CayleyBiform) -> bool:
    """Check the two identities forcing the biform to factor through u ^ v:
    invariance under v -> v + lam*u and swap symmetry with sign (-1)^(d*d).
    """
    if ca.has_eps:
        raise ValueError("wedge check needs an eps-free biform")
    names = ca.poly.names
    ext = names + ("lam",)
    lam = MPoly.var(ext, "lam")
    shift = {
        f"v{i}": MPoly.var(ext, f"v{i}") + lam * MPoly.var(ext, f"u{i}")
        for i in range(ca.n + 1)
    }
    lifted = ca.poly.embed(ext)
    if lifted.subs(shift) != lifted:
        return False
    swap = {}
    for i in range(ca.n + 1):
        swap[f"u{i}"] = MPoly.var(names, f"v{i}")
        swap[f"v{i}"] = MPoly.var(names, f"u{i}")
    sign = -1 if (ca.d * ca.d) % 2 else 1
    return ca.poly.subs(swap) == sign * ca.poly


def plucker_rewrite(ca: CayleyBiform) -> PluckerRep:
    """Rewrite a biform as a polynomial in the coordinates p_ij.

    Builds the exact linear system sending degree-d monomials in the p_ij
    to (u, v)-monomials and extracts the reduced-echelon solution, pivoting
    on p-monomials in descending graded-lex order with free monomials set
    to zero.  A biform that is not a function of the wedge makes the system
    inconsistent and raises ValueError; the exact round-trip through
    :meth:`PluckerRep.expand` proves every accepted answer.
    """
    if ca.has_eps:
        raise ValueError("plucker rewrite needs an eps-free biform")
    pnames = plucker_names(ca.n)
    uv = uv_names(ca.n)
    if ca.is_zero:
        return PluckerRep(ca.n, ca.d, MPoly.zero(pnames), ca.n == 2 or ca.d == 1)
    base = [
        _wedge_coord(uv, i, j)
        for i in range(ca.n + 1)
        for j in range(i + 1, ca.n + 1)
    ]
    pow_cache = []
    for poly in base:
        table = [MPoly.const(uv, 1)]
        for _ in range(ca.d):
            table.append(table[-1] * poly)
        pow_cache.append(table)
    monos = list(_compositions(ca.d, len(pnames)))
    cols = []
    for exps in monos:
        poly = MPoly.const(uv, 1)
        for k, e in enumerate(exps):
            if e:
                poly = poly * pow_cache[k][e]
        cols.append(poly)
    row_keys = set(ca.poly.terms)
    for c in cols:
        row_keys.update(c.terms)
    row_keys = sorted(row_keys)
    # The columns are integral; clearing the biform's denominators into the
    # right-hand side keeps the whole system over Z.
    mu = math.lcm(*(c.denominator for c in ca.poly.terms.values()))
    A = [
        [c.terms.get(rk, 0) for c in cols] + [int(ca.poly.terms.get(rk, 0) * mu)]
        for rk in row_keys
    ]
    x = _rref_solve(A, len(cols))
    if x is None:
        raise ValueError("not a function of u wedge v")
    rep = MPoly(pnames, {m: c / mu for m, c in zip(monos, x) if c})
    out = PluckerRep(ca.n, ca.d, rep, ca.n == 2 or ca.d == 1)
    if out.expand().poly != ca.poly:
        raise RuntimeError("plucker rewrite failed to round-trip")
    return out


def _rref_solve(A: list[list[int]], ncols: int) -> Optional[list[Fraction]]:
    """Reduced echelon solve of the integer system [A | b]; free variables
    pinned to zero.

    Fraction-free Gauss-Jordan: columns in order, the first row with a
    nonzero entry pivots, and every other row r becomes
    pv * r - r[c] * pivot_row divided by its content.  Each row stays a
    nonzero multiple of the row rational elimination would hold, so the
    pivots and the solution are the same; the only divisions come when the
    solution is read off.
    """
    nrows = len(A)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        prow = A[r]
        pv = prow[c]
        for i in range(nrows):
            factor = A[i][c]
            if i != r and factor:
                row = [pv * x - factor * y for x, y in zip(A[i], prow)]
                g = math.gcd(*row)
                A[i] = [x // g for x in row] if g > 1 else row
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if A[i][ncols] and not any(A[i][c] for c in range(ncols)):
            return None
    x = [Fraction(0)] * ncols
    for row, col in pivots:
        x[col] = Fraction(A[row][ncols], A[row][col])
    return x


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


def implicitize_plane_curve(f: CurveMap, rng=None) -> MPoly:
    """Implicit equation of a birationally parametrized plane curve.

    Rewrites the Chow form in p_ij and applies the P^2 duality
    x0 = p12, x1 = -p02, x2 = p01; the normalized result is the degree-d
    equation of the image.  Raises :class:`NotBirational` when
    :func:`~chowforms.oracle.check_curve` rejects the parametrization.
    """
    if f.n != 2:
        raise ValueError("implicitization needs a plane curve (n = 2)")
    report = check_curve(f, rng=rng)
    if not report.birational:
        raise NotBirational(report)
    rep = plucker_rewrite(cayley_biform(f))
    xnames = ("x0", "x1", "x2")
    env = {
        "p12": MPoly.var(xnames, "x0"),
        "p02": -MPoly.var(xnames, "x1"),
        "p01": MPoly.var(xnames, "x2"),
    }
    image = rep.poly.evaluate(env, one=MPoly.const(xnames, 1))
    _, q = content_primitive(image)
    return q
