"""Bezout and Sylvester matrices of equal-degree binary forms, and exact
determinants.

The production route to a Chow form (:func:`chowforms.chow.contraction_resultant`)
takes the determinant of a weighted sum of the d x d Bezout matrices from
:func:`bezoutian`, by :func:`det_expand`: minor expansion built bottom-up,
row by row, from the nonzero minors of the rows below, division-free, so
it needs only ring operations on the entries.
:func:`bezoutian` is the one Bezoutian recurrence.  On that route it runs
on Python ints: :func:`~chowforms.chow.bezout_pform` hands it each
coefficient, in Q or Q[eps], as one int, a polynomial in eps by Kronecker
substitution, and reads the entries back into term dicts; :func:`bezout`
runs it on the coefficients as given, over any one ring.
The minors run on packed monomials: each entry becomes, once, one map
from the packed exponents of every variable of its ring
(:func:`~chowforms.polynomial.pack`) to coefficients, and the result is
unpacked once.  The kernel gives eps no role of its own: a family
determinant carries eps in Kronecker slots of its coefficients
(:mod:`chowforms.degeneration`), so its matrix reaches the kernel
eps-free.

The Sylvester route is kept as the independent cross-check.  It has two
determinant backends.  :func:`resultant` uses the Laplace split along the
top block of the Sylvester matrix: a signed sum over column subsets of
products of two d x d minors, taken from the same packed minor kernel.
Fraction-free Bareiss elimination handles any square matrix with exact
entries and is the second, independent backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .polynomial import BinaryForm, MPoly, ScalarLike, field_bytes, form_ring, pack, rational, unpack

Entry = Union[ScalarLike, MPoly]

__all__ = [
    "SylvesterMatrix",
    "sylvester",
    "bezout",
    "bezoutian",
    "det_bareiss",
    "det_expand",
    "det_laplace_split",
    "resultant",
]


def _exact_div(num: Entry, den: Entry) -> Entry:
    # A nonconstant MPoly pivot multiplies every later entry, so a numeric
    # numerator only meets a numeric or constant divisor.
    if isinstance(den, MPoly) and den.is_constant:
        den = den.constant_value()
    return num / den


@dataclass(frozen=True)
class SylvesterMatrix:
    """2d x 2d Sylvester matrix of two degree-d binary forms.

    Row i (0 <= i < d) carries the d+1 coefficients of the first form in
    columns i..i+d; rows d..2d-1 repeat the pattern for the second form.
    """

    d: int
    entries: tuple[tuple[Entry, ...], ...]

    @property
    def size(self) -> int:
        return 2 * self.d


def sylvester(h1: BinaryForm, h2: BinaryForm) -> SylvesterMatrix:
    """Build the Sylvester matrix; both forms must share a degree d >= 1 and
    a coefficient ring.  Numbers are lifted into that ring, so Bareiss never
    divides a number by a polynomial pivot."""
    d, ring = form_ring((h1, h2))
    zero = MPoly.zero(ring) if ring else 0
    rows = []
    for h in (h1, h2):
        block = [MPoly.const(ring, c) if ring and not isinstance(c, MPoly) else c for c in h.coeffs]
        for i in range(d):
            row = [zero] * (2 * d)
            row[i : i + d + 1] = block
            rows.append(tuple(row))
    return SylvesterMatrix(d, tuple(rows))


def bezout(h1: BinaryForm, h2: BinaryForm) -> tuple[tuple[Entry, ...], ...]:
    """d x d Bezout matrix of two forms sharing a degree d >= 1 and a
    coefficient ring: :func:`bezoutian` of their coefficients, after
    :func:`~chowforms.polynomial.form_ring` has checked the pair.

    With t = z1/z0, entry [i][j] is the coefficient of s^i t^j in
    (h1(s) h2(t) - h1(t) h2(s)) / (s - t).  The matrix is bilinear and
    alternating in (h1, h2), and its determinant is
    (-1)^(d(d+1)/2) * resultant(h1, h2).
    """
    form_ring((h1, h2))
    return bezoutian(h1.coeffs, h2.coeffs)


def bezoutian(a: Sequence[Entry], b: Sequence[Entry]) -> tuple[tuple[Entry, ...], ...]:
    """The Bezout matrix of :func:`bezout` from the coefficient lists a and
    b of two forms (a[p] at t^p), with no check of its own.

    Precondition: a and b share a length d + 1 >= 2, and their MPoly
    entries share one ring, as for the coefficient tuples of forms that
    pass :func:`~chowforms.polynomial.form_ring`.  The coefficients are
    used as given, so an entry is a number where every coefficient it
    reads is one; :func:`~chowforms.chow.bezout_pform` passes ints that
    encode polynomials (Kronecker substitution), which the recurrence
    treats as numbers.

    With the minor c(p, q) = a[p] b[q] - a[q] b[p], the entries follow the
    Bezoutian recurrence B[i][j] = c(i+1, j) + B[i+1][j-1], with
    B[d][.] = B[.][-1] = 0.  The rows are filled from the bottom, so each
    entry costs one minor and at most one addition: d^2 minors and
    (d-1)^2 additions in all.
    """
    d = len(a) - 1
    B: list[tuple[Entry, ...]] = [()] * d
    for i in range(d - 1, -1, -1):
        row = [a[i + 1] * b[j] - a[j] * b[i + 1] for j in range(d)]
        if i < d - 1:
            row[1:] = [c + x for c, x in zip(row[1:], B[i + 1])]
        B[i] = tuple(row)
    return tuple(B)


def _zero_like(entries: Sequence[Entry]) -> Entry:
    for c in entries:
        if isinstance(c, MPoly):
            return MPoly.zero(c.names)
    return 0


def _rows(M) -> list[list[Entry]]:
    if isinstance(M, SylvesterMatrix):
        M = M.entries
    rows = [list(r) for r in M]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    return rows


def det_bareiss(M) -> Entry:
    """Exact determinant by fraction-free Bareiss elimination.

    Every division against the previous pivot is exact (Sylvester's
    identity), so entries stay in the coefficient ring throughout.  Pivot
    choice is the first row with a nonzero candidate, in column order;
    singular matrices return 0.  A matrix of numbers gives a number in
    coefficient normal form, as :func:`det_expand` does.
    """
    A = _rows(M)
    n = len(A)
    zero = _zero_like([x for row in A for x in row])
    sign = 1
    prev: Entry = Fraction(1)
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if A[r][k]), None)
        if pivot_row is None:
            det = zero
            break
        if pivot_row != k:
            A[k], A[pivot_row] = A[pivot_row], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = _exact_div(A[i][j] * A[k][k] - A[i][k] * A[k][j], prev)
            A[i][k] = zero
        prev = A[k][k]
    else:
        det = A[n - 1][n - 1] if n else prev
    det = -det if sign < 0 else det
    return det if isinstance(det, MPoly) else rational(det)


# -- packed minor kernel ---------------------------------------------------------


def _pack_matrix(A: list[list[Entry]]):
    """Packed rows of a square matrix, with what :func:`_unpacked` needs.

    An entry is packed into one map {key: c}: key packs the exponents of
    every variable of the ring (:func:`~chowforms.polynomial.pack`) and c
    is a nonzero rational; a number is the constant monomial {0: c}.
    Returns (rows, names, w): names is the ring of the MPoly entries, or
    None when every entry is a number; w is the field width, from the
    matrix order times the largest exponent of any variable, so that no
    minor's field carries.
    """
    polys = [x for row in A for x in row if isinstance(x, MPoly)]
    names = polys[0].names if polys else None
    if any(x.names != names for x in polys):
        raise ValueError("matrix entries come from different rings")
    top = max((e for x in polys for exps in x.terms for e in exps), default=0)
    w = field_bytes(len(A) * top)

    def packed(x: Entry) -> dict:
        if not isinstance(x, MPoly):
            return {0: x} if x else {}
        return {pack(exps, w): c for exps, c in x.terms.items()}

    return [[packed(x) for x in row] for row in A], names, w


def _unpacked(p: dict, names: Optional[tuple[str, ...]], w: int) -> Entry:
    """A packed polynomial as an MPoly of ``names``, or as a number in the
    normal form of :func:`~chowforms.polynomial.rational` when names is None."""
    if names is None:
        return rational(p[0]) if p else 0
    nv = len(names)
    return MPoly._trusted(names, {unpack(key, nv, w): c if type(c) is int else rational(c) for key, c in p.items()})


def _addmul(acc: dict, a: dict, b: dict, negate: bool) -> None:
    """acc += (-1)^negate * a * b."""
    get = acc.get
    for ma, ca in a.items():
        if negate:
            ca = -ca
        for mb, cb in b.items():
            m = ma + mb
            acc[m] = get(m, 0) + ca * cb


def _cleaned(acc: dict) -> dict:
    """A packed sum without its zero coefficients."""
    return {m: c for m, c in acc.items() if c}


def _minors(block: list[list[dict]]) -> dict:
    """Every nonzero maximal minor of a packed k x n block, keyed by column
    bitmask: ``{cols: minor}`` over the k-column sets ``cols``.

    Built bottom-up, one level per row, from ``{0: {0: 1}}``: each nonzero
    minor of the rows below expands against each nonzero entry of the row
    above, in a column the minor does not use, with the sign of that
    column's position in the new set.  Only the nonzero minors of one level
    are expanded, only two levels are alive at once, and no entry is ever
    divided.
    """
    level: dict = {0: {0: 1}}
    for row in reversed(block):
        entries = [(1 << j, e) for j, e in enumerate(row) if e]
        sums: dict = {}
        for cols, sub in level.items():
            for bit, entry in entries:
                if not cols & bit:
                    _addmul(sums.setdefault(cols | bit, {}), entry, sub, (cols & (bit - 1)).bit_count() % 2)
        del level  # free the level below before this one is cleaned
        level = {cols: m for cols, acc in sums.items() if (m := _cleaned(acc))}
    return level


def det_expand(M) -> Entry:
    """Exact, division-free determinant by minor expansion.

    The minors of :func:`_minors` cost one product per pair of a nonzero
    minor and a nonzero entry in a free column, at most 2^n column sets in
    all, so it suits small matrices over polynomial rings where Bareiss
    would need exact polynomial division.  Every entry is packed once (see
    :func:`_pack_matrix`) and the result is unpacked once; a matrix of
    numbers gives a number.
    """
    A = _rows(M)
    rows, names, w = _pack_matrix(A)
    return _unpacked(_minors(rows).get((1 << len(A)) - 1, {}), names, w)


def det_laplace_split(M) -> Entry:
    """Determinant via Laplace expansion along the first half of the rows.

    det = sum over d-column subsets S of
          (-1)^(sum(S) + d(d-1)/2) * minor(top, S) * minor(bottom, S^c).

    Both blocks' minors come from :func:`_minors`, the kernel of
    :func:`det_expand`; the sum runs over the top block's nonzero minors
    and looks up each complement among the bottom block's.
    """
    A = _rows(M)
    n = len(A)
    if n % 2:
        raise ValueError("split expansion needs an even-sized matrix")
    d = n // 2
    rows, names, w = _pack_matrix(A)
    bottom = _minors(rows[d:])
    base_sign = d * (d - 1) // 2
    full = (1 << n) - 1
    acc: dict = {}
    for cols, t in _minors(rows[:d]).items():
        b = bottom.get(full ^ cols)
        if b:
            _addmul(acc, t, b, (sum(j for j in range(n) if cols >> j & 1) + base_sign) % 2)
    return _unpacked(_cleaned(acc), names, w)


def resultant(h1: BinaryForm, h2: BinaryForm) -> Entry:
    """Resultant of two degree-d binary forms: the Sylvester determinant by
    the Laplace split.  A cross-check: no production path calls it."""
    return det_laplace_split(sylvester(h1, h2))
