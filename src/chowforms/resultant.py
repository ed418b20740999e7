"""Bezout and Sylvester matrices of equal-degree binary forms, and exact
determinants.

The production route to a Chow form (:func:`chowforms.chow.contraction_resultant`)
takes the determinant of a weighted sum of the d x d Bezout matrices from
:func:`bezout`, by :func:`det_expand`: first-row expansion with memoized
minors, division-free, so it needs only ring operations on the entries.

The Sylvester route is kept as the independent cross-check.  It has two
determinant backends.  :func:`resultant` uses the Laplace split along the
top block of the Sylvester matrix: a signed sum over column subsets of
products of two d x d minors, built from the same memoized minors.
Fraction-free Bareiss elimination handles any square matrix with exact
entries and is the second, independent backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Callable, Optional, Sequence, Union

from .polynomial import BinaryForm, MPoly

Entry = Union[Fraction, MPoly]

__all__ = [
    "SylvesterMatrix",
    "sylvester",
    "bezout",
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
    """Build the Sylvester matrix; both forms must share a degree d >= 1."""
    d = _common_degree(h1, h2)
    c1, c2 = _join_coeffs(h1, h2)
    zero = _zero_like(c1 + c2)
    rows = []
    for block in (c1, c2):
        for i in range(d):
            row = [zero] * (2 * d)
            for j, c in enumerate(block):
                row[i + j] = c
            rows.append(tuple(row))
    return SylvesterMatrix(d, tuple(rows))


def bezout(h1: BinaryForm, h2: BinaryForm) -> tuple[tuple[Entry, ...], ...]:
    """d x d Bezout matrix of two forms sharing a degree d >= 1.

    With t = z1/z0, entry [i][j] is the coefficient of s^i t^j in
    (h1(s) h2(t) - h1(t) h2(s)) / (s - t).  The matrix is bilinear and
    alternating in (h1, h2), and its determinant is
    (-1)^(d(d+1)/2) * resultant(h1, h2).
    """
    d = _common_degree(h1, h2)
    a, b = _join_coeffs(h1, h2)
    # c[p][q]: coefficient of s^p t^q in h1(s) h2(t) - h1(t) h2(s).
    c = [[a[p] * b[q] - a[q] * b[p] for q in range(d + 1)] for p in range(d + 1)]
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = c[i + 1][j]
            for k in range(1, min(j, d - 1 - i) + 1):
                acc = acc + c[i + 1 + k][j - k]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def _common_degree(h1: BinaryForm, h2: BinaryForm) -> int:
    d = h1.degree
    if h2.degree != d:
        raise ValueError("forms must have equal degrees")
    if d < 1:
        raise ValueError("degree must be at least 1")
    return d


def _join_coeffs(h1: BinaryForm, h2: BinaryForm) -> tuple[list[Entry], list[Entry]]:
    """Coerce both coefficient lists into one common ring."""
    names = None
    for c in h1.coeffs + h2.coeffs:
        if isinstance(c, MPoly):
            if names is None:
                names = c.names
            elif c.names != names:
                raise ValueError("forms use different coefficient rings")
    if names is None:
        return list(h1.coeffs), list(h2.coeffs)
    lift = lambda c: c if isinstance(c, MPoly) else MPoly.const(names, c)
    return [lift(c) for c in h1.coeffs], [lift(c) for c in h2.coeffs]


def _zero_like(entries: Sequence[Entry]) -> Entry:
    for c in entries:
        if isinstance(c, MPoly):
            return MPoly.zero(c.names)
    return Fraction(0)


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
    singular matrices return 0.
    """
    A = _rows(M)
    n = len(A)
    zero = _zero_like([x for row in A for x in row])
    sign = 1
    prev: Entry = Fraction(1)
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if A[r][k]), None)
        if pivot_row is None:
            return zero
        if pivot_row != k:
            A[k], A[pivot_row] = A[pivot_row], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = _exact_div(A[i][j] * A[k][k] - A[i][k] * A[k][j], prev)
            A[i][k] = zero
        prev = A[k][k]
    det = A[n - 1][n - 1] if n else prev
    return -det if sign < 0 else det


def _minors(block: list[list[Entry]], zero: Entry, reduce: Optional[Callable] = None):
    """Memoized minors of the last rows of a block, keyed by column tuple.

    ``minors(cols)`` is the determinant of the last len(cols) rows restricted
    to ``cols``, by expansion along the first of those rows.  Subsets share
    their sub-minors, so all minors of a k-row block cost at most one
    product per (subset, column) pair, and no entry is ever divided.
    ``reduce``, when given, is applied to every minor as it is memoized.

    The recursion goes through the module-level :func:`_minor` rather than
    a closure that calls itself: such a closure is a reference cycle, which
    would keep every memoized minor alive until the cyclic garbage collector
    runs.
    """
    return partial(_minor, block, zero, reduce, {(): Fraction(1)})


def _minor(
    block: list[list[Entry]], zero: Entry, reduce: Optional[Callable], memo: dict, cols: tuple[int, ...]
) -> Entry:
    val = memo.get(cols)
    if val is not None:
        return val
    row = len(block) - len(cols)
    acc = None
    for idx, c in enumerate(cols):
        entry = block[row][c]
        if not entry:
            continue
        sub = _minor(block, zero, reduce, memo, cols[:idx] + cols[idx + 1 :])
        if not sub:
            continue
        term = entry * sub
        if idx % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is not None and reduce is not None:
        acc = reduce(acc)
    val = zero if acc is None else acc
    memo[cols] = val
    return val


def det_expand(M, reduce: Optional[Callable[[Entry], Entry]] = None) -> Entry:
    """Exact, division-free determinant by memoized first-row expansion.

    Costs one product per (column subset, column) pair, 2^n subsets in all,
    so it suits small matrices over polynomial rings where Bareiss would
    need exact polynomial division.

    ``reduce``, when given, must be a ring homomorphism, such as dropping
    every term of degree >= K in one variable (reduction modulo x^K).  It
    is applied to every entry and to every memoized minor, so the result
    is exactly ``reduce(det M)`` while no intermediate minor grows past it.
    """
    A = _rows(M)
    if reduce is not None:
        A = [[reduce(x) for x in row] for row in A]
    zero = _zero_like([x for row in A for x in row])
    return _minors(A, zero, reduce)(tuple(range(len(A))))


def det_laplace_split(M) -> Entry:
    """Determinant via Laplace expansion along the first half of the rows.

    det = sum over d-column subsets S of
          (-1)^(sum(S) + d(d-1)/2) * minor(top, S) * minor(bottom, S^c).

    Minors are computed by first-row expansion with shared memoization
    across subsets, so the whole sum costs far less than C(2d, d)
    independent determinants.
    """
    A = _rows(M)
    n = len(A)
    if n % 2:
        raise ValueError("split expansion needs an even-sized matrix")
    d = n // 2
    zero = _zero_like([x for row in A for x in row])
    minor_top = _minors(A[:d], zero)
    minor_bottom = _minors(A[d:], zero)
    base_sign = (d * (d - 1) // 2) % 2
    acc = None
    cols = range(n)
    for S in combinations(cols, d):
        t = minor_top(S)
        if not t:
            continue
        comp = tuple(c for c in cols if c not in set(S))
        b = minor_bottom(comp)
        if not b:
            continue
        term = t * b
        if (sum(S) + base_sign) % 2:
            term = -term
        acc = term if acc is None else acc + term
    return zero if acc is None else acc


def resultant(h1: BinaryForm, h2: BinaryForm) -> Entry:
    """Resultant of two degree-d binary forms: the Sylvester determinant by
    the Laplace split.  A cross-check: no production path calls it."""
    return det_laplace_split(sylvester(h1, h2))
