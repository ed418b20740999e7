"""Exact sparse multivariate polynomials and homogeneous binary forms.

All arithmetic is exact over the rationals, so every comparison in the
package is an exact identity.

An :class:`MPoly` maps exponent tuples (one slot per variable of its ring)
to nonzero coefficients; the ring is fixed by the tuple of variable names.
Its coefficients are stored in one normal form, the one :func:`rational`
returns: a Python ``int`` when the value is integral, a
``fractions.Fraction`` otherwise.  Polynomials over Z therefore never touch
``Fraction`` arithmetic, and queries that hand single coefficients to
callers (:meth:`MPoly.constant_value`, :meth:`MPoly.leading_term`,
:meth:`MPoly.leading_coeff`) return ``Fraction``, so true division on them
stays exact.

The monomial order used everywhere (leading terms, sign normalization,
serialized output) is graded lexicographic: higher total degree first, ties
broken by comparing exponent tuples left to right, first declared variable
most significant.

Every writer prints a :class:`PackedTerms`: a polynomial's terms in that
order, each monomial packed into one int (:func:`pack`).  The wedge kernel
of :mod:`chowforms.chow` hands over its packed keys as it sorts them, and
any other MPoly is packed by :meth:`PackedTerms.of`; :func:`format_terms`
and the CLI's writers read them with no exponent tuple built per term.

A :class:`BinaryForm` is a homogeneous form of declared degree ``d`` in the
two parameters ``(z0, z1)``, stored densely: ``coeffs[j]`` multiplies
``z0**(d-j) * z1**j``.  Coefficients are either numbers in the same normal
form as :class:`MPoly` coefficients, an ``int`` when integral and a
``Fraction`` otherwise (numeric forms), or :class:`MPoly` values (forms
whose coefficients carry covector variables); one code path serves both.
Numeric forms over Z, the gcd oracle's and the map-degree certificate's, thus
run in integer arithmetic.

Values are immutable after construction and all operations are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import accumulate
from operator import add as _add
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

ScalarLike = Union[int, Fraction]

__all__ = [
    "MPoly",
    "BinaryForm",
    "content_primitive",
    "contract",
    "form_ring",
    "poly_divides",
    "form_gcd",
    "form_gcd_all",
    "format_terms",
    "PackedTerms",
    "parse_rational",
    "parse_terms",
    "rational",
    "field_bytes",
    "pack",
    "unpack",
]


def rational(x: ScalarLike) -> ScalarLike:
    """The exact rational x in coefficient normal form: an ``int`` when
    integral, else a ``Fraction``.

    Only ``int`` and ``Fraction`` are exact rationals here; anything else
    (floats, strings, bools) raises TypeError instead of being coerced.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _normal_terms(terms: dict) -> dict:
    """Copy of an arithmetic result's terms in normal form: zero
    coefficients dropped, integral ``Fraction`` values turned into ``int``."""
    return {
        e: c.numerator if type(c) is not int and c.denominator == 1 else c
        for e, c in terms.items()
        if c
    }


def _power(x, k: int, one):
    """x**k by repeated squaring, with ``one`` the identity of x's ring."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while k:
        if k & 1:
            result = result * x
        x = x * x if k > 1 else x
        k >>= 1
    return result


def _grlex_key(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exps), exps)


def _mixed_degrees(keys) -> bool:
    """True when the exponent tuples have more than one total degree.
    Among tuples of one total degree lex order is graded-lex order, so a
    homogeneous polynomial needs no total-degree key to sort or to find
    its lead."""
    return len(set(map(sum, keys))) > 1


def _grlex_max(keys) -> tuple[int, ...]:
    """The greatest of a nonempty collection of exponent tuples in
    graded-lex order."""
    return max(keys, key=_grlex_key) if _mixed_degrees(keys) else max(keys)


class MPoly:
    """Sparse multivariate polynomial over Q with a named variable ring.

    Coefficients are ``int`` when integral and ``Fraction`` otherwise (see
    :func:`rational`); the constructor validates and normalizes its input,
    while arithmetic builds results through :meth:`_trusted`.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names: Iterable[str], terms: Optional[Mapping] = None):
        names = tuple(names)
        clean: dict[tuple[int, ...], ScalarLike] = {}
        if terms:
            for exps, c in terms.items():
                c = rational(c)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != len(names):
                    raise ValueError("exponent arity does not match variable count")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                clean[exps] = c
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def _trusted(cls, names: tuple[str, ...], terms: dict) -> "MPoly":
        """Wrap ``terms`` without checks.  The caller guarantees what
        ``__init__`` would enforce: ``names`` is a tuple, every key an
        exponent tuple of its arity, every value nonzero and in normal form;
        ``terms`` is not shared."""
        p = object.__new__(cls)
        object.__setattr__(p, "names", names)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, names: Iterable[str]) -> "MPoly":
        return cls(names, {})

    @classmethod
    def const(cls, names: Iterable[str], c: ScalarLike) -> "MPoly":
        names = tuple(names)
        return cls(names, {(0,) * len(names): c})

    @classmethod
    def var(cls, names: Iterable[str], name: str) -> "MPoly":
        names = tuple(names)
        i = names.index(name)
        exps = tuple(1 if k == i else 0 for k in range(len(names)))
        return cls(names, {exps: 1})

    @classmethod
    def monomial(cls, names: Iterable[str], exps: Sequence[int], c: ScalarLike = 1) -> "MPoly":
        return cls(names, {tuple(exps): c})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values())))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        i = self.names.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """Greatest term in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = _grlex_max(self.terms)
        return exps, Fraction(self.terms[exps])

    def leading_coeff(self) -> Fraction:
        return self.leading_term()[1]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], ScalarLike]]:
        """Terms in descending graded-lex order.

        Two sorts, with no Python key function: the exponent tuples in
        descending lex order, then by descending total degree.  The second
        sort is stable, so ties of total degree keep lex order; when every
        term has one total degree, lex order already is graded-lex order
        and the second sort is skipped."""
        keys = sorted(self.terms, reverse=True)
        if _mixed_degrees(keys):
            keys.sort(key=sum, reverse=True)
        terms = self.terms
        return [(e, terms[e]) for e in keys]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Optional["MPoly"]:
        if isinstance(other, MPoly):
            if other.names != self.names:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.names, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for exps, c in other.terms.items():
            out[exps] = get(exps, 0) + c
        return MPoly._trusted(self.names, _normal_terms(out))

    __radd__ = __add__

    def __neg__(self):
        return MPoly._trusted(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rational(other)
            return MPoly._trusted(
                self.names, _normal_terms({e: k * c for e, k in self.terms.items()})
            )
        if isinstance(other, MPoly):
            if other.names != self.names:
                raise ValueError("polynomials from different rings")
            out: dict[tuple[int, ...], ScalarLike] = {}
            get = out.get
            right = list(other.terms.items())
            for e1, c1 in self.terms.items():
                for e2, c2 in right:
                    e = tuple(map(_add, e1, e2))
                    out[e] = get(e, 0) + c1 * c2
            return MPoly._trusted(self.names, _normal_terms(out))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, MPoly.const(self.names, 1))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rational(other)
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / Fraction(c))
        if isinstance(other, MPoly):
            q = poly_divides(other, self)
            if q is None:
                raise ValueError("inexact polynomial division")
            return q
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.names == other.names and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            c = rational(other)
            if not c:
                return not self.terms
            return self.terms == {(0,) * len(self.names): c}
        return NotImplemented

    def __hash__(self):
        return hash((self.names, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"MPoly({self.names!r}, {format_terms(self)})"

    # -- substitution and ring changes ------------------------------------

    def evaluate(self, env: Mapping[str, object], one=1):
        """Substitute a value for every variable.

        Values may live in any commutative ring supporting ``+`` and ``*``
        with rational scalars (ints and Fractions, MPoly of another ring,
        BinaryForm); ``one`` must be that ring's multiplicative identity.
        The default ``one`` is the integer 1, so numeric evaluation stays in
        the ring of its inputs: integer coefficients at integer values give
        an ``int``, and a ``Fraction`` appears only where a coefficient or a
        value is one (the result is not normalized; see :func:`rational`).
        """
        maxes = [0] * len(self.names)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e > maxes[i]:
                    maxes[i] = e
        pows: list[Optional[list]] = [None] * len(self.names)
        for i, m in enumerate(maxes):
            if m == 0:
                continue
            name = self.names[i]
            if name not in env:
                raise KeyError(f"no value for variable {name}")
            v = env[name]
            table = [one, v]
            for _ in range(m - 1):
                table.append(table[-1] * v)
            pows[i] = table
        acc = None
        for exps, c in self.terms.items():
            val = c * one
            for i, e in enumerate(exps):
                if e:
                    val = val * pows[i][e]
            acc = val if acc is None else acc + val
        if acc is None:
            return one * 0
        return acc

    def decompose(self, name: str) -> dict[int, "MPoly"]:
        """Coefficient polynomials by power of one variable.

        Returned values live in the ring without that variable.
        """
        i = self.names.index(name)
        rest = self.names[:i] + self.names[i + 1 :]
        buckets: dict[int, dict] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            buckets.setdefault(k, {})[exps[:i] + exps[i + 1 :]] = c
        return {k: MPoly._trusted(rest, t) for k, t in buckets.items()}


# -- packed monomials ----------------------------------------------------------
# A monomial in nv variables is one int whose w-byte fields hold the exponents,
# the first variable most significant.  Monomials multiply by adding ints; no
# field carries while every exponent is below 256**w.  The fields are
# fixed-width and big-endian, so at any width w descending integer order is
# descending lex order, and among monomials of one total degree it is
# descending graded-lex order.


def field_bytes(top: int) -> int:
    """Bytes per exponent field that hold every exponent up to ``top``."""
    return max(1, (top.bit_length() + 7) // 8)


def pack(exps: Sequence[int], w: int) -> int:
    """The exponent vector ``exps`` as one int of w-byte fields."""
    raw = bytes(exps) if w == 1 else b"".join(e.to_bytes(w, "big") for e in exps)
    return int.from_bytes(raw, "big")


def unpack(key: int, nv: int, w: int) -> tuple[int, ...]:
    """Inverse of :func:`pack` for an exponent vector of length nv."""
    raw = key.to_bytes(nv * w, "big")
    if w == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[i : i + w], "big") for i in range(0, nv * w, w))


def _primitive_part(values: Sequence[ScalarLike], negate: bool) -> tuple[int, int, list[int]]:
    """Content num/den of exact rationals, not all zero, and the values divided
    by it.

    num/den is the gcd of the numerators over the lcm of the denominators,
    negated when ``negate``; the quotients are coprime integers, each formed
    by one exact integer division, so no ``Fraction`` is built.
    """
    num, den = 0, 1
    for c in values:
        num = math.gcd(num, c.numerator)
        if type(c) is not int:
            den = math.lcm(den, c.denominator)
    if negate:
        num = -num
    if den == 1:
        return num, den, [c // num for c in values]
    return num, den, [c.numerator * (den // c.denominator) // num for c in values]


def content_primitive(p: MPoly) -> tuple[Fraction, MPoly]:
    """Split ``p = c * q`` with q having coprime integer coefficients.

    The sign of ``c`` is chosen so the leading coefficient of ``q`` (in
    graded-lex order) is positive.  Raises on the zero polynomial.
    """
    if p.is_zero:
        raise ValueError("content of zero polynomial")
    lead = p.terms[_grlex_max(p.terms)]
    num, den, prim = _primitive_part(list(p.terms.values()), lead < 0)
    return Fraction(num, den), MPoly._trusted(p.names, dict(zip(p.terms, prim)))


def poly_divides(a: MPoly, b: MPoly) -> Optional[MPoly]:
    """Exact quotient ``q`` with ``b = a * q``, or None if none exists.

    Division reduces the leading term of the remainder against the leading
    term of ``a`` in graded-lex order; for a single divisor this succeeds
    exactly when the division is exact.
    """
    if a.is_zero:
        raise ValueError("division by zero polynomial")
    if a.names != b.names:
        raise ValueError("polynomials from different rings")
    la_exps, la_c = a.leading_term()
    q: dict[tuple[int, ...], Fraction] = {}
    r = b
    while not r.is_zero:
        le, lc = r.leading_term()
        diff = tuple(x - y for x, y in zip(le, la_exps))
        if any(d < 0 for d in diff):
            return None
        t = MPoly.monomial(a.names, diff, lc / la_c)
        q[diff] = lc / la_c
        r = r - t * a
    return MPoly(a.names, q)


# -- serialization ---------------------------------------------------------


class PackedTerms(NamedTuple):
    """The terms of a polynomial in output order, each monomial packed.

    ``items`` lists (packed monomial, coefficient) pairs in descending
    graded-lex order, the order every writer prints; each key is the
    exponent vector over ``names`` in w-byte fields (:func:`pack`), and
    each coefficient is nonzero and in the normal form of :func:`rational`.
    :meth:`of` builds one from an MPoly, :meth:`mpoly` is the tuple view,
    and :meth:`halves` writes the terms for :func:`format_terms` and the
    other writers.
    """

    names: tuple[str, ...]
    w: int
    items: list[tuple[int, ScalarLike]]

    @classmethod
    def of(cls, p: MPoly) -> "PackedTerms":
        """The terms of p, sorted by :meth:`MPoly.sorted_terms`, packed."""
        w = field_bytes(max(map(max, p.terms), default=0)) if p.names else 1
        return cls(p.names, w, [(pack(e, w), c) for e, c in p.sorted_terms()])

    def __bool__(self) -> bool:
        """True unless this is the zero polynomial, as for an MPoly."""
        return bool(self.items)

    def mpoly(self) -> MPoly:
        """The same terms as an MPoly, stored in output order."""
        nv, w = len(self.names), self.w
        return MPoly._trusted(self.names, {unpack(k, nv, w): c for k, c in self.items})

    def halves(self, low, high) -> list[tuple[str, str, ScalarLike]]:
        """(a, b, c) for each term in order: c its coefficient, a the text
        ``low(names, exps)`` of the first half of its variables, b the text
        ``high(names, exps)`` of the rest.  Each half is the integer of its
        fields, and each distinct one is written once and then looked up: a
        biform's terms pair few distinct u-monomials with few distinct
        v-monomials.  Each half has its own memo, since a u-part and a
        v-part can be equal."""
        nv, w = len(self.names), self.w
        h = nv // 2
        first, rest = self.names[:h], self.names[h:]
        bits = 8 * w * (nv - h)
        mask = (1 << bits) - 1
        lows: dict[int, str] = {}
        highs: dict[int, str] = {}
        out = []
        append = out.append
        for key, c in self.items:
            part = key >> bits
            a = lows.get(part)
            if a is None:
                a = lows[part] = low(first, unpack(part, h, w))
            part = key & mask
            b = highs.get(part)
            if b is None:
                b = highs[part] = high(rest, unpack(part, nv - h, w))
            append((a, b, c))
        return out

    def monomials(self) -> list[tuple[str, ScalarLike]]:
        """(text, c) for each term in order: its monomial as ``var^exp``
        factors, "u0^1 v2^3", and "" for 1."""
        return [(f"{a} {b}" if a and b else a or b, c) for a, b, c in self.halves(_factors, _factors)]

    def normalized(self) -> "PackedTerms":
        """Int coefficients divided by their gcd, signed so that the first
        item, the graded-lex leading term, is positive; the zero polynomial
        as it is.  The gcd pass stops at the first gcd of 1, and the items
        are divided only when it ends above 1 or the lead is negative."""
        g = 0
        for _, c in self.items:
            g = math.gcd(g, c)
            if g == 1:
                break
        if self.items and self.items[0][1] < 0:
            g = -g
        if g in (0, 1):
            return self
        return self._replace(items=[(k, c // g) for k, c in self.items])


def _factors(names: Sequence[str], exps: Sequence[int]) -> str:
    return " ".join(f"{n}^{e}" for n, e in zip(names, exps) if e)


def format_terms(p: Union[MPoly, PackedTerms]) -> str:
    """One term per line: ``{sign}{coeff} * var^exp var^exp ...``.

    Terms appear in descending graded-lex order, that of
    :class:`PackedTerms`, which an MPoly is turned into first; the zero
    polynomial serializes to the single line ``0``.
    """
    terms = p if isinstance(p, PackedTerms) else PackedTerms.of(p)
    if not terms:
        return "0"
    lines = []
    for mono, c in terms.monomials():
        coeff = f"{c:+d}" if type(c) is int else f"+{c}" if c > 0 else str(c)
        lines.append(f"{coeff} * {mono}" if mono else coeff)
    return "\n".join(lines)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """The rational written as ASCII ``[+-]?[0-9]+(/[0-9]+)?``, surrounding
    whitespace aside; the one grammar of rationals in text.

    Raises ValueError on anything else, a zero denominator included.
    ``Fraction(text)`` also takes "1.5", "1_0" and "1e10000000", the last
    in exponential time.
    """
    match = _RATIONAL.fullmatch(text.strip()) if isinstance(text, str) else None
    den = int(match[2] or 1) if match else 0
    if not den:
        raise ValueError(f"invalid rational {text!r}")
    return Fraction(int(match[1]), den)


def parse_terms(text: str, names: Iterable[str]) -> MPoly:
    """Parse the :func:`format_terms` wire format back into an MPoly."""
    names = tuple(names)
    index = {n: i for i, n in enumerate(names)}
    terms: dict[tuple[int, ...], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "0":
            continue
        head, _, tail = line.partition(" * ")
        try:
            c = parse_rational(head)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: invalid coefficient {head!r}") from exc
        exps = [0] * len(names)
        for factor in tail.split():
            if factor == "*":
                continue
            name, sep, power = factor.partition("^")
            if name not in index:
                raise ValueError(f"line {lineno}: unknown variable {name!r}")
            exps[index[name]] += int(power) if sep else 1
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + c
    return MPoly(names, terms)


# -- binary forms ----------------------------------------------------------


class BinaryForm:
    """Homogeneous form of declared degree d in (z0, z1).

    Each coefficient is an :class:`MPoly` or an exact rational in the normal
    form of :func:`rational`: an ``int`` when integral, a ``Fraction``
    otherwise.  The constructor normalizes numeric input and rejects
    anything else (bools, floats, strings) with TypeError.

    The zero form of any degree is representable (all coefficients zero)
    and reports ``is_zero``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        if len(coeffs) < 1:
            raise ValueError("a form needs at least one coefficient")
        object.__setattr__(
            self,
            "coeffs",
            tuple(
                c if type(c) is int or isinstance(c, MPoly) else rational(c)
                for c in coeffs
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError("BinaryForm is immutable")

    @classmethod
    def zero(cls, degree: int) -> "BinaryForm":
        return cls([0] * (degree + 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_numeric(self) -> bool:
        """True when no coefficient is an :class:`MPoly`."""
        return not any(isinstance(c, MPoly) for c in self.coeffs)

    def evaluate(self, z0, z1):
        d = self.degree
        acc = None
        for j, c in enumerate(self.coeffs):
            val = c * z0 ** (d - j) * z1**j
            acc = val if acc is None else acc + val
        return acc

    def __add__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("cannot add forms of different degrees")
        return BinaryForm([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BinaryForm([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            out = [0] * (self.degree + other.degree + 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return BinaryForm(out)
        if isinstance(other, (int, Fraction, MPoly)):
            return BinaryForm([c * other for c in self.coeffs])
        return NotImplemented

    # The coefficient rings are commutative, so c * h is h * c.
    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, BinaryForm([1]))

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"BinaryForm({list(self.coeffs)!r})"

    def compose(self, p: "BinaryForm", q: "BinaryForm") -> "BinaryForm":
        """Substitute z0 -> p, z1 -> q for forms p, q of one common degree.

        The powers of p and q are built once each, as running products.
        """
        if p.degree != q.degree:
            raise ValueError("substituted forms must share a degree")
        d = self.degree
        ps = list(accumulate([p] * d, BinaryForm.__mul__, initial=BinaryForm([1])))
        qs = list(accumulate([q] * d, BinaryForm.__mul__, initial=BinaryForm([1])))
        out = BinaryForm.zero(d * p.degree)
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            out = out + c * (ps[d - j] * qs[j])
        return out

    def substitute_gl2(self, A: Sequence[Sequence[ScalarLike]]) -> "BinaryForm":
        """Return h(a z0 + b z1, c z0 + d z1) for A = [[a, b], [c, d]].

        A may be singular; callers that need a group action enforce
        invertibility themselves.
        """
        (a, b), (c, d) = A
        return self.compose(BinaryForm([a, b]), BinaryForm([c, d]))

    def normalized(self) -> "BinaryForm":
        """Primitive integer representative with positive first nonzero coefficient."""
        if not self.is_numeric:
            raise ValueError("normalization needs numeric coefficients")
        if self.is_zero:
            raise ValueError("cannot normalize the zero form")
        lead = next(c for c in self.coeffs if c)
        return BinaryForm(_primitive_part(self.coeffs, lead < 0)[2])


def contract(forms: Sequence[BinaryForm], covector: Sequence) -> BinaryForm:
    """The form sum_i covector[i] * forms[i].

    Covector entries may be numbers or MPolys, so one routine contracts a
    curve against a numeric plane covector, a row of a linear action, or a
    block of covector variables.  Each coefficient is one sum over the
    covector; a form whose entry is nonzero must share the first form's
    degree.
    """
    terms = [(c, h.coeffs) for c, h in zip(covector, forms, strict=True) if c]
    if any(len(h) != len(forms[0].coeffs) for _, h in terms):
        raise ValueError("cannot contract forms of different degrees")
    return BinaryForm([sum(c * h[j] for c, h in terms) for j in range(len(forms[0].coeffs))])


def form_ring(forms: Sequence[BinaryForm]) -> tuple[int, tuple[str, ...]]:
    """The common degree d and coefficient ring of a tuple of binary forms.

    The ring is the variables of the forms' MPoly coefficients, () when
    every coefficient is a number; numbers count as constants of any ring.
    Raises ValueError unless there are at least two forms and they share
    one degree d >= 1 and one coefficient ring.
    """
    if len(forms) < 2:
        raise ValueError("need at least two forms")
    d = forms[0].degree
    if any(h.degree != d for h in forms):
        raise ValueError("forms must have equal degrees")
    if d < 1:
        raise ValueError("degree must be at least 1")
    rings = {c.names for h in forms for c in h.coeffs if isinstance(c, MPoly)}
    if len(rings) > 1:
        raise ValueError("forms use different coefficient rings")
    return d, rings.pop() if rings else ()


# -- gcd of numeric binary forms --------------------------------------------


def _core(h: BinaryForm) -> tuple[int, int, list[int]]:
    """The integer core (p0, p1, u) of a nonzero numeric form h.

    h = unit * z0^p0 * z1^p1 * core with the core nonzero at both ends; u is
    the core dehomogenized at z1 = 1, low power first, as a primitive
    integer list with a positive last entry.
    """
    c = h.coeffs
    nz = [j for j, x in enumerate(c) if x]
    if not nz or not h.is_numeric:
        raise ValueError("needs a nonzero form with numeric coefficients")
    return len(c) - 1 - nz[-1], nz[0], _primitive(c[nz[0] : nz[-1] + 1][::-1])


def _trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, over Z."""
    r = _trim(list(a))
    lb = b[-1]
    delta = len(r) - len(b)
    steps = 0
    while r != [0] and len(r) >= len(b):
        shift = len(r) - len(b)
        lr = r[-1]
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[i + shift] -= lr * bc
        _trim(r)
        steps += 1
    if r != [0]:
        r = [c * lb ** (delta + 1 - steps) for c in r]
    return r


def _primitive(p: Sequence[ScalarLike]) -> list[int]:
    """Primitive part of a nonzero list of rationals, positive last entry."""
    return _primitive_part(p, p[-1] < 0)[2]


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, positive last entry, of primitive integer polynomials
    via the subresultant PRS.

    Fraction-free: every division in the remainder sequence is exact over
    Z, which keeps intermediate coefficients from exploding the way naive
    rational elimination would.
    """
    if len(a) < len(b):
        a, b = b, a
    g = 1
    h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        r = _prem(a, b)
        if r == [0]:
            return _primitive(b)
        divisor = g * h**delta
        a, b = b, [c // divisor for c in r]
        g = a[-1]
        if delta >= 1:
            h = g**delta // h ** (delta - 1)
    return [1]


def form_gcd(a: BinaryForm, b: BinaryForm) -> BinaryForm:
    """Primitive gcd of two numeric binary forms; see :func:`form_gcd_all`."""
    return form_gcd_all((a, b))


def form_gcd_all(forms: Iterable[BinaryForm]) -> BinaryForm:
    """Primitive gcd of numeric binary forms, zero forms ignored, with
    positive first nonzero coefficient.

    One fold over the integer cores (see :func:`_core`): the z0 and z1
    powers of the gcd are the least among the forms and its core is the
    integer subresultant gcd of theirs.  The fold stops once the gcd has
    degree 0, which means the forms share no projective root.  Raises
    ValueError when every form is zero or a form it reaches is not numeric.
    """
    g = None
    for h in forms:
        if h.is_zero:
            continue
        q0, q1, u = _core(h)
        if g is None:
            p0, p1, g = q0, q1, u
        else:
            p0, p1, g = min(p0, q0), min(p1, q1), _int_poly_gcd(g, u)
        if p0 == p1 == len(g) - 1 == 0:
            break
    if g is None:
        raise ValueError("gcd of zero forms")
    return BinaryForm([0] * p1 + g[::-1] + [0] * p0)

