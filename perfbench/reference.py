"""Exact arithmetic the benchmark uses to make inputs and check outputs.

Everything here is written against the standard library only, so neither
corpus generation nor the correctness gate relies on the code under test.

Binary forms are coefficient lists ``c`` with ``c[j]`` multiplying
``z0**(d-j) * z1**j`` (the layout of the chowforms curve files).  Sparse
polynomials are dicts from exponent tuples to nonzero ``Fraction`` values,
with the variable names held separately.
"""

from __future__ import annotations

from fractions import Fraction


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    A = [[Fraction(x) for x in row] for row in rows]
    n = len(A)
    sign = 1
    acc = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if A[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        acc *= A[k][k]
        for i in range(k + 1, n):
            if A[i][k]:
                f = A[i][k] / A[k][k]
                A[i] = [x - f * y for x, y in zip(A[i], A[k])]
    return sign * acc


# -- binary forms --------------------------------------------------------------


def form_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def form_pow(a, k):
    out = [1]
    for _ in range(k):
        out = form_mul(out, a)
    return out


def substitute_gl2(c, A):
    """Coefficients of h(a z0 + b z1, c z0 + d z1) for A = [[a, b], [c, d]]."""
    (a, b), (cc, dd) = A
    d = len(c) - 1
    out = [0] * (d + 1)
    for j, coef in enumerate(c):
        if coef:
            term = form_mul(form_pow([a, b], d - j), form_pow([cc, dd], j))
            out = [x + coef * y for x, y in zip(out, term)]
    return out


def form_eval(c, z0, z1):
    d = len(c) - 1
    return sum(coef * z0 ** (d - j) * z1**j for j, coef in enumerate(c))


def curve_point(rows, z):
    return tuple(form_eval(r, z[0], z[1]) for r in rows)


# -- sparse polynomials ----------------------------------------------------------


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_eval(poly: dict, values):
    """Value at the given point; stays in int arithmetic for int inputs."""
    acc = 0
    for exps, c in poly.items():
        term = c
        for v, e in zip(values, exps):
            if e:
                term *= v**e
        acc += term
    return acc


def proportional(a: dict, b: dict) -> bool:
    """a = lambda * b for some nonzero rational lambda (both nonzero)."""
    if not a or not b or a.keys() != b.keys():
        return False
    key = next(iter(a))
    ratio = Fraction(a[key]) / Fraction(b[key])
    return all(Fraction(a[k]) == ratio * Fraction(b[k]) for k in a)


def parse_term_lines(lines, names) -> dict:
    """Parse ``{sign}{coeff} * name^e ...`` lines into a sparse polynomial."""
    index = {n: i for i, n in enumerate(names)}
    out: dict = {}
    for line in lines:
        line = line.strip()
        if not line or line == "0":
            continue
        head, _, tail = line.partition(" * ")
        exps = [0] * len(names)
        for factor in tail.split():
            name, _, power = factor.partition("^")
            exps[index[name]] += int(power) if power else 1
        key = tuple(exps)
        if key in out:
            raise ValueError(f"repeated monomial in {line!r}")
        out[key] = Fraction(head)
    return out


def uv_names(n: int) -> tuple[str, ...]:
    return tuple(f"u{i}" for i in range(n + 1)) + tuple(f"v{i}" for i in range(n + 1))


def plucker_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]


def expand_plucker(ppoly: dict, n: int) -> dict:
    """Substitute p_ij -> u_i v_j - u_j v_i into a polynomial in the p_ij.

    ``ppoly`` is keyed by exponents over :func:`plucker_pairs` order; the
    result is keyed by exponents over :func:`uv_names` order.
    """
    m = n + 1
    wedge = []
    for i, j in plucker_pairs(n):
        a = [0] * (2 * m)
        b = [0] * (2 * m)
        a[i] += 1
        a[m + j] += 1
        b[j] += 1
        b[m + i] += 1
        wedge.append({tuple(a): 1, tuple(b): -1})
    powers: dict = {}
    out: dict = {}
    for exps, c in ppoly.items():
        term = {(0,) * (2 * m): Fraction(c)}
        for k, e in enumerate(exps):
            if e:
                if (k, e) not in powers:
                    p = {(0,) * (2 * m): 1}
                    for _ in range(e):
                        p = poly_mul(p, wedge[k])
                    powers[(k, e)] = p
                term = poly_mul(term, powers[(k, e)])
        for key, v in term.items():
            s = out.get(key, 0) + v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out
