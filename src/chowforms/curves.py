"""Parametrized rational curves in projective space and codimension-2 planes.

A :class:`CurveMap` holds the n+1 degree-d binary forms (f_0, ..., f_n)
defining z -> (f_0(z) : ... : f_n(z)); a :class:`Plane` holds two
independent covectors whose common kernel is a codimension-2 linear
subspace.  Reparametrization and ambient linear actions live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .polynomial import BinaryForm, ScalarLike, contract, form_ring, rational
from .resultant import det_bareiss

__all__ = ["CurveMap", "Plane", "act_gl2", "act_gln"]


@dataclass(frozen=True)
class CurveMap:
    """Tuple of n+1 binary forms of one degree d >= 1, not all zero."""

    components: tuple[BinaryForm, ...]

    def __post_init__(self):
        form_ring(self.components)
        if all(c.is_zero for c in self.components):
            raise ValueError("all components are zero")
        if any(not c.is_numeric for c in self.components):
            raise ValueError("components must have numeric coefficients")

    @property
    def n(self) -> int:
        return len(self.components) - 1

    @property
    def d(self) -> int:
        return self.components[0].degree

    @classmethod
    def from_coeffs(cls, rows: Sequence[Sequence[ScalarLike]]) -> "CurveMap":
        return cls(tuple(BinaryForm(row) for row in rows))

    def point(self, z: Sequence[ScalarLike]) -> tuple[ScalarLike, ...]:
        """Image of the parameter z = (z0, z1), in coefficient normal form
        (see :func:`~chowforms.polynomial.rational`): integer parameters on
        an integer curve give ``int`` coordinates.  The entries of z must be
        exact rationals (int or Fraction); anything else raises TypeError."""
        z0, z1 = (rational(v) for v in z)
        return tuple(rational(c.evaluate(z0, z1)) for c in self.components)

    def scale(self, factor: ScalarLike) -> "CurveMap":
        factor = rational(factor)
        return CurveMap(tuple(factor * c for c in self.components))


@dataclass(frozen=True)
class Plane:
    """Codimension-2 plane { x : <x, u> = <x, v> = 0 } in P^n.

    Covector entries must be exact rationals (int or Fraction); anything
    else raises TypeError.
    """

    u: tuple[ScalarLike, ...]
    v: tuple[ScalarLike, ...]

    def __post_init__(self):
        u = tuple(rational(x) for x in self.u)
        v = tuple(rational(x) for x in self.v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if len(u) != len(v) or len(u) < 2:
            raise ValueError("covectors must share a length of at least 2")
        if not any(
            u[i] * v[j] - u[j] * v[i]
            for i in range(len(u))
            for j in range(i + 1, len(u))
        ):
            raise ValueError("covectors dependent")

    @property
    def n(self) -> int:
        return len(self.u) - 1


def act_gl2(f: CurveMap, A: Sequence[Sequence[ScalarLike]]) -> CurveMap:
    """Reparametrize: substitute each component by the linear change A."""
    if len(A) != 2 or any(len(row) != 2 for row in A):
        raise ValueError("matrix must be 2x2")
    if det_bareiss(A) == 0:
        raise ValueError("singular matrix")
    return CurveMap(tuple(c.substitute_gl2(A) for c in f.components))


def act_gln(f: CurveMap, B: Sequence[Sequence[ScalarLike]]) -> CurveMap:
    """Ambient linear action: component i becomes sum_j B[i][j] * f_j."""
    m = len(f.components)
    rows = [[rational(x) for x in row] for row in B]
    if len(rows) != m or any(len(r) != m for r in rows):
        raise ValueError(f"matrix must be {m}x{m}")
    if det_bareiss(rows) == 0:
        raise ValueError("singular matrix")
    return CurveMap(tuple(contract(f.components, row) for row in rows))
