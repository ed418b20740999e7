"""Independent, gcd-based checks on curve parametrizations.

Nothing here touches resultants: incidence with a plane is decided by the
gcd of the two contracted forms, base points by the iterated gcd of the
components, and the degree of the map onto its image by counting the
distinct roots of fiber polynomials over sampled image points.  This gives
a second algorithmic route against which the biform construction is
cross-validated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .curves import CurveMap, Plane
from .polynomial import BinaryForm, contract, distinct_root_count, form_gcd, form_gcd_all

__all__ = ["CurveCheck", "base_locus_free", "incident_oracle", "map_degree", "check_curve"]


def base_locus_free(f: CurveMap) -> bool:
    """True iff the components share no projective root."""
    return form_gcd_all(f.components).degree == 0


def incident_oracle(f: CurveMap, plane: Plane) -> bool:
    """Does the image curve meet the plane?  Decided by a binary-form gcd.

    The contractions h1 = <f, u> and h2 = <f, v> vanish simultaneously at a
    parameter exactly when the image point lies on the plane, so the curve
    meets the plane iff gcd(h1, h2) has a root.  A contraction that is
    identically zero means the curve lies inside the corresponding
    hyperplane, and any nonconstant form has a root, so those cases are
    incident outright.

    A parametrization with a base point raises ValueError on every plane.
    The base locus is tested only when the answer would be True: a base
    point is a common root of h1 and h2, so a base-pointed curve never
    reaches the False answer.
    """
    h1 = contract(f.components, plane.u)
    h2 = contract(f.components, plane.v)
    if not (h1.is_zero or h2.is_zero) and form_gcd(h1, h2).degree == 0:
        return False
    if not base_locus_free(f):
        raise ValueError("parametrization has base locus")
    return True


def map_degree(f: CurveMap, rng: Optional[random.Random] = None, trials: int = 3) -> int:
    """Generic fiber cardinality of the map onto its image.

    Samples a rational parameter z*, forms the fiber polynomial over the
    image point P = f(z*) as the gcd of the 2x2 minors
    M_ij = P_j f_i(z) - P_i f_j(z), and counts its distinct roots.  Samples
    whose fiber polynomial is not squarefree sit over ramification or
    singular image points and are rejected; among accepted samples singular
    image points can only overcount, so the minimum over ``trials`` draws is
    reported.

    Only the n minors N_i = P_k f_i - P_i f_k against the first coordinate k
    with P_k != 0 are formed.  Each N_i is M_ik up to sign, and the identity
    P_k M_ij = P_j N_i - P_i N_j puts every M_ij in their span, so both sets
    have the same gcd.
    """
    if not base_locus_free(f):
        raise ValueError("parametrization has base locus")
    return _sample_map_degree(f, rng or random.Random(0), trials)


def _sample_map_degree(f: CurveMap, rng: random.Random, trials: int = 3) -> int:
    """The sampling loop of :func:`map_degree`, for a base-point-free f."""
    counts = []
    attempts = 0
    while len(counts) < trials:
        attempts += 1
        if attempts > 100 * trials:
            raise RuntimeError("could not find enough unramified sample points")
        z = (rng.randint(-20, 20), rng.randint(1, 20))
        P = f.point(z)
        # f is base-point-free, so some coordinate of P is nonzero.
        k = next(i for i, x in enumerate(P) if x)
        fk = f.components[k]
        minors = [
            BinaryForm([P[k] * a - P[i] * b for a, b in zip(h.coeffs, fk.coeffs)])
            for i, h in enumerate(f.components)
            if i != k
        ]
        if all(m.is_zero for m in minors):
            continue
        G = form_gcd_all(minors)
        if G.degree == 0:
            continue
        count, squarefree = distinct_root_count(G)
        if not squarefree:
            continue
        counts.append(count)
    return min(counts)


@dataclass(frozen=True)
class CurveCheck:
    """Summary of how good a parametrization is.

    ``birational`` means base-point-free and generically one-to-one onto
    the image, i.e. the image is a genuine degree-d curve.
    """

    base_free: bool
    map_degree: Optional[int]
    image_degree: Optional[int]
    birational: bool


def check_curve(f: CurveMap, rng: Optional[random.Random] = None) -> CurveCheck:
    """Base-point, map-degree, and image-degree report for a curve map.

    A curve with a non-integer coefficient is sampled with each nonzero
    component replaced by its primitive integer normal form, so the
    arithmetic runs over Z.  Scaling f_i by a nonzero c_i scales the image
    coordinate P_i and every minor f_i P_j - f_j P_i by units, so the
    draws, gcds, root counts and the report are those of f itself.
    """
    if any(type(x) is not int for c in f.components for x in c.coeffs):
        f = CurveMap(tuple(c if c.is_zero else c.normalized() for c in f.components))
    if not base_locus_free(f):
        return CurveCheck(False, None, None, False)
    rng = rng or random.Random(0)
    for _ in range(5):
        e = _sample_map_degree(f, rng)
        if f.d % e == 0:
            return CurveCheck(True, e, f.d // e, e == 1)
    raise RuntimeError("map degree sampling failed to divide the curve degree")
