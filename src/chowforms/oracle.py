"""Independent, gcd-based checks on curve parametrizations.

Nothing here touches resultants: incidence with a plane is decided by the
gcd of the two contracted forms, base points by the iterated gcd of the
components, and the degree of the map onto its image by the classical
properness certificate (Sederberg, CAGD 3, 1986; Sendra, Winkler and
Perez-Diaz, *Rational Algebraic Curves*, 2008): the fiber gcds over the
fixed parameters (1, j), at most (d-1)(d-2) + d + 1 of them, with no
sampling.  This gives a second algorithmic route against which the biform
construction is cross-validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .curves import CurveMap, Plane
from .polynomial import BinaryForm, contract, form_gcd, form_gcd_all

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


def map_degree(f: CurveMap, trials: int = 3) -> int:
    """Degree k of the map onto its image, certified without sampling.

    By Luroth's theorem f = g o phi, with phi = (phi0, phi1) of degree k
    and g birational.  The fiber gcd G_j over the image point f(1, j) (see
    :func:`_fiber_gcd`) is divisible by phi0(1, j) phi1 - phi1(1, j) phi0,
    so deg G_j >= k, with equality except over the singular image points
    (cusps included): at most (d-1)(d-2) parameters.  Hence deg G_j = 1
    proves k = 1.  Otherwise two non-proportional fiber gcds G, H of one
    degree m dividing d, with every f_i in the Q-span of H^a G^(d/m-a) for
    a = 0..d/m, give f = g' o (H, G), so m divides k <= m and k = m; the
    test is a proof even over a singular point.  Past the bad parameters
    every G_j is a member of the pencil of phi, and at most k parameters
    share a fiber, so (d-1)(d-2) + d + 1 parameters j = 0, 1, ... always
    suffice; running out of them raises RuntimeError.

    ``trials`` is unused.  It stays while the benchmark's layer map reads
    its default.
    """
    if not base_locus_free(f):
        raise ValueError("parametrization has base locus")
    return _certified_map_degree(f)


def _certified_map_degree(f: CurveMap) -> int:
    """The certificate of :func:`map_degree`, for a base-point-free f.  The
    first fiber gcd of each degree is kept, and each later one of that
    degree is tested against it."""
    d = f.d
    first: dict[int, BinaryForm] = {}
    for j in range((d - 1) * (d - 2) + d + 1):
        G = _fiber_gcd(f, (1, j))
        m = G.degree
        if m == 1:
            return 1
        H = first.setdefault(m, G)
        if H != G and d % m == 0 and _spans(G, H, d // m, f.components):
            return m
    raise RuntimeError("no two fiber gcds certify the map degree")


def _fiber_gcd(f: CurveMap, z) -> BinaryForm:
    """Primitive gcd of the minors M_ij = P_j f_i - P_i f_j over P = f(z),
    for a base-point-free f: its roots are the parameters over P.

    Only the n minors N_i = P_k f_i - P_i f_k against the first coordinate k
    with P_k != 0 are formed.  Each N_i is M_ik up to sign, and the identity
    P_k M_ij = P_j N_i - P_i N_j puts every M_ij in their span, so both sets
    have the same gcd.
    """
    P = f.point(z)
    k = next(i for i, x in enumerate(P) if x)
    fk = f.components[k]
    return form_gcd_all(
        BinaryForm([P[k] * a - P[i] * b for a, b in zip(h.coeffs, fk.coeffs)])
        for i, h in enumerate(f.components)
        if i != k
    )


def _spans(G: BinaryForm, H: BinaryForm, e: int, forms) -> bool:
    """Does every form lie in the Q-span of H^a G^(e-a), a = 0..e?

    The powers of G and H are built once each, as running products.
    Fraction-free elimination: a row r is reduced by an echelon row s at
    its pivot p as r <- s[p] r - r[p] s, so integer rows stay integer.
    """
    Gs, Hs = (list(accumulate([h] * e, BinaryForm.__mul__, initial=BinaryForm([1]))) for h in (G, H))
    basis = [(Hs[a] * Gs[e - a]).coeffs for a in range(e + 1)]
    rows: list[tuple[int, list]] = []
    for i, r in enumerate(basis + [h.coeffs for h in forms]):
        for p, s in rows:
            if r[p]:
                r = [s[p] * x - r[p] * y for x, y in zip(r, s)]
        if any(r):
            if i > e:
                return False
            rows.append((next(j for j, x in enumerate(r) if x), r))
    return True


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


def check_curve(f: CurveMap) -> CurveCheck:
    """Base-point, map-degree, and image-degree report for a curve map.

    A curve with a non-integer coefficient is certified with each nonzero
    component replaced by its primitive integer normal form, so the
    arithmetic runs over Z.  Scaling f_i by a nonzero c_i scales the image
    coordinate P_i and every minor f_i P_j - f_j P_i by units and keeps
    each span, so the fiber gcds and the report are those of f itself.
    """
    if any(type(x) is not int for c in f.components for x in c.coeffs):
        f = CurveMap(tuple(c if c.is_zero else c.normalized() for c in f.components))
    if not base_locus_free(f):
        return CurveCheck(False, None, None, False)
    k = _certified_map_degree(f)
    return CurveCheck(True, k, f.d // k, k == 1)
