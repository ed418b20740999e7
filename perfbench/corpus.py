"""Seeded benchmark inputs, built with the standard library only.

No function here calls into chowforms: the program under test receives only
the generated coefficient rows and covectors.

Every curve is base-point-free and birational by construction.  The base
curve has components z0^d, z0^(d-1) z1, random forms, and z1^d last: z0^d
and z1^d share no root, and f1/f0 = z1/z0 is one-to-one.  A random
invertible GL2 reparametrization and a random invertible GL_{n+1} ambient
change keep both properties; invertibility is checked with
:func:`reference.det`.
"""

from __future__ import annotations

import random

from reference import curve_point, det, substitute_gl2

# (n, d) points of the build_grid and query_planes corpus.  (2, 5) and
# (3, 4) are left out: one build there takes 2-5 s, so a pass would last
# about 24 s and a run would time each operation only once or twice.
GRID = ((2, 3), (2, 4), (3, 3), (4, 3))

# (label, (n, d_f), (n, d_g), emit the eps table) for degen_joins.
JOIN_PAIRS = (
    ("lines_P2", (2, 1), (2, 1), False),
    ("line_conic_P3", (3, 1), (3, 2), True),
    ("line_conic_P2", (2, 1), (2, 2), False),
    ("conic_conic_P2", (2, 2), (2, 2), False),
)


# Nonzero entries keep every generated input equally dense, so the cost of
# a workload varies little from one seed to the next.
ENTRIES = (-3, -2, -1, 1, 2, 3)
CANDIDATES = 25


def rand_invertible(rng: random.Random, size: int):
    while True:
        M = [[rng.choice(ENTRIES) for _ in range(size)] for _ in range(size)]
        if det(M):
            return M


def birational_curve(rng: random.Random, n: int, d: int) -> list[list[int]]:
    """Coefficient rows of a random base-point-free birational curve in P^n.

    Exact arithmetic costs more on larger coefficients, and their total
    size varies about twofold between random curves of one (n, d).  So
    CANDIDATES curves are drawn and the one of median total coefficient
    bit length is kept, which fixes the input size of every seed.
    """
    drawn = sorted((_dense_curve(rng, n, d) for _ in range(CANDIDATES)), key=_bit_size)
    return drawn[CANDIDATES // 2]


def _bit_size(rows) -> int:
    return sum(abs(c).bit_length() for r in rows for c in r)


def _dense_curve(rng: random.Random, n: int, d: int) -> list[list[int]]:
    while True:
        rows = [[0] * (d + 1) for _ in range(n + 1)]
        rows[0][0] = 1
        rows[1][1] = 1
        for i in range(2, n):
            rows[i] = [rng.choice(ENTRIES) for _ in range(d + 1)]
        rows[n][d] = 1
        A = rand_invertible(rng, 2)
        rows = [substitute_gl2(r, A) for r in rows]
        B = rand_invertible(rng, n + 1)
        rows = [
            [sum(B[i][j] * rows[j][k] for j in range(n + 1)) for k in range(d + 1)]
            for i in range(n + 1)
        ]
        # Dense rows: a zero coefficient makes the exact arithmetic on this
        # curve cheaper than on its neighbours, so the work done by a pass
        # would swing from seed to seed.
        if all(all(r) for r in rows):
            return rows


def double_cover(rows: list[list[int]]) -> list[list[int]]:
    """Compose with z -> (z0^2, z1^2): a degree-2 cover of the same image."""
    out = []
    for r in rows:
        c = [0] * (2 * len(r) - 1)
        c[::2] = r
        out.append(c)
    return out


def _independent(u, v) -> bool:
    m = len(u)
    return any(u[i] * v[j] - u[j] * v[i] for i in range(m) for j in range(i + 1, m))


def random_plane(rng: random.Random, n: int):
    while True:
        u = tuple(rng.randint(-5, 5) for _ in range(n + 1))
        v = tuple(rng.randint(-5, 5) for _ in range(n + 1))
        if _independent(u, v):
            return u, v


def sample_param(rng: random.Random):
    return (rng.randint(-6, 6), rng.randint(1, 6))


def plane_through(rng: random.Random, P):
    """Integer covectors u, v, independent, with <P, u> = <P, v> = 0."""
    k = next(i for i, c in enumerate(P) if c)
    while True:
        covs = []
        for _ in range(2):
            w = [rng.randint(-4, 4) for _ in P]
            s = sum(a * b for a, b in zip(P, w))
            cov = [P[k] * x for x in w]
            cov[k] -= s
            covs.append(tuple(cov))
        if _independent(*covs):
            return covs[0], covs[1]


def grid_curves(seed: int, grid=GRID) -> dict:
    """One curve per (n, d) grid point, from a stream keyed by the seed."""
    rng = random.Random(f"chowforms-grid-{seed}")
    return {nd: birational_curve(rng, *nd) for nd in grid}


def incidence_planes(rng: random.Random, rows, count: int):
    """``count`` planes: the first half through sampled curve points."""
    n = len(rows) - 1
    planes = []
    for k in range(count):
        if k < count // 2:
            P = curve_point(rows, sample_param(rng))
            planes.append((plane_through(rng, P), True))
        else:
            planes.append((random_plane(rng, n), False))
    return planes


def join_pairs(seed: int, pairs=JOIN_PAIRS):
    rng = random.Random(f"chowforms-joins-{seed}")
    out = []
    for label, (n, df), (_, dg), emit in pairs:
        out.append((label, birational_curve(rng, n, df), birational_curve(rng, n, dg), emit))
    return out
