import itertools
import random
from fractions import Fraction

import pytest

from chowforms import (
    BinaryForm,
    MPoly,
    det_bareiss,
    det_expand,
    det_laplace_split,
    form_gcd,
    resultant,
    sylvester,
    uv_names,
)
from helpers import coded_det_at, naive_det, rand_form, truncated

UV1 = uv_names(1)  # u0 u1 v0 v1
UV2 = uv_names(2)


def _symbolic_form(block, n, d):
    """Degree-d form whose j-th coefficient is the variable {block}{j}; needs d <= n."""
    names = uv_names(n)
    return BinaryForm([MPoly.var(names, f"{block}{j}") for j in range(d + 1)])


# -- sylvester layout ----------------------------------------------------------


def test_sylvester_degree_one_layout():
    h1 = _symbolic_form("u", 1, 1)
    h2 = _symbolic_form("v", 1, 1)
    M = sylvester(h1, h2)
    assert M.size == 2
    assert M.entries == (
        (MPoly.var(UV1, "u0"), MPoly.var(UV1, "u1")),
        (MPoly.var(UV1, "v0"), MPoly.var(UV1, "v1")),
    )


def test_sylvester_degree_two_layout():
    h1 = _symbolic_form("u", 2, 2)
    h2 = _symbolic_form("v", 2, 2)
    M = sylvester(h1, h2)
    u = [MPoly.var(UV2, f"u{j}") for j in range(3)]
    v = [MPoly.var(UV2, f"v{j}") for j in range(3)]
    zero = MPoly.zero(UV2)
    assert M.entries == (
        (u[0], u[1], u[2], zero),
        (zero, u[0], u[1], u[2]),
        (v[0], v[1], v[2], zero),
        (zero, v[0], v[1], v[2]),
    )


def test_sylvester_equal_forms_identical_blocks():
    h = _symbolic_form("u", 2, 2)
    M = sylvester(h, h)
    assert M.entries[:2] == M.entries[2:]


def test_sylvester_errors():
    with pytest.raises(ValueError):
        sylvester(BinaryForm([1, 0]), BinaryForm([1, 0, 0]))
    with pytest.raises(ValueError):
        sylvester(BinaryForm([1]), BinaryForm([1]))


# -- determinant backends --------------------------------------------------------


def test_det_identity():
    I3 = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert det_bareiss(I3) == 1
    assert det_bareiss([]) == 1


def test_det_bareiss_numbers_are_in_normal_form():
    h = Fraction(1, 2)
    for M in (
        [],
        [[1, 2], [3, 4]],
        [[1, 2], [2, 4]],
        [[0, 0], [0, 0]],
        [[h, Fraction(1, 3)], [1, 1]],
        [[h, 1], [1, 2]],
        [[Fraction(4, 2)]],
        [[0, 1, 2], [1, 0, 3], [2, 1, h]],
    ):
        assert type(det_bareiss(M)) is type(det_expand(M))
        assert det_bareiss(M) == det_expand(M)


def test_det_2x2_symbolic():
    M = sylvester(_symbolic_form("u", 1, 1), _symbolic_form("v", 1, 1))
    w = MPoly.var(UV1, "u0") * MPoly.var(UV1, "v1") - MPoly.var(UV1, "u1") * MPoly.var(UV1, "v0")
    assert det_bareiss(M) == w
    assert det_laplace_split(M) == w


def test_det_singular_is_zero():
    M = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det_bareiss(M) == 0


def test_det_needs_pivoting():
    M = [
        [Fraction(0), Fraction(1), Fraction(2)],
        [Fraction(1), Fraction(0), Fraction(3)],
        [Fraction(2), Fraction(1), Fraction(0)],
    ]
    assert det_bareiss(M) == naive_det(M)
    # An int first pivot, then nonconstant MPoly pivots x and xy - 1.
    x, y = MPoly.var(("x", "y"), "x"), MPoly.var(("x", "y"), "y")
    M = [[1, 0, 0, 0], [0, x, 1, 0], [0, 1, y, 0], [0, 0, 0, 1]]
    assert det_bareiss(M) == naive_det(M) == x * y - 1


def test_det_conic_sylvester_against_naive_and_formula():
    M = sylvester(_symbolic_form("u", 2, 2), _symbolic_form("v", 2, 2))

    def w(i, j):
        return MPoly.var(UV2, f"u{i}") * MPoly.var(UV2, f"v{j}") - MPoly.var(
            UV2, f"u{j}"
        ) * MPoly.var(UV2, f"v{i}")

    expected = w(0, 2) ** 2 - w(0, 1) * w(1, 2)
    oracle = naive_det([list(r) for r in M.entries])
    assert oracle == expected
    assert det_bareiss(M) == expected
    assert det_laplace_split(M) == expected


def test_det_random_symbolic_matches_naive():
    rng = random.Random(31)
    names = ("a", "b", "c")
    for _ in range(10):
        M = [
            [
                MPoly(
                    names,
                    {
                        tuple(rng.randint(0, 1) for _ in names): rng.randint(-3, 3)
                        for _ in range(rng.randint(0, 2))
                    },
                )
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        assert det_bareiss(M) == naive_det(M)


# -- resultants ------------------------------------------------------------------


def test_resultant_linear_forms():
    r = resultant(_symbolic_form("u", 1, 1), _symbolic_form("v", 1, 1))
    assert r == MPoly.var(UV1, "u0") * MPoly.var(UV1, "v1") - MPoly.var(UV1, "u1") * MPoly.var(
        UV1, "v0"
    )


def test_resultant_of_form_with_itself_vanishes():
    rng = random.Random(2)
    for d in (1, 2, 3):
        h = rand_form(rng, d)
        assert resultant(h, h) == 0


def test_resultant_value_from_explicit_roots():
    # roots of z0^2 - z1^2 are (1, 1) and (-1, 1); the resultant against
    # z0^2 + z1^2 is the product of its values there (leading coeffs are 1)
    h1 = BinaryForm([1, 0, -1])
    h2 = BinaryForm([1, 0, 1])
    expected = h2.evaluate(Fraction(1), Fraction(1)) * h2.evaluate(Fraction(-1), Fraction(1))
    assert expected == 4
    assert resultant(h1, h2) == expected


def test_resultant_vanishes_iff_common_root():
    rng = random.Random(41)
    checked = 0
    while checked < 100:
        d = rng.randint(1, 4)
        if rng.random() < 0.5:
            # plant a common linear factor
            common = rand_form(rng, 1)
            a = rand_form(rng, d - 1) if d > 1 else BinaryForm([rng.randint(1, 3)])
            b = rand_form(rng, d - 1) if d > 1 else BinaryForm([rng.randint(1, 3)])
            h1, h2 = common * a, common * b
        else:
            h1, h2 = rand_form(rng, d), rand_form(rng, d)
        if h1.is_zero or h2.is_zero:
            continue
        vanishes = resultant(h1, h2) == 0
        shares_root = form_gcd(h1, h2).degree >= 1
        assert vanishes == shares_root
        checked += 1


def test_resultant_swap_sign():
    rng = random.Random(43)
    for _ in range(30):
        d = rng.randint(1, 3)
        h1, h2 = rand_form(rng, d), rand_form(rng, d)
        sign = -1 if (d * d) % 2 else 1
        assert resultant(h2, h1) == sign * resultant(h1, h2)


def test_resultant_row_operation_symbolic_lambda():
    rng = random.Random(47)
    ring = ("lam",)
    lam = MPoly.var(ring, "lam")
    for d in (1, 2, 3):
        h1, h2 = rand_form(rng, d), rand_form(rng, d)
        shifted = BinaryForm(
            [MPoly.const(ring, c2) + lam * c1 for c1, c2 in zip(h1.coeffs, h2.coeffs)]
        )
        lifted_h1 = BinaryForm([MPoly.const(ring, c) for c in h1.coeffs])
        r = resultant(lifted_h1, shifted)
        assert r == MPoly.const(ring, resultant(h1, h2))


def test_resultant_multiplicative_on_split_forms():
    rng = random.Random(53)
    for _ in range(10):
        for k in (2, 3):
            ls = [rand_form(rng, 1) for _ in range(k)]
            ms = [rand_form(rng, 1) for _ in range(k)]
            prod_l = ls[0]
            prod_m = ms[0]
            for x in ls[1:]:
                prod_l = prod_l * x
            for x in ms[1:]:
                prod_m = prod_m * x
            expected = Fraction(1)
            for l in ls:
                for m in ms:
                    expected *= resultant(l, m)
            assert resultant(prod_l, prod_m) == expected


def test_laplace_equals_bareiss_on_symbolic_instances():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        names = uv_names(n)
        rows = [[rng.randint(-3, 3) for _ in range(d + 1)] for _ in range(n + 1)]
        h1 = BinaryForm(
            [
                sum(
                    (MPoly.var(names, f"u{i}") * c for i, c in enumerate(col) if c),
                    MPoly.zero(names),
                )
                for col in zip(*rows)
            ]
        )
        h2 = BinaryForm(
            [
                sum(
                    (MPoly.var(names, f"v{i}") * c for i, c in enumerate(col) if c),
                    MPoly.zero(names),
                )
                for col in zip(*rows)
            ]
        )
        assert resultant(h1, h2) == det_bareiss(sylvester(h1, h2))


def test_minor_expansion_leaves_no_reference_cycles():
    # Each level of minors must be freed by reference counting once the
    # next level is built, and the last when the determinant returns, not
    # held until the cyclic collector runs.
    import gc

    from chowforms import CurveMap, cayley_biform, det_expand

    rng = random.Random(11)
    M = [[MPoly.var(UV2, rng.choice(UV2)) * rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
    f = CurveMap.from_coeffs([[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)])
    gc.collect()
    gc.disable()
    try:
        for compute in (lambda: det_expand(M), lambda: det_laplace_split(M), lambda: cayley_biform(f)):
            compute()
            assert gc.collect() == 0
    finally:
        gc.enable()


# -- packed minor kernel -----------------------------------------------------------


def _sparse_poly(rng, names, top, terms):
    return MPoly(
        names,
        {tuple(rng.randint(0, top) for _ in names): rng.randint(-4, 4) for _ in range(terms)},
    )


def test_det_expand_matches_bareiss_and_naive_with_two_byte_fields():
    # a^100 b^100 on the diagonal of a 3 x 3 matrix: the determinant holds
    # exponents of 300, past one byte, so the packed fields are two bytes wide.
    rng = random.Random(83)
    names = ("a", "b", "eps")
    big = MPoly.monomial(names, (100, 100, 0))
    for _ in range(8):
        M = [
            [_sparse_poly(rng, names, 100, rng.randint(0, 2)) + (big if i == j else 0) for j in range(3)]
            for i in range(3)
        ]
        expected = naive_det(M)
        assert max(e for exps in expected.terms for e in exps) > 255
        assert det_expand(M) == det_bareiss(M) == expected


def test_det_expand_numeric_matrices_give_numbers():
    assert det_expand([]) == 1 and type(det_expand([])) is int
    assert det_expand([[1, 2], [3, 4]]) == -2
    half = Fraction(1, 2)
    value = det_expand([[half, 1], [3, half]])
    assert value == Fraction(-11, 4) and not isinstance(value, MPoly)
    assert type(det_expand([[half, 1], [2, 6]])) is int  # 3 - 2, normal form
    rng = random.Random(89)
    for _ in range(10):
        M = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)]
        assert det_expand(M) == det_bareiss(M) == naive_det(M)


def test_det_expand_truncated_equals_full_then_truncated():
    # The kernel takes no truncation: the Kronecker-coded determinant of the
    # family routes, its eps-orders below K kept, decodes to det_expand's
    # full determinant truncated modulo eps^K, for every K up to past it.
    rng = random.Random(97)
    names = ("p", "q", "eps")
    for _ in range(5):
        M = [[_sparse_poly(rng, names, 2, rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
        full = det_expand(M)
        top = full.degree_in("eps")
        for K in range(top + 3):
            assert coded_det_at(M, K) == truncated(full, K)
        assert coded_det_at(M, 0) == MPoly.zero(names)


def test_det_expand_rejects_mixed_rings():
    with pytest.raises(ValueError, match="different rings"):
        det_expand([[MPoly.var(("x",), "x"), 0], [0, MPoly.var(("y",), "y")]])


def test_det_expand_field_width_covers_the_last_variable():
    # x^100 entries in the last variable, degree at most 1 in a: every
    # entry fits one-byte fields, but the determinant holds x^300, so the
    # fields need two bytes, and a width read off a alone (one byte) would
    # silently carry x's field into a's.
    names = ("a", "x")
    a, x = (MPoly.var(names, v) for v in names)
    big = x**100
    M = [
        [big + a, 2 * big, a],
        [big, a * big + 1, 3 * big],
        [a, big - 1, a * big],
    ]
    expected = naive_det(M)
    assert expected.degree_in("x") == 300 and expected.degree_in("a") <= 3
    assert det_expand(M) == expected


def test_laplace_split_on_fraction_sylvester_matrices():
    rng = random.Random(101)
    for _ in range(15):
        d = rng.randint(1, 4)
        h1, h2 = (
            BinaryForm([Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(d + 1)])
            for _ in range(2)
        )
        M = sylvester(h1, h2)
        assert det_laplace_split(M) == det_bareiss(M)


# -- minor kernel edge cases -------------------------------------------------------


def _inversion_sign(perm):
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


@pytest.mark.parametrize("n", [4, 5])
def test_permutation_matrices_give_their_sign(n):
    for perm in itertools.permutations(range(n)):
        M = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
        sign = _inversion_sign(perm)
        value = det_expand(M)
        assert value == det_bareiss(M) == naive_det(M) == sign and type(value) is int
        if n % 2 == 0:
            assert det_laplace_split(M) == sign


def _zero_patterns(rng, n, entry):
    """n x n matrices whose determinant vanishes for structural reasons: a
    zero row, a zero column, and nonzero entries confined to a pattern
    with no perfect matching (rows 0..2 meet only columns 0 and 1)."""
    full = [[entry() for _ in range(n)] for _ in range(n)]
    row = [r[:] for r in full]
    row[rng.randrange(n)] = [0] * n
    col = [r[:] for r in full]
    j = rng.randrange(n)
    for r in col:
        r[j] = 0
    hall = [[x if i > 2 or c < 2 else 0 for c, x in enumerate(r)] for i, r in enumerate(full)]
    return row, col, hall


def test_structurally_singular_numeric_matrices_give_the_int_zero():
    rng = random.Random(103)
    for n in (4, 5, 6):
        for M in _zero_patterns(rng, n, lambda: Fraction(rng.randint(1, 9), rng.randint(1, 3))):
            assert naive_det(M) == 0
            for value in (det_expand(M), det_bareiss(M)) + ((det_laplace_split(M),) if n % 2 == 0 else ()):
                assert value == 0 and type(value) is int


def test_structurally_singular_polynomial_matrices_give_the_ring_zero():
    rng = random.Random(107)
    names = ("a", "b", "c")
    zero = MPoly.zero(names)
    for n in (4, 5, 6):
        for M in _zero_patterns(rng, n, lambda: _sparse_poly(rng, names, 2, 2) + 1):
            M = [[x if isinstance(x, MPoly) else zero for x in r] for r in M]
            assert naive_det(M) == zero
            for value in (det_expand(M), det_bareiss(M)) + ((det_laplace_split(M),) if n % 2 == 0 else ()):
                assert isinstance(value, MPoly) and value.names == names and value == zero


def _block_diagonal(A, B, zero):
    k, m = len(A), len(B)
    return [list(r) + [zero] * m for r in A] + [[zero] * k + list(r) for r in B]


def test_block_diagonal_determinant_is_the_product_of_the_blocks():
    rng = random.Random(109)
    names = ("a", "b")
    zero = MPoly.zero(names)
    for k, m in ((1, 3), (2, 2), (3, 2), (3, 3)):
        A = [[_sparse_poly(rng, names, 2, rng.randint(0, 2)) for _ in range(k)] for _ in range(k)]
        B = [[_sparse_poly(rng, names, 2, rng.randint(0, 2)) for _ in range(m)] for _ in range(m)]
        M = _block_diagonal(A, B, zero)
        expected = naive_det(A) * naive_det(B)
        assert det_expand(M) == det_bareiss(M) == naive_det(M) == expected
        if k == m:
            assert det_laplace_split(M) == expected
        N = _block_diagonal(
            [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)],
            [[Fraction(rng.randint(-4, 4), 2) for _ in range(m)] for _ in range(m)],
            0,
        )
        assert det_expand(N) == det_bareiss(N) == naive_det(N)


def test_laplace_split_with_a_zero_leading_coefficient():
    # coeffs[0] = 0 puts a root at (1, 0): the first column of the form's
    # Sylvester block is zero there.  Both forms so: a common root, so 0.
    rng = random.Random(113)
    for _ in range(12):
        d = rng.randint(1, 4)
        h1 = BinaryForm([0] + [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)])
        h2 = BinaryForm([rng.randint(-6, 6) for _ in range(d + 1)])
        for a, b in ((h1, h2), (h2, h1)):
            M = sylvester(a, b)
            assert det_laplace_split(M) == det_bareiss(M) == naive_det(M.entries)
        both = det_laplace_split(sylvester(h1, BinaryForm([0] + list(h2.coeffs[1:]))))
        assert both == 0 and type(both) is int
    names = uv_names(1)
    h1 = BinaryForm([0] + [MPoly.var(names, x) for x in ("u0", "u1")])
    h2 = BinaryForm([MPoly.var(names, "v0"), 0, MPoly.var(names, "v1")])
    M = sylvester(h1, h2)
    assert det_laplace_split(M) == det_bareiss(M) == naive_det(M.entries)
    zero = det_laplace_split(sylvester(h1, BinaryForm([0, MPoly.var(names, "v0"), MPoly.var(names, "v1")])))
    assert isinstance(zero, MPoly) and zero == MPoly.zero(names)
