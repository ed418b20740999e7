import random
from fractions import Fraction

import pytest

from chowforms import BinaryForm, CurveMap, Plane, act_gl2, act_gln


def test_curve_map_validation():
    with pytest.raises(ValueError):
        CurveMap.from_coeffs([[1, 0]])  # needs n >= 1
    with pytest.raises(ValueError):
        CurveMap.from_coeffs([[1, 0], [1, 0, 0]])  # mixed degrees
    with pytest.raises(ValueError):
        CurveMap.from_coeffs([[1], [0]])  # degree 0
    with pytest.raises(ValueError):
        CurveMap.from_coeffs([[0, 0], [0, 0]])  # all zero
    f = CurveMap.from_coeffs([[1, 0], [0, 1], [0, 0]])
    assert (f.n, f.d) == (2, 1)
    assert f.point((1, 2)) == (Fraction(1), Fraction(2), Fraction(0))


def test_plane_validation():
    with pytest.raises(ValueError):
        Plane((1, 2, 0), (2, 4, 0))
    with pytest.raises(ValueError):
        Plane((0, 0, 0), (1, 0, 0))
    p = Plane((1, 0, 0), (0, 1, 0))
    assert p.n == 2


def test_act_gl2_examples():
    f = CurveMap.from_coeffs([[1, 0], [0, 1], [0, 0]])
    assert act_gl2(f, [[1, 0], [0, 1]]) == f
    swapped = act_gl2(f, [[0, 1], [1, 0]])
    assert swapped.components[0] == BinaryForm([0, 1])
    assert swapped.components[1] == BinaryForm([1, 0])
    with pytest.raises(ValueError, match="^singular matrix$"):
        act_gl2(f, [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="^singular matrix$"):
        act_gl2(f, [[0, Fraction(1, 2)], [0, 3]])
    with pytest.raises(ValueError):
        act_gl2(f, [])


@pytest.mark.parametrize(
    "A", [[[2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0]], [[1, 0], [0, 1, 0]]]
)
def test_act_gl2_rejects_non_2x2_matrices(A):
    f = CurveMap.from_coeffs([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(ValueError, match="^matrix must be 2x2$"):
        act_gl2(f, A)


def test_act_gln_examples():
    f = CurveMap.from_coeffs([[1, 0], [0, 1], [0, 0]])
    B = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    g = act_gln(f, B)
    assert g.components[0] == BinaryForm([0, 1])
    assert g.components[1] == BinaryForm([1, 0])
    with pytest.raises(ValueError, match="^singular matrix$"):
        act_gln(f, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="^singular matrix$"):
        act_gln(f, [[1, 2, 3], [Fraction(1, 2), 1, Fraction(3, 2)], [0, 1, 1]])
    with pytest.raises(ValueError):
        act_gln(f, [[1, 0], [0, 1]])


def test_bools_are_not_coefficients():
    f = CurveMap.from_coeffs([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(TypeError):
        BinaryForm([True, 0, 1])
    with pytest.raises(TypeError):
        CurveMap.from_coeffs([[True, 0], [0, 1], [0, 0]])
    with pytest.raises(TypeError):
        act_gln(f, [[True, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(TypeError):
        f.scale(True)
    assert BinaryForm([1, 0, 1]).coeffs == (1, 0, 1)
    assert all(type(c) is int for c in BinaryForm([1, 0, 1]).coeffs)
    g = act_gln(f, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    assert all(type(c) is int for c in g.components[1].coeffs)


def test_rand_curve_birational_refuses_maps_onto_the_line_at_once(monkeypatch):
    # A degree-d map P^1 -> P^1 has map degree d, so no d >= 2 draw is ever
    # birational: the helper refuses before drawing or checking anything.
    import helpers

    def forbidden(*args, **kwargs):
        raise AssertionError("a curve was checked")

    monkeypatch.setattr(helpers, "check_curve", forbidden)
    rng = random.Random(3)
    state = rng.getstate()
    for d in (2, 3, 7):
        with pytest.raises(ValueError, match=f"degree-{d} map onto P\\^1"):
            helpers.rand_curve_birational(rng, 1, d)
    assert rng.getstate() == state
    monkeypatch.undo()
    f = helpers.rand_curve_birational(rng, 1, 1)
    assert (f.n, f.d) == (1, 1)
