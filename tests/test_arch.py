"""Arches: staircase values, concavity, xi probes, and hull extraction."""

from fractions import Fraction

import pytest

from conftest import make_quadrant
from orthogeo import (
    Arch,
    EmptyBlock,
    InvalidStructure,
    Point,
    SqrtSum,
    arch_from_xi,
    extreme_arch,
    is_concave,
    point_from_b,
    stable_ideals,
    v_sq,
    xi,
)

F = Fraction

QUAD = make_quadrant()
IDEALS = stable_ideals(QUAD)
X = point_from_b(QUAD, {"b1": 1, "b2": "2/5"})
Y = point_from_b(QUAD, {"c1": "1/2", "c2": 1})
BEST = Arch(
    ["{b1,b2}", "{b1,c1}", "{c1,c2}"],
    [F(4, 25), F(1)],
    [F(1, 4), F(1)],
)


def test_arch_validation():
    with pytest.raises(InvalidStructure, match="two ends"):
        Arch(["a"], [], [])
    with pytest.raises(InvalidStructure, match="per consecutive"):
        Arch(["a", "b"], [F(1), F(1)], [F(1)])
    with pytest.raises(EmptyBlock):
        Arch(["a", "b"], [F(0)], [F(1)])
    with pytest.raises(EmptyBlock):
        Arch(["a", "b", "c"], [F(1), F(1)], [F(1), F(-1)])


def test_arch_equality_and_steps():
    again = Arch(BEST.members, BEST.xsq, BEST.ysq)
    assert again == BEST and hash(again) == hash(BEST)
    assert BEST.steps == 2


def test_v_sq_exact_values():
    assert v_sq(BEST) == SqrtSum(F(481, 100))
    single = Arch(["{b1,b2}", "{c1,c2}"], [F(29, 25)], [F(5, 4)])
    assert v_sq(single) == SqrtSum(F(241, 100)) + SqrtSum.sqrt(F(29, 5))


def test_is_concave():
    assert is_concave(BEST)
    swapped = Arch(list(reversed(BEST.members)), [F(1), F(4, 25)], [F(1), F(1, 4)])
    assert not is_concave(swapped)
    assert is_concave(Arch(["a", "b"], [F(7)], [F(2)]))
    equal_ratios = Arch(["a", "b", "c"], [F(1), F(1)], [F(1), F(1)])
    assert not is_concave(equal_ratios)


def test_xi_projections():
    assert xi(IDEALS, "{b1,c1}", X, Y) == (F(1), F(1, 4))
    assert xi(IDEALS, "{b1,b2}", X, Y) == (F(29, 25), F(0))
    assert xi(IDEALS, "{c1,c2}", X, Y) == (F(0), F(5, 4))
    assert xi(IDEALS, "{}", X, Y) == (F(0), F(0))
    assert xi(IDEALS, "{b2,c2}", X, Y) == (F(4, 25), F(1))


def test_arch_from_xi():
    arch = arch_from_xi(
        ["{b1,b2}", "{b1,c1}", "{c1,c2}"],
        [(F(29, 25), F(0)), (F(1), F(1, 4)), (F(0), F(5, 4))],
    )
    assert arch == BEST


def test_extreme_arch_quadrant():
    table = {u: xi(IDEALS, u, X, Y) for u in IDEALS.ids}

    def probe(w1, w2, _lo, _hi):
        best = max(
            sorted(table),
            key=lambda u: (w1 * table[u][0] + w2 * table[u][1], table[u][1]),
        )
        return best, table[best]

    arch = extreme_arch(
        probe, ("{b1,b2}", table["{b1,b2}"]), ("{c1,c2}", table["{c1,c2}"])
    )
    assert arch == BEST


def test_extreme_arch_single_block():
    table = {"{}": (F(0), F(0)), "{b}": (F(1, 4), F(0)), "{c}": (F(0), F(1, 4))}

    def probe(w1, w2, _lo, _hi):
        best = max(
            sorted(table),
            key=lambda u: (w1 * table[u][0] + w2 * table[u][1], table[u][1]),
        )
        return best, table[best]

    arch = extreme_arch(probe, ("{b}", table["{b}"]), ("{c}", table["{c}"]))
    assert arch.members == ("{b}", "{c}")
    assert v_sq(arch) == SqrtSum(1)


def test_polygon_value_grows_when_corners_drop():
    # staircase (4,0) -> (3,2) -> (0,3) against its single-chord subarch
    full = arch_from_xi(["p", "m", "q"], [(F(4), F(0)), (F(3), F(2)), (F(0), F(3))])
    chord = arch_from_xi(["p", "q"], [(F(4), F(0)), (F(0), F(3))])
    assert (v_sq(chord) - v_sq(full)).sign() > 0
