"""Distributive sublattices, retractions, and cube frames."""

from fractions import Fraction

import pytest

from conftest import make_cube, make_m3, make_quadrant
from orthogeo import (
    ChainNotMaximal,
    Frame,
    GradedPoset,
    InvalidPoint,
    NotModular,
    NotOrthogonal,
    Point,
    SupportOutsideFrame,
    birkhoff_projection,
    build_frame,
    classify,
    distributive_frame,
    distributive_sublattice,
    point_from_b,
    stable_ideals,
)

F = Fraction


def make_hexagon() -> GradedPoset:
    """A graded lattice containing a pentagon; not modular."""
    return GradedPoset(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
    )


# -- sublattice generation ----------------------------------------------------


def test_two_chain_sublattice_m3():
    m3 = make_m3()
    d = distributive_sublattice(m3, [("0", "a", "1"), ("0", "b", "1")])
    assert d == ("0", "a", "b", "1")
    assert distributive_sublattice(m3, [("0", "c", "1"), ("0", "c", "1")]) == ("0", "c", "1")


def test_two_chain_sublattice_requires_maximal_chains():
    m3 = make_m3()
    with pytest.raises(ChainNotMaximal):
        distributive_sublattice(m3, [("0", "1"), ("0", "b", "1")])


def test_sublattice_rejects_non_modular_host():
    hexagon = make_hexagon()
    assert classify(hexagon)["lattice"] and not classify(hexagon)["modular"]
    with pytest.raises(NotModular):
        distributive_sublattice(hexagon, [("0", "a", "c", "1"), ("0", "b", "d", "1")])


def test_four_chain_sublattice_quadrant():
    ideals = stable_ideals(make_quadrant())
    pi = ("{}", "{b1}", "{b1,b2}")
    sigma = ("{}", "{c2}", "{c1,c2}")
    b, c = distributive_sublattice(ideals, [pi, sigma, pi, sigma])
    assert b == pi and c == sigma


def test_four_chain_count_guard():
    m3 = make_m3()
    with pytest.raises(Exception):
        distributive_sublattice(m3, [("0", "a", "1")])


# -- retraction onto a distributive sublattice ---------------------------------


def test_birkhoff_projection_cube():
    cube = make_cube()
    gens = ["100", "010", "001"]
    assert birkhoff_projection(cube, gens, "110") == ["100", "010"]
    assert birkhoff_projection(cube, gens, "000") == []
    assert birkhoff_projection(cube, gens, "111") == gens
    assert birkhoff_projection(cube, gens, "011") == ["010", "001"]


def test_birkhoff_projection_m3_collapses():
    m3 = make_m3()
    # projecting the third atom onto the sublattice spanned by a and b
    assert birkhoff_projection(m3, ["a", "b"], "c") == ["b"]
    assert birkhoff_projection(m3, ["b", "a"], "c") == ["a"]


def test_birkhoff_projection_needs_maximal_running_joins():
    cube = make_cube()
    with pytest.raises(ChainNotMaximal):
        birkhoff_projection(cube, ["100", "011"], "110")
    with pytest.raises(ChainNotMaximal):
        birkhoff_projection(cube, ["100", "010"], "110")  # stops below top


# -- frames ---------------------------------------------------------------------


QUAD = make_quadrant()
IDEALS = stable_ideals(QUAD)
PI = ("{}", "{b1}", "{b1,b2}")
SIGMA = ("{}", "{c2}", "{c1,c2}")
ARCH_MEMBERS = ["{b1,b2}", "{b1,c1}", "{c1,c2}"]


def quadrant_frame() -> Frame:
    return distributive_frame(IDEALS, "{b1,b2}", "{c1,c2}", ARCH_MEMBERS, PI, SIGMA)


def test_frame_structure():
    fr = quadrant_frame()
    assert set(fr.vertices) == {"{b1}", "{b1,b2}", "{c1}", "{c2}"}
    assert fr.side_b == {"{b1}", "{b1,b2}"}
    assert fr.side_c == {"{c1}", "{c2}"}
    assert fr.isolated == frozenset()
    assert set(fr.pip.edges) == {
        ("{b1,b2}", "{c1}"),
        ("{b1,b2}", "{c2}"),
        ("{b1}", "{c2}"),
    }


def test_distributive_frame_is_build_frame():
    fr = quadrant_frame()
    direct = build_frame(
        IDEALS, "{b1,b2}", "{c1,c2}", ARCH_MEMBERS, PI, SIGMA, base="{}", zero="{}"
    )
    for attr in ("vertices", "side_b", "side_c", "isolated"):
        assert getattr(fr, attr) == getattr(direct, attr)


def test_frame_element_shadow_roundtrip():
    fr = quadrant_frame()
    spanned = ["{}", "{b1}", "{b1,b2}", "{c1}", "{c2}", "{c1,c2}", "{b1,c1}"]
    for e in spanned:
        assert fr.element_of(fr.ideal_of(e)) == e
    # {b2} is not a join of frame vertices, so its shadow collapses
    assert fr.element_of(fr.ideal_of("{b2}")) == "{}"
    assert fr.element_of(frozenset()) == "{}"
    with pytest.raises(InvalidPoint, match="no join"):
        fr.element_of({"{b1}", "{c2}"})
    with pytest.raises(SupportOutsideFrame):
        fr.b_coords(Point({"{b2}": F(1, 2), "{}": F(1, 2)}))


def test_frame_b_coords_roundtrip():
    fr = quadrant_frame()
    x = point_from_b(QUAD, {"b1": 1, "b2": "2/5"})
    bx = fr.b_coords(x)
    assert bx == {"{b1,b2}": F(2, 5), "{b1}": F(1)}
    assert fr.point_from_b(bx) == x
    y = point_from_b(QUAD, {"c1": "1/2", "c2": 1})
    by = fr.b_coords(y)
    assert by == {"{c1}": F(1, 2), "{c2}": F(1)}
    assert fr.point_from_b(by) == y
    mixed = fr.point_from_b({"{b1}": F(1, 2), "{c1}": F(1, 4)})
    assert mixed == Point({"{b1,c1}": F(1, 4), "{b1}": F(1, 4), "{}": F(1, 2)})


def test_frame_point_from_b_rejects():
    fr = quadrant_frame()
    with pytest.raises(InvalidPoint, match="unknown frame vertex"):
        fr.point_from_b({"{b2}": F(1, 2)})
    with pytest.raises(InvalidPoint, match="outside"):
        fr.point_from_b({"{b1}": F(3, 2)})
    with pytest.raises(InvalidPoint, match="no join"):
        fr.point_from_b({"{b1}": F(1, 2), "{c2}": F(1, 2)})
    with pytest.raises(InvalidPoint, match="num/den"):
        fr.point_from_b({"{b1}": 0.5})


def test_frame_support_outside():
    m3 = make_m3()
    elems = distributive_sublattice(m3, [("0", "a", "1"), ("0", "b", "1")])
    fr = Frame(m3, elems, elems, base="1", zero="0")
    assert fr.isolated == frozenset(fr.vertices)
    with pytest.raises(SupportOutsideFrame):
        fr.b_coords(Point.vertex("c"))


def test_distributive_frame_gates():
    with pytest.raises(NotOrthogonal):
        distributive_frame(
            IDEALS, "{b1,c1}", "{c2}", ["{b1,c1}", "{c2}"],
            ("{}", "{b1}", "{b1,c1}"), ("{}", "{c2}"),
        )
    with pytest.raises(ChainNotMaximal):
        distributive_frame(
            IDEALS, "{b1,b2}", "{c1,c2}", ARCH_MEMBERS, ("{}", "{b1,b2}"), SIGMA
        )
    hexagon = make_hexagon()
    with pytest.raises(NotModular):
        distributive_frame(
            hexagon, "c", "d", ["c", "d"], ("0", "a", "c"), ("0", "b", "d")
        )
