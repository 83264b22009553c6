"""The frame builder: apartment sides, their mask check, and cube frames."""

import random
from fractions import Fraction

import pytest

from conftest import (
    make_m3,
    make_quadrant,
    random_bipartite_pip,
    run_python,
    subspace_lattice,
)
from orthogeo import (
    Frame,
    GradedPoset,
    InvalidPoint,
    InvalidStructure,
    NotModular,
    Point,
    SupportOutsideFrame,
    build_frame,
    classify,
    point_from_b,
    stable_ideals,
)
from orthogeo.frames import _apartment, _sublattice_join_irreducibles
from orthogeo.poset import incidence_pip
from reference import _check_distributive_sublattice, interval, modular_lattice_catalog

F = Fraction


def make_hexagon() -> GradedPoset:
    """A graded lattice containing a pentagon; not modular."""
    return GradedPoset(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
    )


# -- sublattice generation ----------------------------------------------------


def test_two_chain_sublattice_m3():
    # two maximal chains of M3 generate the square {0, a, b, 1}, both as the
    # apartment of the top with itself and as the P1-form frame of the top
    m3 = make_m3()
    b, c = _apartment(m3, ("0", "a", "1"), ("0", "b", "1"), ("1",), ("1",))
    assert m3.names_of(b) == m3.names_of(c) == {"0", "a", "b", "1"}
    fr = build_frame(m3, "1", "1", ("1",), ("a",), ("b",), base="1")
    assert fr.vertices == ("a", "b")
    # one chain twice generates only itself
    fr = build_frame(m3, "1", "1", ("1",), ("c",), ("c",), base="1")
    assert fr.vertices == ("1", "c")


def test_sublattice_rejects_non_modular_host():
    hexagon = make_hexagon()
    assert classify(hexagon)["lattice"] and not classify(hexagon)["modular"]
    with pytest.raises(NotModular, match="skips ranks"):
        build_frame(hexagon, "1", "1", ("1",), ("c",), ("d",), base="1")


def test_four_chain_sublattice_quadrant():
    ideals = stable_ideals(make_quadrant())
    pi = ("{}", "{b1}", "{b1,b2}")
    sigma = ("{}", "{c2}", "{c1,c2}")
    b, c = _apartment(ideals, pi, sigma, pi, sigma)
    assert ideals.names_of(b) == set(pi) and ideals.names_of(c) == set(sigma)


# -- frames ---------------------------------------------------------------------


QUAD = make_quadrant()
IDEALS = stable_ideals(QUAD)
PI = ("{}", "{b1}", "{b1,b2}")
SIGMA = ("{}", "{c2}", "{c1,c2}")
ARCH_MEMBERS = ["{b1,b2}", "{b1,c1}", "{c1,c2}"]


def quadrant_frame() -> Frame:
    return build_frame(
        IDEALS, "{b1,b2}", "{c1,c2}", ARCH_MEMBERS, PI, SIGMA, base="{}"
    )


def test_frame_structure():
    fr = quadrant_frame()
    assert set(fr.vertices) == {"{b1}", "{b1,b2}", "{c1}", "{c2}"}
    assert fr.side_b == {"{b1}", "{b1,b2}"}
    assert fr.side_c == {"{c1}", "{c2}"}
    assert fr.isolated == frozenset()
    # the unbounded pairs among the vertices, each crossing the two sides
    assert set(incidence_pip(IDEALS, fr.vertices).edges) == {
        ("{b1,b2}", "{c1}"),
        ("{b1,b2}", "{c2}"),
        ("{b1}", "{c2}"),
    }


def test_frame_rejects_unbounded_pairs_off_the_sides():
    # a base at the top of the first chain leaves that side empty, so the
    # three unbounded pairs all miss it; the first by sorted ids is named
    with pytest.raises(
        InvalidStructure, match=r"unbounded pair '\{b1,b2\}','\{c1,c2\}' does not cross"
    ):
        Frame(IDEALS, IDEALS.mask_of(PI), IDEALS.mask_of(SIGMA), base="{b1,b2}")


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
    side = ("0", "a", "b", "1")
    fr = Frame(m3, m3.mask_of(side), m3.mask_of(side), base="1")
    assert fr.isolated == frozenset(fr.vertices)
    with pytest.raises(SupportOutsideFrame):
        fr.b_coords(Point.vertex("c"))


# -- the mask check against the cubic reference -------------------------------


def verdicts(poset, members):
    """Accept (True) or reject (False) from the mask check and from the
    reference, on a member mask; both must reject with InvalidStructure."""
    out = []
    for check in (
        lambda: _sublattice_join_irreducibles(poset, members),
        lambda: _check_distributive_sublattice(poset, poset.names_of(members)),
    ):
        try:
            check()
        except InvalidStructure:
            out.append(False)
        else:
            out.append(True)
    return out


def one_lower_cover(poset, members):
    """Members with exactly one maximal member strictly below, by leq."""
    elems = poset.names_of(members)
    out = set()
    for e in elems:
        below = [d for d in elems if d != e and poset.leq(d, e)]
        maximal = [d for d in below if not any(d2 != d and poset.leq(d, d2) for d2 in below)]
        if len(maximal) == 1:
            out.add(e)
    return out


def random_chain(rng, poset, lo, hi):
    chain = [lo]
    while chain[-1] != hi:
        rank = poset.rank_of(chain[-1]) + 1
        covers = [w for w in interval(poset, chain[-1], hi) if poset.rank_of(w) == rank]
        chain.append(rng.choice(covers))
    return tuple(chain)


def random_apartment_sides(rng, poset):
    """Both sides of the apartment of two random elements, built over random
    maximal chains."""
    p, q = rng.choice(poset.elements), rng.choice(poset.elements)
    m = poset.meet(p, q)
    bottom = poset.bottom
    return _apartment(
        poset,
        random_chain(rng, poset, bottom, p),
        random_chain(rng, poset, bottom, q),
        random_chain(rng, poset, m, p),
        random_chain(rng, poset, m, q),
    )


def test_mask_check_matches_reference_on_every_small_lattice_subset():
    accepted = rejected = 0
    for poset in modular_lattice_catalog(8):
        for members in range(1, 1 << len(poset)):
            mask_says, reference_says = verdicts(poset, members)
            assert mask_says == reference_says, (poset.ids, sorted(poset.names_of(members)))
            accepted += mask_says
            rejected += not mask_says
    assert accepted > 2000 and rejected > 8000


def test_mask_check_matches_reference_on_corrupted_apartment_sides():
    rng = random.Random(11)
    counts = {"side": 0, "dropped": 0, "added": 0, "skipped": 0}
    for _ in range(150):
        poset = stable_ideals(random_bipartite_pip(rng, 5))
        for side in random_apartment_sides(rng, poset):
            # every apartment side is accepted, with its join-irreducibles
            assert verdicts(poset, side) == [True, True]
            jmask = _sublattice_join_irreducibles(poset, side)
            assert poset.names_of(jmask) == one_lower_cover(poset, side)
            counts["side"] += 1
            members = sorted(poset.names_of(side))
            others = [e for e in poset.elements if e not in members]
            ranks = sorted({poset.rank_of(e) for e in members})
            corrupted = {
                "dropped": [
                    side & ~poset.mask_of([e]) for e in rng.sample(members, min(3, len(members)))
                ],
                "added": [
                    side | poset.mask_of([e]) for e in rng.sample(others, min(3, len(others)))
                ],
                # a whole rank level dropped from the middle: covers skip it
                "skipped": [
                    side & ~poset.mask_of([e for e in members if poset.rank_of(e) == r])
                    for r in ranks[1:-1]
                ],
            }
            for kind, sets in corrupted.items():
                for members_mask in sets:
                    if not members_mask:
                        continue
                    mask_says, reference_says = verdicts(poset, members_mask)
                    assert mask_says == reference_says, (kind, sorted(poset.names_of(members_mask)))
                    counts[kind] += not mask_says
    assert counts["side"] == 300
    assert all(counts[kind] > 20 for kind in ("dropped", "added", "skipped")), counts


def test_mask_check_rejects_m3_inside_a_modular_host():
    f3, name = subspace_lattice(3)
    assert classify(f3, "modular") and not classify(f3, "distributive")
    # the subspaces of one plane: the 5-element subspace lattice of F_2^2
    plane = [name({0}), name({0, 1}), name({0, 2}), name({0, 3}), name({0, 1, 2, 3})]
    members = f3.mask_of(plane)
    assert verdicts(f3, members) == [False, False]
    with pytest.raises(InvalidStructure, match="distributivity fails"):
        _sublattice_join_irreducibles(f3, members)
    # two of its lines make a distributive square
    square = f3.mask_of(plane[:3] + plane[4:])
    assert verdicts(f3, square) == [True, True]
    # a cover that skips the host's line rank
    with pytest.raises(InvalidStructure, match="skips host ranks"):
        _sublattice_join_irreducibles(f3, f3.mask_of([plane[0], plane[4]]))
    # a line without its meet with another line
    with pytest.raises(InvalidStructure, match="meet-closed"):
        _sublattice_join_irreducibles(f3, f3.mask_of(plane[1:3] + plane[4:]))


def test_frame_rejects_corrupted_sides_under_python_O():
    code = """
from orthogeo import Frame, GradedPoset, InvalidStructure
m3 = GradedPoset(
    ["0", "a", "b", "c", "1"],
    [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
)
print(__debug__)
for side in (m3.elements, ["0", "1"], ["0", "a", "b"]):
    try:
        Frame(m3, m3.mask_of(side), m3.mask_of(side), base="0")
    except InvalidStructure as exc:
        print("rejected:", exc)
"""
    proc = run_python(["-O", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "rejected: distributivity fails at 'a','b'",
        "rejected: sublattice cover '0' -> '1' skips host ranks",
        "rejected: sublattice not join-closed at 'a','b'",
    ]
