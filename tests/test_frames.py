"""The frame builder: sides from meet tables, their oracle, and cube frames."""

import random
from collections import Counter
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
    NotModularSemilattice,
    Point,
    SupportOutsideFrame,
    build_frame,
    classify,
    point_from_b,
    stable_ideals,
)
from orthogeo.frames import _peel, _side_vertices
from orthogeo.poset import incidence_pip
from reference import (
    _check_distributive_sublattice,
    _sublattice_join_irreducibles,
    generated_sublattice,
    interval,
    modular_lattice_catalog,
)

F = Fraction


def make_hexagon() -> GradedPoset:
    """A graded lattice containing a pentagon; not modular."""
    return GradedPoset(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
    )


def make_boolean(k: int):
    """The Boolean lattice of the subsets of k atoms, each named by its bit
    string, with two opposite maximal chains: atoms added from the left,
    and from the right."""
    names = [format(s, f"0{k}b") for s in range(1 << k)]
    covers = [(names[s], names[s | 1 << i]) for s in range(1 << k) for i in range(k) if not s >> i & 1]
    full = (1 << k) - 1
    left = tuple(names[full ^ (full >> i)] for i in range(k + 1))
    right = tuple(names[(1 << i) - 1] for i in range(k + 1))
    return GradedPoset(names, covers), left, right


def apartment_chains(poset, pi, sigma, pi_p, sigma_p):
    """The chain pairs build_frame hands to Frame: B from pi and
    sigma_m + pi_p, C from sigma and pi_m + sigma_p."""
    pi_m, sigma_m = _peel(poset, pi, pi_p), _peel(poset, sigma, sigma_p)
    return (pi, sigma_m + pi_p[1:]), (sigma, pi_m + sigma_p[1:])


# -- sublattice generation ----------------------------------------------------


def test_two_chain_sublattice_m3():
    # two maximal chains of M3 generate the square {0, a, b, 1}, both as the
    # frame of the top with itself and as the P1-form frame of the top
    m3 = make_m3()
    a, b = ("0", "a", "1"), ("0", "b", "1")
    assert generated_sublattice(m3, (a, b)) == {"0", "a", "b", "1"}
    assert Frame(m3, (a, b), (b, a), base="1").vertices == ("a", "b")
    fr = build_frame(m3, "1", "1", ("1",), ("a",), ("b",), base="1")
    assert fr.vertices == ("a", "b")
    # one chain twice generates only itself
    fr = build_frame(m3, "1", "1", ("1",), ("c",), ("c",), base="1")
    assert fr.vertices == ("1", "c")


def test_sublattice_rejects_non_modular_host():
    hexagon = make_hexagon()
    assert classify(hexagon)["lattice"] and not classify(hexagon)["modular"]
    with pytest.raises(NotModularSemilattice, match="not a modular semilattice"):
        build_frame(hexagon, "1", "1", ("1",), ("c",), ("d",), base="1")


def test_four_chain_sublattice_quadrant():
    ideals = stable_ideals(make_quadrant())
    pi = ("{}", "{b1}", "{b1,b2}")
    sigma = ("{}", "{c2}", "{c1,c2}")
    b, c = apartment_chains(ideals, pi, sigma, pi, sigma)
    assert generated_sublattice(ideals, b) == set(pi)
    assert generated_sublattice(ideals, c) == set(sigma)
    fr = Frame(ideals, b, c, base="{}")
    assert fr.side_b == set(pi[1:]) and fr.side_c == set(sigma[1:])


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
        Frame(IDEALS, (PI, PI), (SIGMA, SIGMA), base="{b1,b2}")


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
    a, b = ("0", "a", "1"), ("0", "b", "1")
    fr = Frame(m3, (a, b), (b, a), base="1")
    assert fr.isolated == frozenset(fr.vertices)
    with pytest.raises(SupportOutsideFrame):
        fr.b_coords(Point.vertex("c"))


# -- meet tables against the oracle, and the oracle against the cubic check ---


def verdicts(poset, members):
    """Accept (True) or reject (False) from the oracle's mask check and from
    the cubic reference, on a member mask; both must reject with
    InvalidStructure."""
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


def random_apartment(rng, poset):
    """The base and the two chain pairs of the apartment of two random
    elements, over random maximal chains."""
    p, q = rng.choice(poset.elements), rng.choice(poset.elements)
    m = poset.meet(p, q)
    bottom = poset.bottom
    pairs = apartment_chains(
        poset,
        random_chain(rng, poset, bottom, p),
        random_chain(rng, poset, bottom, q),
        random_chain(rng, poset, m, p),
        random_chain(rng, poset, m, q),
    )
    return m, pairs


def test_meet_tables_match_the_oracle_on_random_apartments():
    rng = random.Random(5)
    f3, f4 = subspace_lattice(3)[0], subspace_lattice(4)[0]
    hosts = [stable_ideals(random_bipartite_pip(rng, 5)) for _ in range(60)]
    hosts += [f3] * 60 + [f4] * 40
    sizes = Counter()
    for poset in hosts:
        base, pairs = random_apartment(rng, poset)
        sides = []
        for pair in pairs:
            closure = poset.mask_of(generated_sublattice(poset, pair))
            side = _side_vertices(poset, *pair)
            assert side == _sublattice_join_irreducibles(poset, closure), pair
            sides.append(side)
            sizes[len(poset), closure.bit_count() > len(pair[0])] += 1
        fr = Frame(poset, *pairs, base=base)
        assert fr.vertices == tuple(sorted(poset.names_of(sides[0] | sides[1])))
    # the subspace sides are not all single chains
    assert sizes[len(f3), True] > 10 and sizes[len(f4), True] > 10, sizes


def test_meet_table_matches_the_oracle_on_the_boolean_host():
    # two opposite flags of the rank-9 Boolean lattice generate all of it
    host, left, right = make_boolean(9)
    closure = generated_sublattice(host, (left, right))
    assert len(closure) == 512
    atoms = _sublattice_join_irreducibles(host, host.mask_of(closure))
    assert _side_vertices(host, left, right) == atoms
    assert {host.rank_of(e) for e in host.names_of(atoms)} == {1}


def test_boolean_frame_meets_and_joins_are_bounded_by_r_squared(monkeypatch):
    # a side of the rank-9 Boolean frame has 512 members but 9 vertices: the
    # meet table and the chain checks make O(r²) meets and joins, where a
    # scan over the members makes hundreds of thousands
    r = 9
    host, left, right = make_boolean(r)
    assert classify(host, "modular_semilattice")  # cached, as geodesic asks it first
    calls = Counter()
    for name in ("_meet_i", "_join_i"):
        def counted(i, j, name=name, method=getattr(host, name)):
            calls[name] += 1
            return method(i, j)

        monkeypatch.setattr(host, name, counted)
    top = left[-1]
    fr = build_frame(host, top, top, (top,), left, right, base=top)
    assert len(fr.vertices) == r and calls["_meet_i"] >= r * r
    assert sum(calls.values()) <= 4 * r * r, calls


def test_frame_preconditions_catch_a_faulty_meet_table(monkeypatch):
    m3 = make_m3()
    assert classify(m3, "modular_semilattice")
    a, b = ("0", "a", "1"), ("0", "b", "1")
    join, meet = m3._join_i, m3._meet_i
    # joins that never exist leave the top looking join-irreducible
    monkeypatch.setattr(m3, "_join_i", lambda i, j: None)
    with pytest.raises(InvalidStructure, match="has 3 vertices for length 2"):
        Frame(m3, (a, b), (a, b), base="0")
    # a meet that answers c for b gives two vertices, but b is no join of them
    monkeypatch.setattr(m3, "_join_i", join)
    ib, ic = m3.index["b"], m3.index["c"]
    monkeypatch.setattr(m3, "_meet_i", lambda i, j: ic if meet(i, j) == ib else meet(i, j))
    with pytest.raises(InvalidStructure, match="element 'b' is not the frame element of its shadow"):
        Frame(m3, (a, b), (a, b), base="0")


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
        for pair in random_apartment(rng, poset)[1]:
            # every apartment side, the closure of its chains, is accepted,
            # with the join-irreducibles its meet table reads
            side = poset.mask_of(generated_sublattice(poset, pair))
            assert verdicts(poset, side) == [True, True]
            jmask = _sublattice_join_irreducibles(poset, side)
            assert jmask == _side_vertices(poset, *pair)
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
from orthogeo import Frame, GradedPoset, OrthogeoError
m3 = GradedPoset(
    ["0", "a", "b", "c", "1"],
    [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
)
hexagon = GradedPoset(
    ["0", "a", "b", "c", "d", "1"],
    [("0", "a"), ("0", "b"), ("a", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
)
names = [format(s, "03b") for s in range(8)]
cube = GradedPoset(names, [(names[s], names[s | 1 << i]) for s in range(8) for i in range(3) if not s >> i & 1])
print(__debug__)
a, b = ("0", "a", "1"), ("0", "b", "1")
for host, pair in (
    (cube, (("000", "001", "110", "111"), ("000", "010", "110", "111"))),
    (m3, (("0", "1"), b)),
    (m3, (a, ("0", "b"))),
    (hexagon, (("0", "a", "c", "1"), ("0", "b", "d", "1"))),
):
    try:
        Frame(host, pair, pair, base="0")
    except OrthogeoError as exc:
        print(type(exc).__name__, exc)
"""
    proc = run_python(["-O", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "InvalidStructure generating chain steps from '001' to '110', not a host cover",
        "InvalidStructure generating chain steps from '0' to '1', not a host cover",
        "InvalidStructure generating chains ['0', 'a', '1'] and ['0', 'b'] do not share their ends",
        "NotModularSemilattice host is not a modular semilattice",
    ]
