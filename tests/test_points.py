"""Points, exact simplex distances, vertex coordinates, and paths."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (
    make_bz,
    make_chain,
    make_cube,
    make_edge_bc,
    make_layered,
    make_m3,
    make_quadrant,
    random_bipartite_pip,
    run_python,
)
from orthogeo import (
    BPolyPath,
    GradedPoset,
    InvalidPoint,
    InvalidStructure,
    JoinUndefined,
    NotCommonSimplex,
    Point,
    PolyPath,
    SqrtSum,
    as_fraction,
    b_coordinates,
    check_b_point,
    check_point,
    convex_combo,
    level_decomposition,
    point_from_b,
    point_join,
    point_meet,
    sq_simplex_distance,
    stable_ideals,
    tau,
)

F = Fraction


# -- scalar coercion ----------------------------------------------------------


def test_as_fraction_accepts():
    assert as_fraction("1/2") == F(1, 2)
    assert as_fraction(3) == 3
    assert as_fraction(F(2, 7)) == F(2, 7)
    assert as_fraction(2.0) == 2


def test_as_fraction_rejects():
    with pytest.raises(InvalidPoint):
        as_fraction(0.5)
    with pytest.raises(InvalidPoint):
        as_fraction("zebra")
    with pytest.raises(InvalidPoint):
        as_fraction(None)
    with pytest.raises(InvalidPoint):
        as_fraction(True)
    for value in (float("nan"), float("inf"), float("-inf"), 1e400):
        with pytest.raises(InvalidPoint):
            as_fraction(value)


def test_as_fraction_bounds_the_digits_of_a_string():
    # 4300 digits a part, the most that int converts from and to a string
    big = "9" * 4300
    assert as_fraction(f"-{big}") == -int(big)
    assert as_fraction(f"1/{big}") == F(1, int(big))
    assert as_fraction("1e4299") == 10**4299
    for text in (big + "9", f"1/{big}9", "1e4300", "1e-4300", "1e10000000"):
        with pytest.raises(InvalidPoint, match="over 4300 digits"):
            as_fraction(text)


# -- points --------------------------------------------------------------------


def test_point_drops_zeros_and_merges():
    p = Point({"a": "1/2", "b": 0})
    assert p.support == ("a",)
    q = Point([("a", F(1, 4)), ("a", F(1, 4))])
    assert q.coeff("a") == F(1, 2)
    assert Point.vertex("a") == Point({"a": 1})
    assert p == Point({"a": F(1, 2)}) and hash(p) == hash(Point({"a": F(1, 2)}))


def test_point_rejects_negative():
    with pytest.raises(InvalidPoint):
        Point({"a": F(-1, 2)})


def test_check_point_and_tau():
    m3 = make_m3()
    x = Point({"a": F(1, 2), "1": F(1, 4), "0": F(1, 4)})
    assert check_point(m3, x) == ["0", "a", "1"]
    assert tau(m3, x) == "1"
    with pytest.raises(InvalidPoint, match="not a chain"):
        check_point(m3, Point({"a": F(1, 2), "b": F(1, 2)}))
    with pytest.raises(InvalidPoint, match="sum"):
        check_point(m3, Point({"a": F(1, 2)}))
    with pytest.raises(InvalidPoint, match="not in the poset"):
        check_point(m3, Point({"zebra": 1}))


# z < y < x and z < w: ids sort against the rank order on the chain z, y, x
ZYX = GradedPoset(["z", "y", "x", "w"], [("z", "y"), ("y", "x"), ("z", "w")])
EPS = F(1, 10**40)


@pytest.mark.parametrize(
    "host, coeffs, message",
    [
        (make_m3(), {"0": F(1, 2), "a": F(1, 2) + EPS}, f"coefficients sum to {1 + EPS}, not 1"),
        (make_m3(), {"0": F(1, 2), "a": F(1, 2) - EPS}, f"coefficients sum to {1 - EPS}, not 1"),
        (make_m3(), {}, "coefficients sum to 0, not 1"),
        (make_m3(), {"zebra": 1}, "support element 'zebra' is not in the poset"),
        (make_m3(), {"a": F(1, 2), "zebra": F(1, 2)}, "support element 'zebra' is not in the poset"),
        (make_m3(), {"a": F(1, 2), "b": F(1, 2)}, "support is not a chain: 'a' vs 'b'"),
        (make_m3(), {"1": F(1, 3), "c": F(1, 3), "b": F(1, 3)}, "support is not a chain: 'b' vs 'c'"),
        (ZYX, {"x": F(1, 2), "w": F(1, 2)}, "support is not a chain: 'w' vs 'x'"),
        (ZYX, {"y": F(1, 2), "w": F(1, 2)}, "support is not a chain: 'w' vs 'y'"),
    ],
)
def test_check_point_errors_are_pinned(host, coeffs, message):
    # the integer sum and the up-set chain test name each fault as the
    # Fraction sum and the leq walk did, pair by pair in (rank, id) order
    with pytest.raises(InvalidPoint) as info:
        check_point(host, Point(coeffs))
    assert type(info.value) is InvalidPoint
    assert str(info.value) == message


def test_check_point_sorts_a_chain_by_rank_not_by_id():
    x = Point({"x": F(1, 3), "z": F(1, 3), "y": F(1, 3)})
    assert check_point(ZYX, x) == ["z", "y", "x"]


def test_convex_combo_endpoints():
    x = Point({"a": 1})
    y = Point({"b": 1})
    assert convex_combo(F(0), x, y) == x
    assert convex_combo(F(1), x, y) == y
    mid = convex_combo(F(1, 4), x, y)
    assert mid.coeff("a") == F(3, 4) and mid.coeff("b") == F(1, 4)


# -- exact simplex distance -----------------------------------------------------


def test_distance_on_a_chain_host():
    chain = make_chain(3)  # 0 < 1 < 2
    bottom = Point.vertex("0")
    top = Point.vertex("2")
    assert sq_simplex_distance(chain, bottom, top) == 2
    assert sq_simplex_distance(chain, Point.vertex("1"), top) == 1
    x = Point({"1": F(1, 2), "0": F(1, 2)})
    y = Point({"1": F(1, 4), "0": F(3, 4)})
    assert sq_simplex_distance(chain, x, y) == F(1, 16)


def test_distance_midpoint_triangle():
    m3 = make_m3()
    x = Point.vertex("a")
    y = Point({"0": F(1, 2), "1": F(1, 2)})
    assert sq_simplex_distance(m3, x, y) == F(1, 2)


def test_distance_requires_common_simplex():
    m3 = make_m3()
    with pytest.raises(NotCommonSimplex):
        sq_simplex_distance(m3, Point.vertex("a"), Point.vertex("b"))


def test_distance_zero_iff_equal():
    m3 = make_m3()
    x = Point({"0": F(1, 3), "a": F(2, 3)})
    assert sq_simplex_distance(m3, x, x) == 0
    y = Point({"0": F(1, 3), "a": F(1, 3), "1": F(1, 3)})
    assert sq_simplex_distance(m3, x, y) > 0


def chain_points(host, chain):
    weights = st.lists(
        st.integers(min_value=0, max_value=6), min_size=len(chain), max_size=len(chain)
    ).filter(lambda ws: sum(ws) > 0)
    return weights.map(
        lambda ws: Point({e: F(w, sum(ws)) for e, w in zip(chain, ws)})
    )


CUBE = make_cube()
DIAG = ("000", "100", "110", "111")


@given(chain_points(CUBE, DIAG), chain_points(CUBE, DIAG))
def test_distance_symmetry(x, y):
    assert sq_simplex_distance(CUBE, x, y) == sq_simplex_distance(CUBE, y, x)


@given(chain_points(CUBE, DIAG), chain_points(CUBE, DIAG), chain_points(CUBE, DIAG))
def test_distance_triangle_inequality_exact(x, y, z):
    dxz = sq_simplex_distance(CUBE, x, z)
    dxy = sq_simplex_distance(CUBE, x, y)
    dyz = sq_simplex_distance(CUBE, y, z)
    # (sqrt(dxy) + sqrt(dyz))^2 >= dxz, checked in exact arithmetic
    lhs = SqrtSum(dxy + dyz) + SqrtSum.sqrt(4 * dxy * dyz)
    assert (lhs - SqrtSum(dxz)).sign() >= 0


# -- pointwise lattice operations ------------------------------------------------


def test_point_meet_join_cube():
    x = Point({"110": F(1, 2), "111": F(1, 2)})
    assert point_meet(CUBE, x, "100") == Point({"100": 1})
    assert point_meet(CUBE, x, "011") == Point({"010": F(1, 2), "011": F(1, 2)})
    assert point_join(CUBE, x, "001") == Point({"111": 1})
    y = Point({"100": F(1, 2), "110": F(1, 2)})
    assert point_join(CUBE, y, "001") == Point({"101": F(1, 2), "111": F(1, 2)})


def test_point_join_undefined():
    ideals = stable_ideals(make_edge_bc())
    x = Point({"{b}": F(1, 2), "{}": F(1, 2)})
    with pytest.raises(JoinUndefined):
        point_join(ideals, x, "{c}")


# -- vertex coordinates over a pip ------------------------------------------------


def test_check_b_point_ok():
    quad = make_quadrant()
    clean = check_b_point(quad, {"b1": 1, "b2": "2/5", "c1": 0})
    assert clean == {"b1": F(1), "b2": F(2, 5)}


def test_check_b_point_rejects():
    quad = make_quadrant()
    with pytest.raises(InvalidPoint, match="outside"):
        check_b_point(quad, {"b1": "3/2"})
    with pytest.raises(InvalidPoint, match="not stable"):
        check_b_point(quad, {"b1": F(1, 2), "c2": F(1, 2)})
    with pytest.raises(InvalidPoint, match="unknown"):
        check_b_point(quad, {"zebra": F(1, 2)})
    layered = make_layered()
    with pytest.raises(InvalidPoint, match="increase upward"):
        check_b_point(layered, {"u": F(1, 4), "v": F(1, 2)})
    with pytest.raises(InvalidPoint, match="increase upward"):
        check_b_point(layered, {"v": F(1, 2)})


def test_check_b_point_accepts_exactly_stable_ideal_levels():
    rng = random.Random(13)
    outcomes = {"ok": 0, "increase upward": 0, "not stable": 0}
    for _ in range(300):
        pip = random_bipartite_pip(rng, max_side=4)
        coords = {v: Fraction(rng.randint(0, 4), 4) for v in pip.ids if rng.random() < 0.6}
        levels = [level for _, level in level_decomposition(coords)]
        ideal = all(u in level for level in levels for v in level for u in pip.ids if pip.leq(u, v))
        stable = not any(pip.has_edge(u, v) for level in levels for u in level for v in level)
        rises = sorted(
            (u, v)
            for v in pip.ids
            for u in pip.ids
            if pip.leq(u, v) and coords.get(u, 0) < coords.get(v, 0)
        )
        # a level set fails to be an ideal exactly when f increases upward
        assert ideal == (not rises)
        if ideal and stable:
            assert check_b_point(pip, coords) == {v: f for v, f in coords.items() if f}
            outcomes["ok"] += 1
            continue
        fault = "not stable" if ideal else "increase upward"
        with pytest.raises(InvalidPoint, match=fault) as err:
            check_b_point(pip, coords)
        if rises:
            # the monotonicity fault names the first rising pair by name
            u, v = rises[0]
            assert f"{u!r} carries {coords.get(u, 0)} < {coords[v]} at {v!r}" in str(err.value)
        else:
            # the stability fault names the first unstable level, largest value first
            first = next(level for level in levels if not pip.is_stable_mask(pip.mask_of(level)))
            assert str(err.value) == f"level set {sorted(first)} is not stable"
        outcomes[fault] += 1
    assert min(outcomes.values()) >= 20, outcomes


# floats tie on 1/3 and 1/3 + 10^-30; each message is pinned to its exact text
EPS = F(1, 3) + F(1, 10**30)
RISE = (
    "coordinates must not increase upward: 'u' carries 1/3"
    " < 1000000000000000000000000000003/3000000000000000000000000000000 at 'v'"
)


@pytest.mark.parametrize(
    "host, coords, message",
    [
        # u < v: v above u may not carry more, in either input order
        ("layered", {"u": F(1, 3), "v": EPS}, RISE),
        ("layered", {"v": EPS, "u": F(1, 3)}, RISE),
        # u carries more than v: listed first, v stays first in the float
        # sort, and the exact order check sends it behind u
        ("layered", {"v": F(1, 3), "u": EPS}, None),
        ("layered", {"u": EPS, "v": F(1, 3)}, None),
        # equal values written two ways are one level, which stays open
        # until u is read
        ("layered", {"v": "1/3", "u": "2/6"}, None),
        # the level closes above z, so b and c alone make the first unstable level
        ("bz", {"b": F(1, 2), "c": EPS, "z": F(1, 3)}, "level set ['b', 'c'] is not stable"),
        ("bz", {"b": F(1, 2), "z": EPS, "c": F(1, 3)}, "level set ['b', 'c', 'z'] is not stable"),
        # just outside [0, 1]; as a float, 1 + 10^-40 reads 1.0
        ("bz", {"b": 1 + F(1, 10**40)}, f"coordinate {10**40 + 1}/{10**40} at 'b' outside [0, 1]"),
        ("bz", {"b": -F(1, 10**40)}, f"coordinate -1/{10**40} at 'b' outside [0, 1]"),
    ],
)
def test_level_walk_orders_float_ties_exactly(host, coords, message):
    pip = make_layered() if host == "layered" else make_bz()
    path = BPolyPath(pip, [(0, {}), (F(1, 2), coords), (1, {})])
    if message is None:
        assert check_b_point(pip, coords) == {v: as_fraction(f) for v, f in coords.items()}
        assert path.validate() is path
        return
    for check in (lambda: check_b_point(pip, coords), path.validate):
        with pytest.raises(InvalidPoint) as err:
            check()
        assert str(err.value) == message


def test_level_decomposition():
    levels = level_decomposition({"b": F(3, 4), "z": F(1, 4)})
    assert levels == [
        (F(3, 4), frozenset({"b"})),
        (F(1, 4), frozenset({"b", "z"})),
    ]
    assert level_decomposition({}) == []


@given(st.dictionaries(st.sampled_from("abcdefgh"), st.fractions(-1, 2, max_denominator=4)))
def test_level_decomposition_matches_definition(coords):
    vals = sorted({v for v in coords.values() if v > 0}, reverse=True)
    expected = [(val, frozenset(k for k, v in coords.items() if v >= val)) for val in vals]
    assert level_decomposition(coords) == expected


def test_point_from_b_and_back():
    quad = make_quadrant()
    ideals = stable_ideals(quad)
    x = point_from_b(quad, {"b1": 1, "b2": "2/5"})
    assert x == Point({"{b1,b2}": F(2, 5), "{b1}": F(3, 5)})
    assert b_coordinates(ideals, x) == {"b1": F(1), "b2": F(2, 5)}
    y = point_from_b(quad, {"c1": F(1, 2)})
    assert y == Point({"{c1}": F(1, 2), "{}": F(1, 2)})
    assert b_coordinates(ideals, y) == {"c1": F(1, 2)}


def test_b_coordinates_requires_ideal_host():
    with pytest.raises(InvalidStructure):
        b_coordinates(make_m3(), Point({"0": 1}))


# -- paths -------------------------------------------------------------------------


def test_polypath_basics():
    m3 = make_m3()
    path = PolyPath(
        [
            (0, Point.vertex("a")),
            (F(1, 2), Point.vertex("0")),
            (1, Point.vertex("b")),
        ]
    ).validate(m3)
    assert path.start == Point.vertex("a") and path.end == Point.vertex("b")
    mid = path.point_at(F(1, 4))
    assert mid == Point({"a": F(1, 2), "0": F(1, 2)})
    assert path.point_at(F(1, 2)) == Point.vertex("0")
    assert math.isclose(path.length(m3), 2.0)


def test_polypath_rejects_bad_times():
    quad = make_quadrant()
    for make, p in (
        (PolyPath, Point.vertex("a")),
        (lambda bps: BPolyPath(quad, bps), {"b1": F(1, 2)}),
    ):
        with pytest.raises(InvalidStructure, match="strictly increase"):
            make([(0, p), (0, p), (1, p)])
        with pytest.raises(InvalidStructure, match="0, 1"):
            make([(0, p), (F(1, 2), p)])
        with pytest.raises(InvalidStructure, match="two breakpoints"):
            make([(0, p)])
        with pytest.raises(InvalidStructure, match="outside"):
            make([(0, p), (1, p)]).point_at(F(3, 2))


def test_polypath_validate_needs_adjacent_simplices():
    m3 = make_m3()
    bad = PolyPath([(0, Point.vertex("a")), (1, Point.vertex("b"))])
    with pytest.raises(NotCommonSimplex):
        bad.validate(m3)


def test_bpolypath():
    quad = make_quadrant()
    path = BPolyPath(
        quad,
        [
            (0, {"b1": F(1, 2)}),
            (F(1, 2), {}),
            (1, {"c2": F(1, 2)}),
        ],
    ).validate()
    assert path.point_at(F(1, 4)) == {"b1": F(1, 4)}
    assert path.point_at(0) == {"b1": F(1, 2)} and path.point_at(1) == {"c2": F(1, 2)}
    assert path.point_at(F(1, 2)) == {}
    assert math.isclose(path.length(), 1.0)
    with pytest.raises(InvalidPoint):
        BPolyPath(quad, [(0, {"b1": F(1, 2), "c2": F(1, 2)}), (1, {})]).validate()


def test_bpolypath_validate_needs_a_shared_cube():
    # each breakpoint is a valid point, but b1 and c2 span an edge, so the
    # segment between them would leave the complex
    quad = make_quadrant()
    assert check_b_point(quad, {"b1": F(1, 2)}) and check_b_point(quad, {"c2": F(1, 2)})
    with pytest.raises(NotCommonSimplex, match="do not share a cube"):
        BPolyPath(quad, [(0, {"b1": F(1, 2)}), (1, {"c2": F(1, 2)})]).validate()
    # through the origin, each leg stays in one cube
    BPolyPath(quad, [(0, {"b1": F(1, 2)}), (F(1, 2), {}), (1, {"c2": F(1, 2)})]).validate()


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_bpolypath_point_at_lists_keys_sorted_under_any_hash_seed(seed):
    code = """
from orthogeo import Pip, geodesic_median
quad = Pip(["b1", "b2", "c1", "c2"], [("b1", "c2"), ("b2", "c1")])
geo = geodesic_median(quad, {"b1": 1, "b2": "2/5"}, {"c1": "1/2", "c2": 1})
print(list(geo.bpath.point_at("1/5")))
"""
    proc = run_python(["-c", code], PYTHONHASHSEED=seed)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['b1', 'b2']\n"
