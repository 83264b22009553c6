"""End-to-end geodesic computation on worked instances and random hosts."""

import math
import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    make_bz,
    make_cube,
    make_edge_bc,
    make_layered,
    make_m3,
    make_quadrant,
    make_square,
    random_bipartite_pip,
    random_hosts,
    random_ideal_point,
    random_orthogonal_instance,
    run_python,
    subspace_lattice,
)
from orthogeo import (
    Arch,
    GradedPoset,
    InvalidPoint,
    InvalidStructure,
    NotCommonSimplex,
    NotModularSemilattice,
    Pip,
    Point,
    SqrtSum,
    SupportMismatch,
    b_coordinates,
    birkhoff,
    build_frame,
    classify,
    engine,
    geodesic,
    geodesic_median,
    level_decomposition,
    omega,
    oracle_distance,
    point_from_b,
    point_join,
    point_meet,
    sq_simplex_distance,
    stable_ideals,
    tau,
    xi,
)
from orthogeo.arch import _sq_distance_below
from orthogeo.points import _integer_masses, _sq_mass_distance, lerp_coords, scale_coords
from reference import hinge_breakpoints, modular_lattice_catalog, split_blocks

F = Fraction


# -- single edge ----------------------------------------------------------------


def test_edge_bc_bends_at_origin(edge_bc):
    geo = geodesic_median(edge_bc, {"b": F(1, 2)}, {"c": F(1, 2)})
    assert geo.sq_length == SqrtSum(1)
    assert geo.length == 1.0
    assert geo.case == "P2"
    assert geo.arch.members == (frozenset({"b"}), frozenset({"c"}))
    assert geo.bpath.breakpoints == (
        (F(0), {"b": F(1, 2)}),
        (F(1, 2), {}),
        (F(1), {"c": F(1, 2)}),
    )


def test_edge_bc_asymmetric_masses(edge_bc):
    geo = geodesic_median(edge_bc, {"b": F(1)}, {"c": F(1, 2)})
    assert geo.sq_length == SqrtSum(F(9, 4))
    assert geo.length == 1.5
    # the corner still sits where the first coordinate dies
    times = [t for t, _ in geo.bpath.breakpoints]
    assert times == [F(0), F(2, 3), F(1)]


# -- square (no edge) -------------------------------------------------------------


def test_square_is_straight(square):
    geo = geodesic_median(square, {"b": F(1, 2)}, {"c": F(1, 2)})
    assert geo.case == "P1"
    assert geo.sq_length == SqrtSum(F(1, 2))
    assert geo.arch is None
    assert geo.bpath.breakpoints == (
        (F(0), {"b": F(1, 2)}),
        (F(1), {"c": F(1, 2)}),
    )
    mid = geo.bpath.point_at(F(1, 2))
    assert mid == {"b": F(1, 4), "c": F(1, 4)}


def test_equal_points_are_p0(square):
    geo = geodesic_median(square, {"b": F(1, 3)}, {"b": F(1, 3)})
    assert geo.case == "P0" and geo.length == 0.0
    assert geo.sq_length == SqrtSum(0)


# -- quadrant ----------------------------------------------------------------------


QX = {"b1": F(1), "b2": F(2, 5)}
QY = {"c1": F(1, 2), "c2": F(1)}


def test_quadrant_median_exact(quadrant):
    geo = geodesic_median(quadrant, QX, QY)
    assert geo.case == "P2"
    assert geo.sq_length == SqrtSum(F(481, 100))
    assert abs(geo.length - 2.1931712199461306) < 1e-12
    assert geo.arch.members == (
        frozenset({"b1", "b2"}),
        frozenset({"b1", "c1"}),
        frozenset({"c1", "c2"}),
    )
    assert geo.arch.xsq == (F(4, 25), F(1))
    assert geo.arch.ysq == (F(1, 4), F(1))


def test_quadrant_median_path(quadrant):
    geo = geodesic_median(quadrant, QX, QY)
    assert geo.bpath.breakpoints == (
        (F(0), {"b1": F(1), "b2": F(2, 5)}),
        (F(4, 9), {"b1": F(1, 9)}),
        (F(1, 2), {"c1": F(1, 20)}),
        (F(1), {"c1": F(1, 2), "c2": F(1)}),
    )
    assert abs(geo.bpath.length() - geo.length) < 1e-12


def test_quadrant_poset_route_matches(quadrant):
    ideals = stable_ideals(quadrant)
    x = point_from_b(quadrant, QX)
    y = point_from_b(quadrant, QY)
    geo = geodesic(ideals, x, y)
    assert geo.case == "P2"
    assert geo.sq_length == SqrtSum(F(481, 100))
    assert geo.arch.members == ("{b1,b2}", "{b1,c1}", "{c1,c2}")
    times = [t for t, _ in geo.path.breakpoints]
    assert times == [F(0), F(4, 9), F(14, 29), F(1, 2), F(6, 11), F(1)]
    assert geo.path.start == x and geo.path.end == y
    assert abs(geo.path.length(ideals) - geo.length) < 1e-12


# -- edge plus isolated vertex ------------------------------------------------------


def test_bz_product_split(bz):
    x = {"b": F(1, 2), "z": F(3, 10)}
    y = {"c": F(1, 2), "z": F(4, 5)}
    geo = geodesic_median(bz, x, y)
    assert geo.case == "P4"
    assert geo.sq_length == SqrtSum(F(5, 4))
    assert abs(geo.length - math.sqrt(1.25)) < 1e-15
    # hinge part contributes 1, the free coordinate contributes 1/4
    from orthogeo import v_sq

    assert v_sq(geo.arch) == SqrtSum(1)
    assert geo.sq_length - v_sq(geo.arch) == SqrtSum(F(1, 4))
    assert geo.bpath.breakpoints == (
        (F(0), {"b": F(1, 2), "z": F(3, 10)}),
        (F(1, 2), {"z": F(11, 20)}),
        (F(1), {"c": F(1, 2), "z": F(4, 5)}),
    )


def test_overlapping_supports_p4(quadrant):
    x = {"b1": F(1, 2), "c1": F(1, 4)}
    y = {"c1": F(1), "c2": F(1, 2)}
    geo = geodesic_median(quadrant, x, y)
    assert geo.case == "P4"
    assert geo.sq_length == SqrtSum(F(25, 16))
    assert geo.length == 1.25
    assert geo.bpath.breakpoints == (
        (F(0), {"b1": F(1, 2), "c1": F(1, 4)}),
        (F(1, 2), {"c1": F(5, 8)}),
        (F(1), {"c1": F(1), "c2": F(1, 2)}),
    )


# -- ordered pip --------------------------------------------------------------------


def test_layered_single_block(layered):
    geo = geodesic_median(layered, {"u": F(1, 2), "v": F(1, 4)}, {"c": F(1, 2)})
    assert geo.case == "P2"
    assert geo.sq_length == SqrtSum(F(9, 16)) + SqrtSum.sqrt(F(5, 64)).scale(2)
    assert geo.arch.members == (frozenset({"u", "v"}), frozenset({"c"}))
    assert abs(geo.bpath.length() - geo.length) < 1e-12


# -- modular lattice hosts -------------------------------------------------------------


def test_m3_distributive_route(m3):
    geo = geodesic(m3, Point.vertex("a"), Point.vertex("b"))
    assert geo.case == "P1"
    assert geo.sq_length == SqrtSum(2)
    assert geo.path.point_at(F(1, 2)) == Point({"0": F(1, 2), "1": F(1, 2)})
    assert geo.path.breakpoints[1][0] == F(1, 2)


def test_same_chain_is_straight(m3):
    x = Point({"0": F(1, 2), "a": F(1, 2)})
    y = Point({"a": F(1, 4), "1": F(3, 4)})
    geo = geodesic(m3, x, y)
    assert geo.case == "P0"
    assert geo.sq_length == SqrtSum(sq_simplex_distance(m3, x, y))
    assert geo.path.breakpoints == ((F(0), x), (F(1), y))


def test_cube_diagonal(cube):
    geo = geodesic(cube, Point.vertex("000"), Point.vertex("111"))
    assert geo.case == "P0"
    assert geo.sq_length == SqrtSum(3)


def test_cube_antipodal_faces(cube):
    # the complex of a boolean lattice is a solid euclidean cube
    geo = geodesic(cube, Point.vertex("100"), Point.vertex("011"))
    assert geo.case == "P1"
    assert geo.sq_length == SqrtSum(3)
    assert geo.length == math.sqrt(3)


# -- gates -------------------------------------------------------------------------


def test_geodesic_requires_modular_semilattice():
    cube_minus_top = GradedPoset(
        ["0", "a", "b", "c", "ab", "ac", "bc"],
        [
            ("0", "a"), ("0", "b"), ("0", "c"),
            ("a", "ab"), ("b", "ab"),
            ("a", "ac"), ("c", "ac"),
            ("b", "bc"), ("c", "bc"),
        ],
    )
    with pytest.raises(NotModularSemilattice):
        geodesic(cube_minus_top, Point.vertex("ab"), Point.vertex("ac"))


def test_geodesic_median_rejects_bad_points(quadrant):
    with pytest.raises(InvalidPoint):
        geodesic_median(quadrant, {"b1": F(3, 2)}, {"c1": F(1, 2)})
    with pytest.raises(InvalidPoint):
        geodesic_median(quadrant, {"zebra": F(1, 2)}, {"c1": F(1, 2)})
    with pytest.raises(InvalidPoint):
        geodesic_median(quadrant, {"b1": F(1, 2), "c2": F(1, 2)}, {"c1": F(1, 2)})


def test_compute_path_false(quadrant):
    geo = geodesic_median(quadrant, QX, QY, compute_path=False)
    assert geo.bpath is None and geo.path is None
    assert geo.sq_length == SqrtSum(F(481, 100))
    ideals = stable_ideals(quadrant)
    geo2 = geodesic(ideals, point_from_b(quadrant, QX), point_from_b(quadrant, QY), compute_path=False)
    assert geo2.path is None
    assert geo2.sq_length == geo.sq_length


# -- hinged path from explicit frame data ----------------------------------------------


def quadrant_frame():
    ideals = stable_ideals(make_quadrant())
    return ideals, build_frame(
        ideals,
        "{b1,b2}",
        "{c1,c2}",
        ["{b1,b2}", "{b1,c1}", "{c1,c2}"],
        ("{}", "{b1}", "{b1,b2}"),
        ("{}", "{c2}", "{c1,c2}"),
        base="{}",
    )


# QX and QY in the quadrant frame's coordinates
QX_FRAME = {"{b1}": F(1), "{b1,b2}": F(2, 5)}
QY_FRAME = {"{c1}": F(1, 2), "{c2}": F(1)}


def test_frame_breakpoints_path_matches_engine(quadrant):
    ideals, frame = quadrant_frame()
    arch = Arch(
        ["{b1,b2}", "{b1,c1}", "{c1,c2}"], [F(4, 25), F(1)], [F(1, 4), F(1)]
    )
    bps = engine._frame_breakpoints(frame, arch, QX_FRAME, QY_FRAME)
    ends = point_from_b(quadrant, QX), point_from_b(quadrant, QY)
    path = engine._chain_path(ideals, frame, bps, ends)
    engine_path = geodesic(ideals, *ends).path
    assert path.breakpoints == engine_path.breakpoints


# -- the integer chain route ----------------------------------------------------------


def fraction_chain_breakpoints(frame, bps):
    """The chain route over Fractions, the reference for the engine's
    integer one: every pair of coordinates compared on every leg, each
    crossing interpolated, and each breakpoint's threshold sets mapped
    through the frame, the zero taking the rest of the unit mass."""
    refined = []
    for (s0, c0), (s1, c1) in zip(bps, bps[1:]):
        cuts = set()
        for u, v in combinations(sorted(c0.keys() | c1.keys()), 2):
            d0 = c0.get(u, F(0)) - c0.get(v, F(0))
            d1 = c1.get(u, F(0)) - c1.get(v, F(0))
            if (d0 > 0 > d1) or (d0 < 0 < d1):
                cuts.add(d0 / (d0 - d1))
        refined.append((s0, c0))
        refined.extend((s0 + (s1 - s0) * r, lerp_coords(r, c0, c1)) for r in sorted(cuts))
    refined.append(bps[-1])
    out = []
    for t, coords in refined:
        levels = level_decomposition(coords)
        acc = {frame.poset.bottom: 1 - (levels[0][0] if levels else 0)}
        for i, (val, members) in enumerate(levels):
            below = levels[i + 1][0] if i + 1 < len(levels) else 0
            e = frame.element_of(members)
            acc[e] = acc.get(e, 0) + val - below
        out.append((t, Point(acc)))
    return out


@pytest.fixture(scope="module")
def straight_pairs():
    """Joining (P1) pairs on the random hosts of the arch tests, as
    (x, y, w, frame): w joins the two tops and the frame is the one the
    engine builds for the pair."""
    rng = random.Random(2323)
    pairs = []
    for host in random_hosts(rng):
        for _ in range(4):
            x, y = Point(random_ideal_point(rng, host)), Point(random_ideal_point(rng, host))
            w = host.join(tau(host, x), tau(host, y))
            if w is not None:
                pairs.append((x, y, w, build_frame(host, w, w, (w,), x.support, y.support, base=w)))
    return pairs


@pytest.fixture(scope="module")
def straight_frames(straight_pairs):
    """Frames of the joining pairs.  Each spans one distributive sublattice,
    so every vertex coordinate vector in [0, 1] that does not increase
    upward is a point of it, and so is every segment between two such
    points."""
    return [frame for *_, frame in straight_pairs]


# -- squared distances inside one modular lattice, from ranks --------------------------


def frame_sq_distance(host, x, y, w):
    """The reference for the rank route: cube coordinates of x and y in the
    frame of a distributive sublattice below w through both supports."""
    frame = build_frame(host, w, w, (w,), x.support, y.support, base=w)
    return engine._sq_diff(frame.b_coords(x), frame.b_coords(y), frame.isolated)


def test_rank_route_matches_the_frame_on_small_modular_lattices():
    # points on two random maximal chains of every modular lattice with at
    # most 8 elements; on a common chain the distance is also the simplex one
    rng = random.Random(2401)
    common = 0
    for host in modular_lattice_catalog(8):
        chains = host.maximal_chains()
        for _ in range(6):
            pair = [rng.choice(chains) for _ in range(2)]
            x, y = (Point(random_ideal_point(rng, host, chain)) for chain in pair)
            w = host.join(tau(host, x), tau(host, y))
            sq = _sq_distance_below(host, x, y, w)
            assert sq == frame_sq_distance(host, x, y, w)
            if pair[0] == pair[1]:
                assert sq == sq_simplex_distance(host, x, y)
                common += 1
    assert common, "no common-chain pair drawn"


def test_rank_route_matches_the_frame_on_joining_pairs(straight_pairs):
    for x, y, w, frame in straight_pairs:
        sq = _sq_distance_below(frame.poset, x, y, w)
        assert sq == engine._sq_diff(frame.b_coords(x), frame.b_coords(y), frame.isolated)


def test_rank_route_matches_the_frame_below_the_joinable_part():
    # the P4 pairs of the random hosts, the non-median gluings of subspace
    # lattices among them: x∧a and y∧a measured in a frame below a
    rng = random.Random(2402)
    counted = Counter()
    for host in random_hosts(rng):
        for _ in range(12):
            x, y = Point(random_ideal_point(rng, host)), Point(random_ideal_point(rng, host))
            p, q = tau(host, x), tau(host, y)
            if host.join(p, q) is not None:
                continue
            a = host.join(omega(host, q, p), omega(host, p, q))
            if a in (None, host.bottom):
                continue
            xa, ya = point_meet(host, x, a), point_meet(host, y, a)
            assert _sq_distance_below(host, x, y, a) == frame_sq_distance(host, xa, ya, a)
            counted[host.bottom] += 1  # "0" on subspace hosts, "{}" on stable ideals
    assert counted["0"] and counted["{}"], counted


def test_distances_build_no_frame(monkeypatch):
    # P1 and P4 lengths come from ranks alone: with build_frame broken, a
    # distance-only call still answers every P1 and P4 pair, as before
    hosts = [stable_ideals(make_quadrant()), subspace_lattice(3, (1, 2))[0]]
    rng = random.Random(2403)
    pairs = []
    for host in hosts:
        points = [Point.vertex(e) for e in host.ids]
        points += [Point(random_ideal_point(rng, host)) for _ in range(20)]
        for x, y in combinations(points, 2):
            geo = geodesic(host, x, y, compute_path=False)
            if geo.case in ("P1", "P4"):
                pairs.append((host, x, y, geo))

    def no_frame(*args, **kwargs):
        raise AssertionError("a distance-only call built a frame")

    monkeypatch.setattr(engine, "build_frame", no_frame)
    for host, x, y, geo in pairs:
        assert geodesic(host, x, y, compute_path=False).sq_length == geo.sq_length
    cases = Counter((host.bottom, geo.case) for host, _, _, geo in pairs)
    assert set(cases) == {("{}", "P1"), ("{}", "P4"), ("0", "P1"), ("0", "P4")}, cases


# -- the straight case and the xi ends, each worked out once ----------------------------


@pytest.fixture(scope="module")
def chained_hosts():
    """The stable-ideal posets and subspace gluings of random_hosts, each
    with its maximal chains; the last is the 118-element gluing in F_2^5."""
    return [(host, host.maximal_chains()) for host in random_hosts(random.Random(2701))]


def draw_pair(rng, host, chains, same_chain):
    """Two random points, on one maximal chain when same_chain is set."""
    first = rng.choice(chains)
    second = first if same_chain else rng.choice(chains)
    return Point(random_ideal_point(rng, host, first)), Point(random_ideal_point(rng, host, second))


@given(pick=st.integers(min_value=0), seed=st.integers(min_value=0), same_chain=st.booleans())
def test_straight_case_is_found_by_the_chain_test(chained_hosts, pick, seed, same_chain):
    # P0 exactly when the supports share a simplex, with the simplex length
    host, chains = chained_hosts[pick % len(chained_hosts)]
    x, y = draw_pair(random.Random(seed), host, chains, same_chain)
    geo = geodesic(host, x, y, compute_path=False)
    try:
        sq = sq_simplex_distance(host, x, y)
    except NotCommonSimplex:
        assert geo.case != "P0"
    else:
        assert geo.case == "P0"
        assert geo.sq_length == SqrtSum(sq) == geodesic(host, x, y).sq_length


@given(pick=st.integers(min_value=0), seed=st.integers(min_value=0))
@example(pick=15, seed=0)
def test_xi_ends_from_chain_masses_match_the_simplex_distances(chained_hosts, pick, seed):
    # on P2/P4 pairs, x∨a and y∨a measured from a along their own chains
    # agree with the simplex distances and with the ends of the xi table
    host, chains = chained_hosts[pick % len(chained_hosts)]
    rng = random.Random(seed)
    for _ in range(8):
        x, y = draw_pair(rng, host, chains, False)
        p, q = tau(host, x), tau(host, y)
        if host.join(p, q) is not None:
            continue
        a = host.join(omega(host, q, p), omega(host, p, q))
        assert geodesic(host, x, y, compute_path=False).case == ("P2" if a == host.bottom else "P4")
        xh, yh = point_join(host, x, a), point_join(host, y, a)
        origin_masses = (1, {host.index[a]: 1})
        ends = tuple(_sq_mass_distance(host, _integer_masses(host, h), origin_masses) for h in (xh, yh))
        origin = Point.vertex(a)
        assert ends == (sq_simplex_distance(host, xh, origin), sq_simplex_distance(host, yh, origin))
        ph, qh = host.join(p, a), host.join(q, a)
        assert xi(host, [ph, qh], xh, yh, a) == {ph: (ends[0], 0), qh: (0, ends[1])}


# -- hinge breakpoints on integers against the Fraction reference ----------------------


@contextmanager
def hinge_paths_checked():
    """Every engine._split_blocks and engine._hinge_breakpoints call, from
    either route, must give the blocks of the member-scan reference and
    breakpoints whose repr is that of the Fraction reference; yields the
    list of checked hinge calls."""
    split, integer = engine._split_blocks, engine._hinge_breakpoints
    calls = []

    def blocks(*args):
        out = split(*args)
        assert out == split_blocks(*args)
        return out

    def both(*args):
        out = integer(*args)
        assert repr(out) == repr(hinge_breakpoints(*args))
        calls.append(args)
        return out

    with mock.patch.object(engine, "_split_blocks", blocks), mock.patch.object(
        engine, "_hinge_breakpoints", both
    ):
        yield calls


def split_outcome(split, *args):
    """A block reader's blocks, or the type and message of its error."""
    try:
        return split(*args)
    except (InvalidStructure, SupportMismatch) as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(seed=st.integers(min_value=0), steps=st.integers(1, 4), flips=st.integers(0, 2))
def test_split_blocks_match_the_member_scan(seed, steps, flips):
    # a nested arch drops B in `steps` nonempty blocks and adds C likewise,
    # with a shared vertex z in every member or none; flipped memberships
    # make most of them unnested, and masses missing from their block,
    # placed off their side, on z, or block squares too large or too small
    # give the other errors
    rng = random.Random(seed)
    sides = []
    for name in "bc":
        verts = [f"{name}{i}" for i in range(rng.randint(steps, 6))]
        rng.shuffle(verts)
        cuts = sorted(rng.sample(range(1, len(verts)), steps - 1))
        sides.append([frozenset(verts[i:j]) for i, j in zip([0, *cuts], [*cuts, len(verts)])])
    bside, cside = (frozenset().union(*blocks) for blocks in sides)
    shared = frozenset({"z"} if rng.random() < 0.5 else ())
    sets = [
        bside.difference(*sides[0][:i]).union(*sides[1][:i], shared) for i in range(steps + 1)
    ]
    for _ in range(flips):
        i = rng.randrange(len(sets))
        sets[i] = sets[i] ^ {rng.choice(sorted(bside | cside))}
    xb, yb = (
        {v: F(rng.randint(1, 9), rng.randint(1, 9)) for v in sorted(side) if rng.random() < 0.9}
        for side in (bside, cside)
    )
    sq = [
        [sum((p[v] ** 2 for v in block if v in p), F(0)) for block in blocks]
        for p, blocks in ((xb, sides[0]), (yb, sides[1]))
    ]
    roll = rng.random()
    if roll < 0.1:
        xb["z"] = F(1, 3)
    elif roll < 0.15:
        yb[rng.choice(sorted(bside))] = F(1)
    elif roll < 0.25:
        row, j = sq[rng.randrange(2)], rng.randrange(steps)
        row[j] = row[j] / 2 if row[j] and rng.random() < 0.5 else row[j] + 1
    args = (SimpleNamespace(xsq=sq[0], ysq=sq[1]), sets, bside, cside, xb, yb)
    assert split_outcome(engine._split_blocks, *args) == split_outcome(split_blocks, *args)


def sparse_pip(rng, nb, nc, nz=0):
    """Every B vertex joined to two random C vertices, as in the median
    benchmark, plus nz free vertices z0, z1, ... with no edges."""
    bs, cs, zs = ([f"{k}{i}" for i in range(n)] for k, n in (("b", nb), ("c", nc), ("z", nz)))
    edges = sorted({(b, c) for b in bs for c in rng.sample(cs, 2)})
    return Pip(bs + cs + zs, edges), bs, cs, zs


@settings(deadline=None)
@given(seed=st.integers(min_value=0), nb=st.integers(2, 12), nc=st.integers(2, 12), nz=st.integers(0, 3))
def test_hinge_breakpoints_match_the_fraction_reference_on_sparse_pips(seed, nb, nc, nz):
    # x covers the B side and y the C side in 64ths; free vertices carry
    # mass in x (at least z0) and maybe in y, so nz > 0 makes a P4 pair
    # with coordinates on neither side
    rng = random.Random(seed)
    pip, bs, cs, zs = sparse_pip(rng, nb, nc, nz)
    x = {v: F(rng.randint(1, 64), 64) for v in bs}
    x |= {z: F(rng.randint(k == 0, 8), 8) for k, z in enumerate(zs)}
    y = {v: F(rng.randint(1, 64), 64) for v in cs} | {z: F(rng.randint(0, 8), 8) for z in zs}
    with hinge_paths_checked() as calls:
        geo = geodesic_median(pip, x, y)
    # a C vertex with no edge is joinable too
    joinable = nz or len({c for _, c in pip.edges}) < nc
    assert len(calls) == 1 and geo.case == ("P4" if joinable else "P2")
    ends = [{v: f for v, f in p.items() if f} for p in (x, y)]
    assert [geo.bpath.breakpoints[0][1], geo.bpath.breakpoints[-1][1]] == ends


@settings(deadline=None)
@given(pick=st.integers(min_value=0), seed=st.integers(min_value=0))
def test_frame_hinge_breakpoints_match_the_fraction_reference(chained_hosts, pick, seed):
    # stable-ideal posets and subspace gluings in F_2^n: _frame_breakpoints
    # reads each arch member as its frame shadow before the hinge
    host, chains = chained_hosts[pick % len(chained_hosts)]
    rng = random.Random(seed)
    with hinge_paths_checked() as calls:
        for _ in range(60):
            geo = geodesic(host, *draw_pair(rng, host, chains, False))
            if calls:
                break
    assume(calls)  # one small stable-ideal host has no P2 or P4 pair
    assert geo.case in ("P2", "P4")


def test_rank_route_names_a_missing_meet():
    # c and d have two maximal common lower bounds, a and b, and no meet
    bowtie = GradedPoset(
        ["0", "a", "b", "c", "d"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    )
    with pytest.raises(InvalidStructure, match="meet of 'd' and 'c' does not exist"):
        _sq_distance_below(bowtie, Point.vertex("c"), Point.vertex("d"), "c")


@given(
    pick=st.integers(min_value=0),
    rows=st.lists(
        st.lists(st.fractions(0, 1, max_denominator=12), min_size=1, max_size=8),
        min_size=2,
        max_size=4,
    ),
)
# on the first frame, {b2} falls from 1/2 and {c0} rises to 1/2: they cross at 1/2, a
# breakpoint over 2 * 2 * 2 = 8 that the gcd 2 reduces to quarters
@example(pick=0, rows=[[F(1, 2), F(0)], [F(0), F(1, 2)]])
def test_integer_chain_route_matches_the_fraction_reference(straight_frames, pick, rows):
    frame = straight_frames[pick % len(straight_frames)]
    poset, vertices = frame.poset, frame.vertices
    bps = []
    for k, row in enumerate(rows):
        # the largest drawn value at or above each vertex, so coordinates
        # never increase upward
        raw = {v: row[i % len(row)] for i, v in enumerate(vertices)}
        coords = {u: max(f for v, f in raw.items() if poset.leq(u, v)) for u in vertices}
        bps.append((F(k, len(rows) - 1), {v: f for v, f in coords.items() if f}))
    refined = engine._refine_crossings([(t, *scale_coords(c)) for t, c in bps])
    for _, den, nums in refined:
        assert math.gcd(den, *nums.values()) == 1
    integer = [(t, frame._point_from_nums(den, nums)) for t, den, nums in refined]
    assert integer == fraction_chain_breakpoints(frame, bps)


def test_refined_breakpoints_are_reduced_to_lowest_terms():
    # u falls from 1/2 to 0 while v rises from 0 to 1/2: they cross at 1/2,
    # at 2/8 over den0 * den1 * q = 8 before the common factor 2 is divided out
    legs = [(F(0), 2, {"u": 1}), (F(1), 2, {"v": 1})]
    assert engine._refine_crossings(legs) == [
        (F(0), 2, {"u": 1}),
        (F(1, 2), 4, {"u": 1, "v": 1}),
        (F(1), 2, {"v": 1}),
    ]


def pinned_instances():
    """Three poset-route paths whose legs are cut where coordinates cross,
    with their breakpoints recorded from the Fraction route: the README
    quadrant (P2), the bz host (P4) and the subspaces of F_2^3 inside one
    of two hyperplanes (P4)."""
    quad, bz = make_quadrant(), make_bz()
    f3 = subspace_lattice(3, (1, 2))[0]
    return [
        (
            stable_ideals(quad),
            point_from_b(quad, QX),
            point_from_b(quad, QY),
            "P2",
            [
                (F(0), {"{b1,b2}": F(2, 5), "{b1}": F(3, 5)}),
                (F(4, 9), {"{b1}": F(1, 9), "{}": F(8, 9)}),
                (F(14, 29), {"{b1,c1}": F(1, 29), "{}": F(28, 29)}),
                (F(1, 2), {"{c1}": F(1, 20), "{}": F(19, 20)}),
                (F(6, 11), {"{c1,c2}": F(1, 11), "{}": F(10, 11)}),
                (F(1), {"{c1,c2}": F(1, 2), "{c2}": F(1, 2)}),
            ],
        ),
        (
            stable_ideals(bz),
            point_from_b(bz, {"b": 1, "z": F(1, 2)}),
            point_from_b(bz, {"c": 1, "z": F(1, 4)}),
            "P4",
            [
                (F(0), {"{b,z}": F(1, 2), "{b}": F(1, 2)}),
                (F(2, 7), {"{b,z}": F(3, 7), "{}": F(4, 7)}),
                (F(1, 2), {"{z}": F(3, 8), "{}": F(5, 8)}),
                (F(2, 3), {"{c,z}": F(1, 3), "{}": F(2, 3)}),
                (F(1), {"{c,z}": F(1, 4), "{c}": F(3, 4)}),
            ],
        ),
        (
            f3,
            Point({"0": F(4, 5), "0,2": F(1, 5)}),
            Point({"0": F(1, 2), "0,1,4,5": F(1, 2)}),
            "P4",
            [
                (F(0), {"0": F(4, 5), "0,2": F(1, 5)}),
                (F(1, 6), {"0": F(11, 12), "0,2,4,6": F(1, 12)}),
                (F(2, 7), {"0": F(6, 7), "0,4": F(1, 7)}),
                (F(1), {"0": F(1, 2), "0,1,4,5": F(1, 2)}),
            ],
        ),
    ]


def test_chain_paths_with_crossing_cuts_are_pinned():
    for host, x, y, case, expected in pinned_instances():
        geo = geodesic(host, x, y)
        assert geo.case == case
        assert geo.path.breakpoints == tuple((t, Point(c)) for t, c in expected)


def test_subspace_semilattice_paths_join_the_points_at_the_reported_length():
    # the subspaces of F_2^n inside one of two hyperplanes: modular
    # semilattices that are neither lattices nor median
    cases = Counter()
    for n in (3, 4):
        host = subspace_lattice(n, (1, 2))[0]
        rng = random.Random(3)
        for _ in range(150):
            x, y = Point(random_ideal_point(rng, host)), Point(random_ideal_point(rng, host))
            geo = geodesic(host, x, y)
            assert (geo.path.start, geo.path.end) == (x, y)
            assert abs(geo.path.length(host) - geo.length) <= 1e-12
            cases[geo.case] += 1
    assert cases["P2"] and cases["P4"], cases


def test_frame_breakpoints_reject_masses_that_do_not_fit():
    _, frame = quadrant_frame()
    arch = Arch(
        ["{b1,b2}", "{b1,c1}", "{c1,c2}"], [F(4, 25), F(1)], [F(1, 4), F(1)]
    )
    with pytest.raises(InvalidStructure, match="point mass off its side"):
        engine._frame_breakpoints(frame, arch, {"{c1}": F(1)}, {"{c2}": F(1)})
    # concave, and the totals agree with the points, but not block by block
    mismatched = Arch(
        ["{b1,b2}", "{b1,c1}", "{c1,c2}"], [F(1), F(4, 25)], [F(6, 5), F(1, 20)]
    )
    with pytest.raises(SupportMismatch, match="falling block masses disagree"):
        engine._frame_breakpoints(frame, mismatched, QX_FRAME, QY_FRAME)


def test_frame_breakpoints_reject_block_mismatch_under_python_O():
    code = """
from fractions import Fraction as F
from orthogeo import Arch, Pip, SupportMismatch, build_frame, engine, stable_ideals
ideals = stable_ideals(Pip(["b1", "b2", "c1", "c2"], [("b1", "c2"), ("b2", "c1")]))
frame = build_frame(
    ideals, "{b1,b2}", "{c1,c2}", ["{b1,b2}", "{b1,c1}", "{c1,c2}"],
    ("{}", "{b1}", "{b1,b2}"), ("{}", "{c2}", "{c1,c2}"), base="{}",
)
arch = Arch(["{b1,b2}", "{b1,c1}", "{c1,c2}"], [1, F(4, 25)], [F(6, 5), F(1, 20)])
print(__debug__)
try:
    bps = engine._frame_breakpoints(
        frame, arch, {"{b1}": F(1), "{b1,b2}": F(2, 5)}, {"{c1}": F(1, 2), "{c2}": F(1)}
    )
    print("breakpoints:", len(bps))
except SupportMismatch as exc:
    print("rejected:", exc)
"""
    proc = run_python(["-O", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "rejected: falling block masses disagree with the arch",
    ]


def test_poset_arch_route_invariants_raise_under_python_O():
    # a corrupted xi table end, a metric interval off the joinable part, a
    # non-concave extreme arch, a length below the base that the frame does
    # not reproduce, joinable parts with no join and a path that misses its
    # ends; then a straight (P1) length that the frame does not reproduce;
    # then, on the quadrant, arch shadows that are not nested and frame
    # coordinates off their side; each fed in through the engine's module
    # attributes
    code = """
from fractions import Fraction as F
from orthogeo import (
    Arch, Frame, InvalidStructure, Pip, Point, engine, geodesic, point_from_b, stable_ideals
)
print(__debug__)
bz = Pip(["b", "c", "z"], [("b", "c")])
ideals = stable_ideals(bz)
x = point_from_b(bz, {"b": 1, "z": F(1, 2)})
y = point_from_b(bz, {"c": 1, "z": F(1, 4)})
print(geodesic(ideals, x, y).case)
xi, metric_interval = engine.xi, engine.metric_interval


def corrupt_ends(poset, members, x, y, base):
    return {u: (s1 + 1, s2) for u, (s1, s2) in xi(poset, members, x, y, base).items()}


def shifted(**fields):
    return lambda poset, p, q: metric_interval(poset, p, q)._replace(**fields)


patches = (
    ("xi", corrupt_ends),
    ("metric_interval", shifted(base="{c,z}")),
    ("metric_interval", shifted(omega_p="{b,z}")),
    ("is_concave", lambda arch: False),
    ("_sq_distance_below", lambda *args: F(7)),
    ("omega", lambda poset, a, b: b),
    ("_dedup_breakpoints", lambda bps: [*bps[:-1], (1, bps[-2][1])]),
)


def attempt(name, patch, host, x, y):
    real = getattr(engine, name)
    setattr(engine, name, patch)
    try:
        geodesic(host, x, y)
    except InvalidStructure as exc:
        print("rejected:", exc)
    finally:
        setattr(engine, name, real)


for name, patch in patches:
    attempt(name, patch, ideals, x, y)
print(geodesic(ideals, Point.vertex("{b}"), Point.vertex("{z}")).case)
attempt("_sq_distance_below", lambda *args: F(7), ideals, Point.vertex("{b}"), Point.vertex("{z}"))

quad = Pip(["b1", "b2", "c1", "c2"], [("b1", "c2"), ("b2", "c1")])
quad_ideals = stable_ideals(quad)
qx = point_from_b(quad, {"b1": 1, "b2": F(2, 5)})
qy = point_from_b(quad, {"c1": F(1, 2), "c2": 1})
unnested = Arch(
    ["{b1,b2}", "{b1}", "{b1,c1}", "{c1,c2}"], [F(1, 25), F(3, 25), 1], [F(1, 8), F(1, 8), 1]
)
build_frame = engine.build_frame


def x_coords_only(*args, **kwargs):
    frame = build_frame(*args, **kwargs)
    frame.b_coords = lambda point: Frame.b_coords(frame, qx)
    return frame


attempt("extreme_arch", lambda probe, end_x, end_y, den: unnested, quad_ideals, qx, qy)
attempt("build_frame", x_coords_only, quad_ideals, qx, qy)
"""
    proc = run_python(["-O", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "P4",
        "rejected: xi table ends disagree with the simplex distances",
        "rejected: projected tops do not meet at the joinable part",
        "rejected: projected tops are not orthogonal over the joinable part",
        "rejected: extreme arch came out non-concave",
        "rejected: frame and sublattice disagree below the base",
        "rejected: joinable parts of the two tops have no join",
        "rejected: path ends moved off the points",
        "P1",
        "rejected: frame and ranks disagree on the straight segment",
        "rejected: rising traces are not nested",
        "rejected: point mass off its side",
    ]


def test_median_route_invariants_raise_under_python_O():
    # a min cut that is no stable ideal, extreme arches that are not nested
    # or not concave, joinable parts that swallow a side and a path that
    # misses its ends, fed in through the module attributes
    code = """
from fractions import Fraction as F
from orthogeo import Arch, InvalidStructure, Pip, Separation, engine, flow, geodesic_median, solve_msip
print(__debug__)
layered = Pip(["u", "v", "c"], [("u", "c"), ("v", "c")], [("u", "v")])
quad = Pip(["b1", "b2", "c1", "c2"], [("b1", "c2"), ("b2", "c1")])
x, y = {"b1": F(1), "b2": F(2, 5)}, {"c1": F(1, 2), "c2": F(1)}
max_flow, extreme_arch = flow.max_flow, engine.extreme_arch
for pip, xs, ys, side in ((layered, {"u": 1, "v": 1}, {"c": 1}, "v"), (quad, x, y, "b1")):
    # no bracket leaves every vertex open, vertex k as node k + 2
    flow.max_flow = lambda n, arcs, i=pip.index[side] + 2: (0, 1 | 1 << i)
    try:
        solve_msip(Separation(pip, xs, ys), F(1, 2))
    except InvalidStructure as exc:
        print("rejected:", exc)
flow.max_flow = max_flow
ends = frozenset({"b1", "b2"}), frozenset({"c1", "c2"})
for middle, xsq, ysq in (
    ({"b1", "c1", "c2"}, [F(4, 25), 1], [F(5, 4), 1]),
    ({"b2", "c2"}, [1, F(4, 25)], [1, F(1, 4)]),
):
    arch = Arch([ends[0], frozenset(middle), ends[1]], xsq, ysq)
    engine.extreme_arch = lambda probe, end_x, end_y, den, arch=arch: arch
    try:
        geodesic_median(quad, x, y, compute_path=False)
    except InvalidStructure as exc:
        print("rejected:", exc)
engine.extreme_arch = extreme_arch
for name, patch in (
    ("_omega_part", lambda pip, ux, uy: ux),
    ("_dedup_breakpoints", lambda bps: [*bps[:-1], (1, bps[-2][1])]),
):
    real = getattr(engine, name)
    setattr(engine, name, patch)
    try:
        geodesic_median(quad, x, y)
    except InvalidStructure as exc:
        print("rejected:", exc)
    finally:
        setattr(engine, name, real)
"""
    proc = run_python(["-O", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "rejected: cut did not produce an ideal",
        "rejected: cut did not produce a stable set",
        "rejected: rising traces are not nested",
        "rejected: extreme arch came out non-concave",
        "rejected: support ideals with no crossing edges must join",
        "rejected: path ends moved off the points",
    ]


# -- random cross-validation --------------------------------------------------------


def test_routes_agree_on_random_orthogonal_instances():
    rng = random.Random(42)
    for _ in range(25):
        pip, x, y = random_orthogonal_instance(rng, max_side=3)
        med = geodesic_median(pip, x, y)
        ideals = stable_ideals(pip)
        pos = geodesic(ideals, point_from_b(pip, x), point_from_b(pip, y))
        assert med.sq_length == pos.sq_length
        assert med.case == pos.case == "P2"
        assert med.arch.steps == pos.arch.steps


def test_routes_trace_the_same_path_on_random_stable_ideal_posets():
    # random chain points of the stable-ideal host, so the supports may join
    # (P0/P1), be orthogonal (P2) or share vertices (P4); the poset route's
    # path, read in vertex coordinates, must be the median route's path at
    # every breakpoint of either
    rng = random.Random(7)
    shared_p4 = p2 = 0
    for _ in range(60):
        pip = random_bipartite_pip(rng, max_side=3)
        ideals = stable_ideals(pip)
        xp, yp = Point(random_ideal_point(rng, ideals)), Point(random_ideal_point(rng, ideals))
        x, y = b_coordinates(ideals, xp), b_coordinates(ideals, yp)
        med = geodesic_median(pip, x, y)
        pos = geodesic(ideals, xp, yp)
        assert med.sq_length == pos.sq_length
        shared_p4 += med.case == "P4" and bool(x.keys() & y.keys())
        p2 += med.case == "P2"
        times = {t for t, _ in med.bpath.breakpoints} | {t for t, _ in pos.path.breakpoints}
        for t in sorted(times):
            assert b_coordinates(ideals, pos.path.point_at(t)) == med.bpath.point_at(t)
    assert shared_p4 and p2


def plain_host(ideals):
    """A stable-ideal poset rebuilt as a plain Hasse diagram: elements
    renamed e0, e1, ..., and no ideal_sets to read vertex sets from."""
    name = {e: f"e{k}" for k, e in enumerate(ideals.ids)}
    covers = [(name[a], name[b]) for a, b in ideals.covers]
    return GradedPoset(list(name.values()), covers)


def ideal_coords(rep, x):
    """Vertex coordinates over the pip of a Birkhoff representation of a
    chain-form point: each join-irreducible gets the mass above it."""
    out = {}
    for e, mass in x.coeffs.items():
        for v in rep.to_ideal[e]:
            out[v] = out.get(v, F(0)) + mass
    return dict(sorted(out.items()))


def birkhoff_route_agrees(rng, poset, pairs):
    """Cases of random pairs on a median host, each checked, by length and
    by path at every breakpoint of either route, against the median engine
    on the pip of the host's join-irreducibles."""
    rep = birkhoff(poset)
    cases = []
    for _ in range(pairs):
        xp, yp = Point(random_ideal_point(rng, poset)), Point(random_ideal_point(rng, poset))
        pos = geodesic(poset, xp, yp)
        med = geodesic_median(rep.pip, ideal_coords(rep, xp), ideal_coords(rep, yp))
        assert pos.sq_length == med.sq_length
        times = {t for t, _ in med.bpath.breakpoints} | {t for t, _ in pos.path.breakpoints}
        for t in sorted(times):
            assert ideal_coords(rep, pos.path.point_at(t)) == med.bpath.point_at(t)
        cases.append(pos.case)
    return cases


def test_birkhoff_route_agrees_on_plain_stable_ideal_posets():
    # the poset is a bare Hasse diagram, so the median engine sees only the
    # pip that birkhoff rebuilds from its join-irreducibles
    rng = random.Random(11)
    cases = []
    for _ in range(40):
        poset = plain_host(stable_ideals(random_bipartite_pip(rng, max_side=3)))
        assert not hasattr(poset, "ideal_sets")
        cases += birkhoff_route_agrees(rng, poset, 1)
    assert {"P0", "P1", "P2", "P4"} <= set(cases)


def test_birkhoff_route_agrees_on_catalog_distributive_lattices():
    # any two tops of a lattice join, so every pair is a straight segment
    rng = random.Random(11)
    lattices = [p for p in modular_lattice_catalog(8) if classify(p, "distributive")]
    assert len(lattices) == 36
    cases = []
    for poset in lattices:
        cases += birkhoff_route_agrees(rng, poset, 5)
    assert set(cases) == {"P0", "P1"}


def test_straight_segment_case_labels_differ_between_routes():
    # the median route says P0 only for equal points; the poset route says
    # P0 whenever both supports lie on one chain (README, "Command line")
    pip = Pip(["b0", "c0", "c1"], [])
    x = {"b0": F(1, 4), "c0": F(1, 4), "c1": F(1, 4)}
    y = {"b0": F(1), "c0": F(1, 4), "c1": F(7, 8)}
    med = geodesic_median(pip, x, y)
    pos = geodesic(stable_ideals(pip), point_from_b(pip, x), point_from_b(pip, y))
    assert (med.case, pos.case) == ("P1", "P0")
    assert med.sq_length == pos.sq_length == SqrtSum(F(61, 64))
    assert geodesic_median(pip, x, x).case == "P0"


def test_symmetry_and_path_consistency():
    rng = random.Random(9)
    for _ in range(25):
        pip, x, y = random_orthogonal_instance(rng, max_side=4)
        geo = geodesic_median(pip, x, y)
        rev = geodesic_median(pip, y, x)
        assert geo.sq_length == rev.sq_length
        assert abs(geo.length - rev.length) < 1e-12
        path = geo.bpath
        assert path.breakpoints[0][1] == {k: F(v) for k, v in x.items() if F(v)}
        assert path.breakpoints[-1][1] == {k: F(v) for k, v in y.items() if F(v)}
        assert abs(path.length() - geo.length) < 1e-9
        flat = sum(
            (x.get(v, F(0)) - y.get(v, F(0))) ** 2 for v in set(x) | set(y)
        )
        assert geo.length >= math.sqrt(float(flat)) - 1e-12


def test_median_breakpoints_list_sorted_keys_whatever_the_input_order():
    rng = random.Random(23)
    for trial in range(40):
        pip, x, y = random_orthogonal_instance(rng, max_side=4)
        if trial % 4 == 0:
            y = dict(x, **{v: F(1, 2) for v in x if rng.random() < 0.5})  # straight segment
        answers = set()
        for _ in range(3):
            xs = dict(rng.sample(sorted(x.items()), len(x)))
            ys = dict(rng.sample(sorted(y.items()), len(y)))
            geo = geodesic_median(pip, xs, ys)
            assert all(list(c) == sorted(c) for _, c in geo.bpath.breakpoints)
            answers.add(repr(geo.bpath.breakpoints))
        assert len(answers) == 1


def test_oracle_upper_bounds_engine():
    rng = random.Random(5)
    for _ in range(8):
        pip, x, y = random_orthogonal_instance(rng, max_side=3)
        geo = geodesic_median(pip, x, y, compute_path=False)
        upper = oracle_distance(pip, x, y, n=4)
        assert upper + 1e-9 >= geo.length
