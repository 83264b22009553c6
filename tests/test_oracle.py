"""Grid oracle, exhaustive arch enumeration, convexity probe, and the
test catalog of small modular lattices."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    make_bz,
    make_edge_bc,
    make_m3,
    make_quadrant,
    make_square,
    random_orthogonal_instance,
)
from orthogeo import (
    GradedPoset,
    InvalidStructure,
    Pip,
    Point,
    SizeCap,
    SqrtSum,
    cat0_check,
    classify,
    enumerate_arches,
    geodesic_median,
    is_concave,
    oracle_distance,
    point_from_b,
    stable_ideals,
    v_sq,
)
from reference import modular_lattice_catalog

F = Fraction

QX = {"b1": F(1), "b2": F(2, 5)}
QY = {"c1": F(1, 2), "c2": F(1)}


# -- grid oracle -----------------------------------------------------------------


def test_oracle_exact_on_shared_cube():
    # endpoints and the optimal crossing point are all grid nodes
    got = oracle_distance(make_square(), {"b": F(1, 2)}, {"c": F(1, 2)}, n=4)
    assert abs(got - math.sqrt(0.5)) < 1e-9


def test_oracle_m3_midwall():
    got = oracle_distance(make_m3(), Point.vertex("a"), Point.vertex("b"), n=8)
    assert abs(got - math.sqrt(2)) < 1e-9


def test_oracle_quadrant_upper_bound():
    exact = float(SqrtSum(F(481, 100))) ** 0.5
    for n in (2, 4, 8):
        got = oracle_distance(make_quadrant(), QX, QY, n=n)
        assert got >= exact - 1e-9
    got8 = oracle_distance(make_quadrant(), QX, QY, n=8)
    assert got8 <= exact * 1.03


def test_oracle_refines_downward():
    host = make_quadrant()
    d2 = oracle_distance(host, QX, QY, n=2)
    d4 = oracle_distance(host, QX, QY, n=4)
    d8 = oracle_distance(host, QX, QY, n=8)
    assert d2 >= d4 - 1e-12 >= d8 - 2e-12


def test_oracle_zero_distance():
    host = make_square()
    assert oracle_distance(host, {"b": F(1, 3)}, {"b": F(1, 3)}, n=2) == 0.0


def test_oracle_size_cap(monkeypatch):
    monkeypatch.setenv("ORTHOGEO_SIZE_CAP", "10")
    with pytest.raises(SizeCap):
        oracle_distance(make_quadrant(), QX, QY, n=8)


# -- exhaustive arch enumeration ---------------------------------------------------


def test_enumerate_arches_quadrant():
    arches = enumerate_arches(make_quadrant(), QX, QY)
    assert len(arches) == 3
    (best, v0), (twin, v1), (single, v2) = arches
    assert best.members == (
        frozenset({"b1", "b2"}),
        frozenset({"b1", "c1"}),
        frozenset({"c1", "c2"}),
    )
    assert v_sq(best) == SqrtSum(F(481, 100)) == v_sq(twin)
    assert is_concave(best) and not is_concave(twin)
    assert v0 == v1 == pytest.approx(2.1931712199461306, abs=1e-12)
    assert single.steps == 1
    assert v_sq(single) == SqrtSum(F(241, 100)) + SqrtSum.sqrt(F(29, 5))
    assert v2 == pytest.approx(2.1950669501767957, abs=1e-12)
    assert v0 <= v2


def test_enumerate_arches_matches_engine_minimum():
    geo = geodesic_median(make_quadrant(), QX, QY, compute_path=False)
    arches = enumerate_arches(make_quadrant(), QX, QY)
    best_vals = min(v_sq(a) for a, _ in arches)
    assert best_vals == geo.sq_length
    concave = [a for a, _ in arches if is_concave(a)]
    optimal_concave = [a for a in concave if v_sq(a) == geo.sq_length]
    assert len(optimal_concave) == 1
    assert optimal_concave[0] == geo.arch
    # random pips of at most 10 vertices, with and without order.  The
    # minimum is taken over the concave arches: on many of these pips a
    # non-concave staircase has a smaller raw value
    rng = random.Random(1313)
    for order_p in (0.0, 0.4):
        for _ in range(30):
            pip, x, y = random_orthogonal_instance(rng, max_side=5, order_p=order_p)
            geo = geodesic_median(pip, x, y, compute_path=False)
            arches = [a for a, _ in enumerate_arches(pip, x, y)]
            best = min(v_sq(a) for a in arches if is_concave(a))
            assert (best - geo.sq_length).sign() == 0
            assert geo.arch in arches


def test_enumerate_arches_size_cap(monkeypatch):
    # five disjoint edges: 2^10 vertex subsets but 3451 staircases
    pip = Pip([f"b{i}" for i in range(5)] + [f"c{i}" for i in range(5)],
              [(f"b{i}", f"c{i}") for i in range(5)])
    x = {f"b{i}": F(1, 2) for i in range(5)}
    y = {f"c{i}": F(1, 2) for i in range(5)}
    monkeypatch.setenv("ORTHOGEO_SIZE_CAP", "2000")
    with pytest.raises(SizeCap, match="staircase count exceeds cap 2000"):
        enumerate_arches(pip, x, y)
    monkeypatch.setenv("ORTHOGEO_SIZE_CAP", "1000")
    with pytest.raises(SizeCap, match="scans 2\\^10 vertex subsets"):
        enumerate_arches(pip, x, y)


def test_enumerate_arches_poset_host():
    quad = make_quadrant()
    ideals = stable_ideals(quad)
    arches = enumerate_arches(ideals, point_from_b(quad, QX), point_from_b(quad, QY))
    assert [a.members for a, _ in arches] == [
        ("{b1,b2}", "{b1,c1}", "{c1,c2}"),
        ("{b1,b2}", "{b2,c2}", "{c1,c2}"),
        ("{b1,b2}", "{c1,c2}"),
    ]
    assert v_sq(arches[0][0]) == SqrtSum(F(481, 100))


def test_enumerate_arches_empty_when_supports_join():
    assert enumerate_arches(make_square(), {"b": F(1, 2)}, {"c": F(1, 2)}) == []
    assert enumerate_arches(make_bz(), {"z": F(1, 2)}, {"z": F(1, 4)}) == []


# -- convexity spot-check ------------------------------------------------------------


def test_cat0_check_report_shape():
    rep = cat0_check(make_edge_bc(), k=12, seed=3)
    assert rep["samples"] == 12
    assert 0 <= rep["max_violation"] <= 1e-6
    assert set(rep["worst_case"]) == {"sample", "t", "excess"}


def test_cat0_check_deterministic():
    a = cat0_check(make_quadrant(), k=6, seed=11)
    b = cat0_check(make_quadrant(), k=6, seed=11)
    assert a == b
    c = cat0_check(make_quadrant(), k=6, seed=12)
    assert a["samples"] == c["samples"]


def test_cat0_check_rejects_an_empty_host():
    for host in (Pip([], []), GradedPoset([], [])):
        with pytest.raises(InvalidStructure, match="host is empty"):
            cat0_check(host, k=3)
        assert cat0_check(host, k=0)["samples"] == 0


# -- catalog of small modular lattices -------------------------------------------------


def test_catalog_counts_up_to_six():
    cat = modular_lattice_catalog(6)
    counts = Counter(len(p) for p in cat)
    assert dict(counts) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 4, 6: 8}


def test_catalog_members_are_modular_lattices():
    for poset in modular_lattice_catalog(6):
        flags = classify(poset)
        assert flags["graded"]
        if len(poset) > 1:
            assert flags["lattice"] and flags["modular"]


def test_catalog_contains_landmarks():
    cat = modular_lattice_catalog(8)
    profiles = []
    for poset in cat:
        ranks = Counter(poset.rank_of(e) for e in poset.ids)
        profiles.append(tuple(ranks[r] for r in sorted(ranks)))
    # the diamond of three atoms
    assert (1, 3, 1) in profiles
    # the diamond of four atoms
    assert (1, 4, 1) in profiles
    # the boolean cube: unique eight-element boolean lattice
    booleans = [p for p in cat if len(p) == 8 and classify(p)["boolean"]]
    assert len(booleans) == 1
    # no pentagons anywhere: every five-element member is modular, and the
    # pentagon is not even graded, so it cannot appear
    assert all(classify(p)["modular"] for p in cat if len(p) == 5)


def test_catalog_deterministic():
    first = [tuple(p.ids) for p in modular_lattice_catalog(5)]
    second = [tuple(p.ids) for p in modular_lattice_catalog(5)]
    assert first == second
