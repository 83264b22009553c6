"""Graded posets, classification flags, pips, and stable-ideal complexes."""

import random

import pytest

from conftest import make_chain, make_cube, make_m3, make_quadrant, random_bipartite_pip
from orthogeo import (
    CycleError,
    GradedPoset,
    InvalidStructure,
    NotGraded,
    NotMedian,
    NotModularSemilattice,
    Pip,
    SizeCap,
    UnknownElement,
    birkhoff,
    boolean_gated_sets,
    classify,
    dedup_chain,
    extend_to_maximal_chain,
    ideal_name,
    is_maximal_chain,
    metric_interval,
    omega,
    parse_ideal_name,
    size_cap,
    stable_ideals,
)
from orthogeo.poset import FLAGS


# -- graded poset core -------------------------------------------------------


def test_ranks_and_order(m3):
    assert m3.rank_of("0") == 0
    assert m3.rank_of("a") == 1
    assert m3.rank_of("1") == 2
    assert m3.leq("0", "a") and m3.leq("a", "1") and m3.leq("0", "1")
    assert not m3.leq("a", "b")
    assert m3.leq("b", "b")


def test_meet_join_m3(m3):
    assert m3.meet("a", "b") == "0"
    assert m3.join("a", "b") == "1"
    assert m3.meet("a", "1") == "a"
    assert m3.join_set(["a", "b", "c"]) == "1"
    assert m3.meet_set(["a", "b", "c"]) == "0"
    with pytest.raises(InvalidStructure):
        m3.meet_set([])


def test_meet_join_partiality():
    ideals = stable_ideals(make_quadrant())
    assert ideals.join("{b1}", "{c1}") == "{b1,c1}"
    assert ideals.join("{b1}", "{c2}") is None
    assert ideals.meet("{b1,c1}", "{b1,b2}") == "{b1}"


def test_covers_and_chains(m3):
    assert set(m3.covers_up("0")) == {"a", "b", "c"}
    assert set(m3.covers_down("1")) == {"a", "b", "c"}
    chains = m3.maximal_chains()
    assert sorted(chains) == [
        ("0", "a", "1"),
        ("0", "b", "1"),
        ("0", "c", "1"),
    ]
    assert m3.is_chain(["0", "a", "1"])
    assert not m3.is_chain(["a", "b"])
    assert m3.is_chain([])


def test_interval_ids(cube):
    inner = cube.interval_ids("000", "110")
    assert sorted(inner) == ["000", "010", "100", "110"]


def test_not_graded_rejected():
    with pytest.raises(NotGraded):
        GradedPoset(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")],
        )


def test_cover_cycle_rejected():
    with pytest.raises(CycleError):
        GradedPoset(["a", "b"], [("a", "b"), ("b", "a")])
    # a longer cycle above an acyclic part
    with pytest.raises(CycleError, match="cover relation contains a cycle"):
        GradedPoset(["z", "a", "b", "c"], [("z", "a"), ("a", "b"), ("b", "c"), ("c", "a")])


def test_unknown_element():
    chain = make_chain(3)
    with pytest.raises(UnknownElement):
        chain.rank_of("missing")


# -- classification -----------------------------------------------------------


def test_classify_chain_and_cube():
    two = classify(make_chain(2))
    assert two["lattice"] and two["distributive"] and two["boolean"]
    three = classify(make_chain(3))
    assert three["distributive"] and not three["boolean"]
    flags = classify(make_cube())
    assert flags["boolean"] and flags["distributive"] and flags["modular"]
    assert flags["median_semilattice"] and flags["boolean_semilattice"]


def test_classify_m3(m3):
    flags = classify(m3)
    assert flags["lattice"] and flags["modular"]
    assert not flags["distributive"] and not flags["boolean"]
    assert flags["modular_semilattice"]
    assert not flags["median_semilattice"]


def test_classify_ideal_complexes():
    flags = classify(stable_ideals(make_quadrant()))
    assert flags["meet_semilattice"] and not flags["lattice"]
    assert flags["modular_semilattice"] and flags["median_semilattice"]

    cube_minus_top = GradedPoset(
        ["0", "a", "b", "c", "ab", "ac", "bc"],
        [
            ("0", "a"), ("0", "b"), ("0", "c"),
            ("a", "ab"), ("b", "ab"),
            ("a", "ac"), ("c", "ac"),
            ("b", "bc"), ("c", "bc"),
        ],
    )
    flags = classify(cube_minus_top)
    assert flags["meet_semilattice"]
    # a, b, c are pairwise bounded but the triple has no join
    assert not flags["modular_semilattice"]


# -- omega and metric intervals ----------------------------------------------


def test_omega_lattice_is_trivial(m3):
    assert omega(m3, "a", "b") == "b"
    assert omega(m3, "1", "c") == "c"


def test_omega_ideal_complex():
    ideals = stable_ideals(Pip(["b", "c"], [("b", "c")], []))
    assert omega(ideals, "{b}", "{c}") == "{}"
    assert omega(ideals, "{}", "{c}") == "{c}"


def test_metric_interval_quadrant():
    ideals = stable_ideals(make_quadrant())
    iv = metric_interval(ideals, "{b1,b2}", "{c1,c2}")
    assert iv.base == "{}"
    assert iv.omega_p == "{}" and iv.omega_q == "{}"
    assert len(iv.elements) == len(ideals)
    assert "{b1,c1}" in iv


def test_metric_interval_comparable(m3):
    iv = metric_interval(m3, "a", "1")
    assert iv.base == "a"
    assert iv.omega_p == "a" and iv.omega_q == "1"
    assert set(iv.elements) == {"a", "1"}


# -- pip validation and stable ideals ------------------------------------------


def test_pip_rejects_non_persistent_edges():
    with pytest.raises(InvalidStructure, match="persist upward"):
        Pip(["u", "v", "c"], [("u", "c")], [("u", "v")])


def test_pip_rejects_edge_between_comparable():
    with pytest.raises(InvalidStructure, match="comparable"):
        Pip(["u", "v"], [("u", "v")], [("u", "v")])


def test_pip_rejects_order_cycle():
    with pytest.raises(InvalidStructure, match="cycle"):
        Pip(["u", "v"], [], [("u", "v"), ("v", "u")])
    with pytest.raises(InvalidStructure, match="cycle"):
        Pip(["z", "u", "v", "w"], [], [("z", "u"), ("u", "v"), ("v", "w"), ("w", "u")])
    # pairs (u, u) are no cycle; they are ignored
    pip = Pip(["u", "v"], [], [("u", "u"), ("u", "v"), ("v", "v")])
    assert list(pip.order_covers()) == [("u", "v")]
    assert pip.order_pair_count() == 1


def test_pip_rejects_unknown_and_self_edges():
    with pytest.raises(UnknownElement):
        Pip(["u"], [("u", "w")], [])
    with pytest.raises(InvalidStructure, match="self-edge"):
        Pip(["u", "v"], [("u", "u")], [])
    with pytest.raises(InvalidStructure, match="duplicate"):
        Pip(["u", "u"], [], [])


def test_pip_queries(layered):
    assert layered.leq("u", "v")
    assert not layered.leq("v", "u")
    assert layered.has_edge("u", "c") and layered.has_edge("c", "v")
    mask = layered.mask_of(["u", "v"])
    assert set(layered.names_of(mask)) == {"u", "v"}
    assert layered.is_ideal_mask(layered.mask_of(["u"]))
    assert not layered.is_ideal_mask(layered.mask_of(["v"]))
    assert layered.is_stable_mask(layered.mask_of(["u", "v"]))
    assert not layered.is_stable_mask(layered.mask_of(["u", "c"]))


def brute_covers(pip):
    """Cover pairs of a pip's order, by brute force over leq."""
    def lt(u, v):
        return u != v and pip.leq(u, v)

    return {
        (u, v)
        for u in pip.ids
        for v in pip.ids
        if lt(u, v) and not any(lt(u, w) and lt(w, v) for w in pip.ids)
    }


def random_order_pip(rng, n):
    """Pip with no edges whose order is generated by random pairs along a
    random linear extension, with the vertices listed in another order."""
    ids = [f"v{i}" for i in range(n)]
    rng.shuffle(ids)
    pairs = [
        (ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
    ]
    listing = ids[:]
    rng.shuffle(listing)
    return Pip(listing, [], pairs), pairs


def test_pip_order_covers():
    rng = random.Random(5)
    for _ in range(60):
        pip = random_bipartite_pip(rng, max_side=5)
        covers = list(pip.order_covers())
        assert len(covers) == len(set(covers)) and set(covers) == brute_covers(pip)


def test_pip_closure_matches_brute_force():
    rng = random.Random(11)
    for _ in range(80):
        pip, pairs = random_order_pip(rng, rng.randint(1, 9))
        leq = {(v, v) for v in pip.ids} | set(pairs)
        while True:
            more = {(a, d) for a, b in leq for c, d in leq if b == c} - leq
            if not more:
                break
            leq |= more
        assert all(pip.leq(u, v) == ((u, v) in leq) for u in pip.ids for v in pip.ids)
        assert pip.order_pair_count() == len(leq) - len(pip)
        assert set(pip.order_covers()) == brute_covers(pip)


def test_pip_restrict(quadrant):
    sub = quadrant.restrict(["b1", "c2"])
    assert set(sub.ids) == {"b1", "c2"}
    assert sub.has_edge("b1", "c2")
    # the order survives through dropped vertices
    chain = Pip(["d", "c", "b", "a"], [], [("a", "b"), ("b", "c"), ("c", "d")])
    assert list(chain.restrict(["a", "d"]).order_covers()) == [("a", "d")]


def test_pip_restrict_keeps_induced_order_and_edges():
    rng = random.Random(7)
    non_ideal = 0
    for trial in range(120):
        pip = random_bipartite_pip(rng, max_side=5) if trial % 2 else random_order_pip(rng, 8)[0]
        keep = [v for v in pip.ids if rng.random() < 0.6]
        non_ideal += not pip.is_ideal_mask(pip.mask_of(keep))
        sub = pip.restrict(keep)
        assert sub.ids == tuple(keep)
        assert sub.edges == tuple(e for e in pip.edges if set(e) <= set(keep))
        for u in keep:
            for v in keep:
                assert sub.leq(u, v) == pip.leq(u, v)
                assert sub.has_edge(u, v) == pip.has_edge(u, v)
    assert non_ideal > 30


def test_stable_ideal_counts():
    assert len(stable_ideals(Pip(["b", "c"], [("b", "c")], []))) == 3
    assert len(stable_ideals(Pip(["b", "c"], [], []))) == 4
    assert len(stable_ideals(make_quadrant())) == 9
    assert len(stable_ideals(Pip(["b", "c", "z"], [("b", "c")], []))) == 6
    assert len(stable_ideals(Pip(["u", "v", "c"], [("u", "c"), ("v", "c")], [("u", "v")]))) == 4


def test_stable_ideals_are_graded_by_size(quadrant):
    ideals = stable_ideals(quadrant)
    for name in ideals.ids:
        assert ideals.rank_of(name) == len(parse_ideal_name(name))


def test_ideal_name_roundtrip():
    assert ideal_name([]) == "{}"
    assert parse_ideal_name("{}") == frozenset()
    assert parse_ideal_name(ideal_name(["b", "a"])) == {"a", "b"}


def test_classify_size_cap(monkeypatch):
    # classify scans up to n x n element pairs: 64 for the cube
    monkeypatch.setenv("ORTHOGEO_SIZE_CAP", "63")
    with pytest.raises(SizeCap, match="8x8"):
        classify(make_cube())
    for flag in FLAGS:
        with pytest.raises(SizeCap, match="8x8"):
            classify(make_cube(), flag)
    monkeypatch.setenv("ORTHOGEO_SIZE_CAP", "64")
    assert classify(make_cube())["boolean"]


def test_size_cap_env(monkeypatch):
    monkeypatch.setenv("ORTHOGEO_SIZE_CAP", "50")
    assert size_cap() == 50
    big = Pip([f"v{i}" for i in range(10)], [], [])
    with pytest.raises(SizeCap):
        stable_ideals(big)
    monkeypatch.delenv("ORTHOGEO_SIZE_CAP")
    assert size_cap() == 10**6


# -- birkhoff representation ---------------------------------------------------


def test_birkhoff_cube(cube):
    res = birkhoff(cube)
    assert len(res.pip.ids) == 3
    assert res.pip.edges == () and list(res.pip.order_covers()) == []
    again = stable_ideals(res.pip)
    assert len(again) == 8
    assert classify(again)["boolean"]
    assert res.from_ideal[res.to_ideal["110"]] == "110"


def test_birkhoff_chain():
    res = birkhoff(make_chain(3))
    assert res.pip.ids == ("1", "2")
    assert list(res.pip.order_covers()) == [("1", "2")]
    assert res.pip.leq("1", "2") and not res.pip.leq("2", "1")


def test_birkhoff_quadrant_ideals_roundtrip():
    pip = make_quadrant()
    res = birkhoff(stable_ideals(pip))
    assert len(res.pip.ids) == 4
    assert set(res.pip.edges) == {("{b1}", "{c2}"), ("{b2}", "{c1}")}


def test_birkhoff_rejects_m3(m3):
    with pytest.raises(NotMedian):
        birkhoff(m3)


# -- gated boolean sets of a graph ---------------------------------------------


def test_boolean_gated_sets_edge():
    g = boolean_gated_sets(Pip(["u", "v"], [("u", "v")], []))
    assert sorted(g.ids) == ["{u,v}", "{u}", "{v}"]
    assert g.rank_of("{u,v}") == 0  # reverse inclusion: big sets low


def test_boolean_gated_sets_square():
    c4 = Pip(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")], [])
    g = boolean_gated_sets(c4)
    assert len(g) == 9
    flags = classify(g)
    assert flags["median_semilattice"] and flags["boolean_semilattice"]


def test_boolean_gated_sets_path():
    p3 = Pip(["a", "b", "c"], [("a", "b"), ("b", "c")], [])
    g = boolean_gated_sets(p3)
    assert sorted(g.ids) == ["{a,b}", "{a}", "{b,c}", "{b}", "{c}"]


def test_boolean_gated_sets_guards():
    with pytest.raises(InvalidStructure, match="connected"):
        boolean_gated_sets(Pip(["u", "v"], [], []))
    with pytest.raises(SizeCap):
        boolean_gated_sets(Pip([f"v{i}" for i in range(25)], [(f"v{i}", f"v{i+1}") for i in range(24)], []))


# -- chain helpers --------------------------------------------------------------


def test_extend_to_maximal_chain(m3, cube):
    assert extend_to_maximal_chain(m3, [], "0", "1") == ("0", "a", "1")
    assert extend_to_maximal_chain(m3, ["b"], "0", "1") == ("0", "b", "1")
    got = extend_to_maximal_chain(cube, ["010"], "000", "111")
    assert got == ("000", "010", "011", "111")
    with pytest.raises(InvalidStructure, match="not a chain"):
        extend_to_maximal_chain(m3, ["a", "b"], "0", "1")


def test_is_maximal_chain(m3):
    assert is_maximal_chain(m3, ["0", "a", "1"], "0", "1")
    assert not is_maximal_chain(m3, ["0", "1"], "0", "1")
    assert not is_maximal_chain(m3, ["0", "b", "1"], "0", "a")


def test_dedup_chain():
    assert list(dedup_chain(["a", "a", "b", "b", "b", "c"])) == ["a", "b", "c"]
    assert list(dedup_chain([])) == []
