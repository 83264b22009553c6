"""Graded posets, classification flags, pips, and stable-ideal complexes."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    make_chain,
    make_cube,
    make_m3,
    make_quadrant,
    random_bipartite_pip,
    subspace_lattice,
)
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
    metric_interval,
    omega,
    parse_ideal_name,
    size_cap,
    stable_ideals,
)
from orthogeo.poset import FLAGS, incidence_pip
from reference import (
    interval,
    modular_lattice_catalog,
    omega_by_joins,
    restrict_by_cover_walk,
    stable_ideals_by_subsets,
)


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


def test_meet_join_partiality():
    ideals = stable_ideals(make_quadrant())
    assert ideals.join("{b1}", "{c1}") == "{b1,c1}"
    assert ideals.join("{b1}", "{c2}") is None
    assert ideals.meet("{b1,c1}", "{b1,b2}") == "{b1}"


def test_covers_and_chains(m3):
    assert set(m3.covers_down("1")) == {"a", "b", "c"}
    chains = m3.maximal_chains()
    assert sorted(chains) == [
        ("0", "a", "1"),
        ("0", "b", "1"),
        ("0", "c", "1"),
    ]


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


def test_metric_interval_matches_joins_of_named_intervals():
    rng = random.Random(1616)
    hosts = [stable_ideals(random_bipartite_pip(rng, 3, 0.3)) for _ in range(8)]
    hosts.append(subspace_lattice(4, (1, 2))[0])
    compared = 0
    for host in hosts:
        for _ in range(10):
            p, q = rng.choice(host.ids), rng.choice(host.ids)
            m = host.meet(p, q)
            if m is None:
                continue
            sides = interval(host, m, p), interval(host, m, q)
            joins = {host.join(b, c) for b in sides[0] for c in sides[1]}
            expected = sorted(joins - {None}, key=lambda e: (host.rank_of(e), e))
            iv = metric_interval(host, p, q)
            assert iv.base == m and iv.elements == tuple(expected)
            compared += 1
    assert compared > 60


def omega_table(host, fn):
    """fn(host, a, p) on every pair of elements, None where omega finds no
    greatest member."""
    table = {}
    for a in host.ids:
        for p in host.ids:
            try:
                table[a, p] = fn(host, a, p)
            except NotModularSemilattice as exc:
                assert "no greatest member" in str(exc)
                table[a, p] = None
    return table


def assert_omega_matches_joins(host):
    assert omega_table(host, omega) == omega_table(host, omega_by_joins)


def omega_hosts():
    rng = random.Random(2701)
    hosts = [stable_ideals(random_bipartite_pip(rng, 3, 0.3)) for _ in range(6)]
    hosts += [subspace_lattice(3, (1, 2))[0], subspace_lattice(4, (1, 2))[0], make_m3()]
    return hosts + list(modular_lattice_catalog(6))


def test_omega_mask_test_matches_the_join_loop_on_meet_semilattices():
    # classify caches the meet_semilattice flag, and omega then tests
    # common upper bounds on masks
    def no_join(i, j):
        raise AssertionError("omega sought a join on a meet-semilattice")

    for host in omega_hosts():
        assert classify(host, "meet_semilattice")
        expected = omega_table(host, omega_by_joins)
        host._join_i = no_join
        assert omega_table(host, omega) == expected


def test_omega_without_a_cached_flag_seeks_each_join():
    # the same hosts built fresh: omega neither reads a flag it lacks nor
    # computes one
    for old in omega_hosts():
        host = GradedPoset(old.ids, old.covers)
        assert_omega_matches_joins(host)
        assert "meet_semilattice" not in host._flags


def test_omega_is_exact_where_a_common_upper_bound_is_no_join():
    # 0 < a, b < c, d: a and b are bounded but have no join, so the largest
    # element below b joinable with a is 0, where the mask test alone would
    # give b; with the flag computed (False) or not, omega seeks the join
    host = GradedPoset(["0", "a", "b", "c", "d"], [("0", "a"), ("0", "b")] + [
        (lo, hi) for lo in "ab" for hi in "cd"
    ])
    assert host._up[host.index["a"]] & host._up[host.index["b"]]
    assert omega(host, "a", "b") == "0"
    assert_omega_matches_joins(host)
    assert not classify(host, "meet_semilattice")
    assert omega(host, "a", "b") == "0"
    assert_omega_matches_joins(host)


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


@pytest.mark.parametrize(
    "build, noun", [(lambda ids: GradedPoset(ids, []), "element"), (lambda ids: Pip(ids, []), "vertex")]
)
def test_duplicate_and_unknown_ids_name_the_member(build, noun):
    with pytest.raises(InvalidStructure) as exc:
        build(["u", "v", "u"])
    assert str(exc.value) == f"duplicate {noun} ids"
    host = build(["u", "v"])
    for query in (lambda: host.leq("u", "w"), lambda: host.leq("w", "u"), lambda: host.mask_of(["v", "w"])):
        with pytest.raises(UnknownElement) as exc:
            query()
        assert str(exc.value) == f"unknown {noun} id 'w'"


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


@settings(deadline=None)
@given(seed=st.integers(min_value=0), bipartite=st.booleans())
def test_pip_restrict_matches_the_cover_walk(seed, bipartite):
    # the sub-order from comparable pairs, reduced to covers by the Pip
    # constructor, against the cover paths cut at kept vertices; any subset
    rng = random.Random(seed)
    pip = random_bipartite_pip(rng, max_side=5) if bipartite else random_order_pip(rng, rng.randint(1, 9))[0]
    keep = [v for v in pip.ids if rng.random() < 0.6]
    rng.shuffle(keep)
    got, want = pip.restrict(keep), restrict_by_cover_walk(pip, keep)
    assert got.ids == want.ids and got.edges == want.edges
    assert list(got.order_covers()) == list(want.order_covers())
    assert (got._up, got._down) == (want._up, want._down)


def test_incidence_pip_matches_pairwise_joins():
    rng = random.Random(13)
    for _ in range(40):
        poset = stable_ideals(random_bipartite_pip(rng, max_side=4))
        elems = [e for e in poset.elements if rng.random() < 0.5]
        rng.shuffle(elems)
        pip = incidence_pip(poset, elems)
        assert pip.ids == tuple(elems)
        assert set(pip.edges) == {
            (a, b) for a in elems for b in elems if a < b and poset.join(a, b) is None
        }
        for a in elems:
            for b in elems:
                assert pip.leq(a, b) == poset.leq(a, b)
        assert set(pip.order_covers()) == brute_covers(pip)


def test_stable_ideal_counts():
    assert len(stable_ideals(Pip(["b", "c"], [("b", "c")], []))) == 3
    assert len(stable_ideals(Pip(["b", "c"], [], []))) == 4
    assert len(stable_ideals(make_quadrant())) == 9
    assert len(stable_ideals(Pip(["b", "c", "z"], [("b", "c")], []))) == 6
    assert len(stable_ideals(Pip(["u", "v", "c"], [("u", "c"), ("v", "c")], [("u", "v")]))) == 4


def test_stable_ideals_match_a_subset_scan():
    rng = random.Random(32)
    for _ in range(200):
        pip = random_bipartite_pip(rng, max_side=4)
        got, ref = stable_ideals(pip), stable_ideals_by_subsets(pip)
        assert got.ids == ref.ids
        assert got.covers == ref.covers
        assert list(got.ideal_sets.items()) == list(ref.ideal_sets.items())


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


def test_boolean_gated_sets_scan_is_bounded_by_the_size_cap(monkeypatch):
    def path(n):
        return Pip([f"v{i}" for i in range(n)], [(f"v{i}", f"v{i + 1}") for i in range(n - 1)], [])

    # 2^20 subsets are past the default cap of 10^6
    monkeypatch.delenv("ORTHOGEO_SIZE_CAP", raising=False)
    with pytest.raises(SizeCap, match=r"2\^20 vertex subsets, over cap 1000000"):
        boolean_gated_sets(path(20))
    monkeypatch.setenv("ORTHOGEO_SIZE_CAP", "7")
    with pytest.raises(SizeCap, match=r"2\^3 vertex subsets, over cap 7"):
        boolean_gated_sets(path(3))
    # the scan of 2^3 subsets fits under 24, but its 5 sets give the cover
    # step 5 x 5 pairs
    monkeypatch.setenv("ORTHOGEO_SIZE_CAP", "24")
    with pytest.raises(SizeCap, match=r"5x5 set pairs, over cap 24"):
        boolean_gated_sets(path(3))
    monkeypatch.setenv("ORTHOGEO_SIZE_CAP", "25")
    assert sorted(boolean_gated_sets(path(3)).ids) == ["{v0,v1}", "{v0}", "{v1,v2}", "{v1}", "{v2}"]


def test_boolean_gated_sets_cover_step_fails_fast_past_the_size_cap(monkeypatch):
    # the 2^12 subset scan fits under the cap, but its 440 sets give 440^2
    # pairs to the cover step, which is cubic in the family
    path = Pip([f"v{i}" for i in range(12)], [(f"v{i}", f"v{i + 1}") for i in range(11)], [])
    monkeypatch.setenv("ORTHOGEO_SIZE_CAP", "5000")
    t0 = time.perf_counter()
    with pytest.raises(SizeCap, match=r"440x440 set pairs, over cap 5000"):
        boolean_gated_sets(path)
    assert time.perf_counter() - t0 < 5.0


# -- chain helpers --------------------------------------------------------------


def test_extend_to_maximal_chain(m3, cube):
    assert extend_to_maximal_chain(m3, [], "0", "1") == ("0", "a", "1")
    assert extend_to_maximal_chain(m3, ["b"], "0", "1") == ("0", "b", "1")
    got = extend_to_maximal_chain(cube, ["010"], "000", "111")
    assert got == ("000", "010", "011", "111")
    with pytest.raises(InvalidStructure, match="not a chain"):
        extend_to_maximal_chain(m3, ["a", "b"], "0", "1")


def test_extend_to_maximal_chain_names_a_pair_in_rank_id_order():
    # "b" is listed before "a", so index order and id order disagree on the
    # two targets of rank 1; the chain test sorts by (rank, id)
    host = GradedPoset(["0", "b", "a", "1"], [("0", "b"), ("0", "a"), ("b", "1"), ("a", "1")])
    for targets in (["a", "b"], ["b", "a"], ["1", "b", "a"]):
        with pytest.raises(InvalidStructure) as info:
            extend_to_maximal_chain(host, targets, "0", "1")
        assert str(info.value) == "'a' and 'b' are incomparable; not a chain"
    with pytest.raises(InvalidStructure) as info:
        extend_to_maximal_chain(host, ["1", "a"], "0", "a")
    assert str(info.value) == "'1' is not inside ['0', 'a']"


def test_dedup_chain():
    assert list(dedup_chain(["a", "a", "b", "b", "b", "c"])) == ["a", "b", "c"]
    assert list(dedup_chain([])) == []
