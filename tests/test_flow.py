"""Max-flow solver and the weighted stable-ideal selection built on it."""

import random
import sys
from fractions import Fraction
from functools import reduce
from operator import and_

import pytest
from hypothesis import assume, given, strategies as st

from conftest import make_layered, make_quadrant, random_bipartite_pip
from orthogeo import (
    InfiniteFlow,
    InvalidStructure,
    NotBipartitePip,
    Pip,
    Separation,
    extreme_arch,
    flow,
    max_flow,
    solve_msip,
)

F = Fraction

S, T = 0, 1  # max_flow's source and sink


def textbook():
    a, b = 2, 3
    return 4, [(S, a, 3), (S, b, 2), (a, b, 1), (a, T, 2), (b, T, 3)]


def test_max_flow_textbook():
    # the cuts {S}, {S, a} and {S, a, b} all cost 5; the first is the smallest
    assert max_flow(*textbook()) == (5, 1 << S)


def test_max_flow_min_cut_smallest():
    assert max_flow(3, [(S, 2, 1), (2, T, 1)]) == (1, 1 << S)


def test_max_flow_infinite_arcs_route_around():
    a, b = 2, 3
    # a -> b is uncapacitated
    assert max_flow(4, [(S, a, 2), (a, b, None), (b, T, 1)]) == (1, 0b1101)


def test_max_flow_infinite_path_raises():
    with pytest.raises(InfiniteFlow):
        max_flow(3, [(S, 2, None), (2, T, None)])


def test_max_flow_disconnected_sink():
    a, b = 2, 3
    assert max_flow(4, [(S, a, 1), (b, T, 1)]) == (0, 1 << S | 1 << a)


def test_max_flow_parallel_arcs_merge():
    assert max_flow(2, [(S, T, 1), (S, T, 2)])[0] == 3
    with pytest.raises(InvalidStructure, match="negative"):
        max_flow(2, [(S, T, -1)])


def random_network(rng):
    """Up to 7 nodes (source 0, sink 1, perhaps some isolated), arcs with
    integer capacities, some of them zero and some infinite."""
    n = rng.randint(2, 7)
    arcs = []
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v, None if rng.random() < 0.2 else rng.randint(0, 12)))
    return n, arcs


def random_networks():
    rng = random.Random(11)
    return [random_network(rng) for _ in range(400)]


def cut_capacity(arcs, side):
    """Total capacity of the arcs leaving the source side (a node mask);
    None when one is infinite."""
    total = 0
    for u, v, cap in arcs:
        if side >> u & 1 and not side >> v & 1:
            if cap is None:
                return None
            total += cap
    return total


def test_max_flow_min_cut_duality():
    for n, arcs in [textbook(), *random_networks()]:
        try:
            value, cut = max_flow(n, arcs)
        except InfiniteFlow:
            continue
        assert cut >> S & 1 and not cut >> T & 1
        assert value == cut_capacity(arcs, cut)


def test_max_flow_matches_brute_force():
    unbounded = 0
    for n, arcs in random_networks():
        # every source side: the source, never the sink, any of nodes 2..n-1
        finite = {}
        for others in range(1 << (n - 2)):
            side = 1 << S | others << 2
            cap = cut_capacity(arcs, side)
            if cap is not None:
                finite[side] = cap
        if not finite:
            unbounded += 1
            with pytest.raises(InfiniteFlow):
                max_flow(n, arcs)
            continue
        least = min(finite.values())
        least_sides = [side for side, cap in finite.items() if cap == least]
        value, cut = max_flow(n, arcs)
        assert value == least
        assert cut == reduce(and_, least_sides), "the cut must be the source-minimal minimum cut"
    assert 0 < unbounded < 400


def test_max_flow_long_path_is_not_recursive():
    # the path runs S = 0 -> 2 -> 3 -> ... -> n-1 -> T = 1
    n = 5000
    assert sys.getrecursionlimit() < n
    path = [S, *range(2, n), T]
    arcs = [(u, v, 1 if k in (2500, 4000) else 2) for k, (u, v) in enumerate(zip(path, path[1:]))]
    assert max_flow(n, arcs) == (1, sum(1 << u for u in path[:2501]))


# -- weighted stable-ideal selection ------------------------------------------


def objective(masses, lam):
    """The separation objective of an ideal from its two side masses."""
    xmass, ymass = masses
    return (1 - lam) * xmass + lam * ymass


def all_optima(pip, x, y, lam):
    """All stable ideals attaining the maximal objective, by brute force."""
    n = len(pip.ids)
    opts, best = [], None
    for mask in range(1 << n):
        if not (pip.is_ideal_mask(mask) and pip.is_stable_mask(mask)):
            continue
        names = frozenset(pip.names_of(mask))
        obj = (1 - lam) * sum(x[b] ** 2 for b in names if b in x) + lam * sum(
            y[c] ** 2 for c in names if c in y
        )
        if best is None or obj > best:
            best, opts = obj, [names]
        elif obj == best:
            opts.append(names)
    return best, opts


def test_solve_msip_tie_prefers_c_side():
    pip = Pip(["b", "c"], [("b", "c")], [])
    chosen, masses = solve_msip(Separation(pip, {"b": F(1)}, {"c": F(1)}), F(1, 2))
    assert objective(masses, F(1, 2)) == F(1, 2)
    assert set(chosen) == {"c"}


def test_solve_msip_lambda_extremes():
    quad = make_quadrant()
    x = {"b1": F(1), "b2": F(2, 5)}
    y = {"c1": F(1, 2), "c2": F(1)}
    chosen0, m0 = solve_msip(Separation(quad, x, y), F(0))
    assert objective(m0, F(0)) == F(29, 25)
    chosen1, m1 = solve_msip(Separation(quad, x, y), F(1))
    assert objective(m1, F(1)) == F(5, 4) and set(chosen1) >= {"c1", "c2"}


def test_solve_msip_respects_order():
    layered = make_layered()
    chosen, masses = solve_msip(
        Separation(layered, {"u": F(1, 2), "v": F(1, 2)}, {"c": F(1)}), F(1, 2)
    )
    # taking v forces u; taking c forbids both
    assert (objective(masses, F(1, 2)), set(chosen)) == (F(1, 2), {"c"})


def test_solve_msip_validates():
    with pytest.raises(NotBipartitePip, match="one side"):
        Separation(Pip(["b1", "b2"], [("b1", "b2")], []), {"b1": F(1), "b2": F(1)}, {})
    ordered = Pip(["b", "c"], [], [("b", "c")])
    with pytest.raises(NotBipartitePip, match="across sides"):
        Separation(ordered, {"b": F(1)}, {"c": F(1)})
    layered = make_layered()
    with pytest.raises(NotBipartitePip, match="partition"):
        Separation(layered, {"u": F(1)}, {"c": F(1)})
    quad = make_quadrant()
    with pytest.raises(InvalidStructure, match="lambda"):
        solve_msip(
            Separation(quad, {"b1": F(1), "b2": F(1)}, {"c1": F(1), "c2": F(1)}), F(3, 2)
        )


def test_solve_msip_matches_brute_force_small():
    rng = random.Random(7)
    for _ in range(40):
        pip = random_bipartite_pip(rng, max_side=3)
        bs = [v for v in pip.ids if v.startswith("b")]
        cs = [v for v in pip.ids if v.startswith("c")]
        x = {b: F(rng.randint(0, 8), 8) for b in bs}
        y = {c: F(rng.randint(0, 8), 8) for c in cs}
        lam = F(rng.randint(0, 16), 16)
        chosen, masses = solve_msip(Separation(pip, x, y), lam)
        expect_value, opts = all_optima(pip, x, y, lam)
        assert masses == (
            sum((x[b] ** 2 for b in chosen if b in x), F(0)),
            sum((y[c] ** 2 for c in chosen if c in y), F(0)),
        )
        assert objective(masses, lam) == expect_value
        assert chosen in opts
        bset = set(bs)
        for other in opts:
            assert other - bset <= chosen - bset, "returned C-part must dominate"
            if other - bset == chosen - bset:
                assert chosen & bset <= other & bset, "returned B-part must be least"


def test_solve_msip_long_chain_is_not_recursive():
    # b0 < b1 < ... < b1999, and c sees b1500 and everything above it.  Only
    # b1499 and the vertices c sees carry x-weight, so the optimum keeps c and
    # the zero-weight chain b0..b1498 comes in only because b1499 forces it;
    # the first blocking-flow search runs 1500 arcs down that chain.
    n, k = 2000, 1500
    assert sys.getrecursionlimit() < k
    bs = [f"b{i}" for i in range(n)]
    pip = Pip(
        [*reversed(bs), "c"],
        [(b, "c") for b in bs[k:]],
        [(bs[i], bs[i + 1]) for i in range(n - 1)],
    )
    x = {b: F(0) for b in bs}
    x.update({b: F(1) for b in bs[k - 1 :]})
    # keeping c: 1/2 * (1 + 23^2); dropping it for b1500..: 1/2 * (1 + 500)
    chosen, masses = solve_msip(Separation(pip, x, {"c": F(23)}), F(1, 2))
    assert objective(masses, F(1, 2)) == 265
    assert chosen == frozenset([*bs[:k], "c"])


def test_solve_msip_rejects_unnested_bracket():
    sep = Separation(make_quadrant(), {"b1": F(1), "b2": F(1)}, {"c1": F(1), "c2": F(1)})
    # b1 settled in by hi and out by lo at once
    with pytest.raises(InvalidStructure, match="not nested"):
        solve_msip(sep, F(1, 2), frozenset({"b2"}), frozenset({"b1", "c1"}))


@given(st.randoms(use_true_random=False))
def test_bracketed_probes_match_unbracketed_solve(rng):
    # random pips with order covers, weights from two values so that ties
    # abound; every vertex keeps an edge, as in the median engine
    pip = random_bipartite_pip(rng, max_side=4, order_p=0.5)
    keep = [v for v in pip.ids if any(pip.has_edge(v, w) for w in pip.ids)]
    assume(keep)
    pip = pip.restrict(keep)
    x = {v: rng.choice((F(1, 2), F(1))) for v in keep if v.startswith("b")}
    y = {v: rng.choice((F(1, 2), F(1))) for v in keep if v.startswith("c")}
    sep = Separation(pip, x, y)
    breakpoints = 0

    def probe(w1, w2, lo, hi):
        nonlocal breakpoints
        lam = w2 / (w1 + w2)
        got = solve_msip(sep, lam, lo[0], hi[0])
        assert got == solve_msip(sep, lam)
        # a fresh Separation has no memo to answer from
        assert got == solve_msip(Separation(pip, x, y), lam)
        pt = got[1]
        assert pt == sep.masses(got[0])
        # no point above the chord: lam is a breakpoint, lo and hi both optimal
        breakpoints += w1 * pt[0] + w2 * pt[1] == w1 * lo[1][0] + w2 * lo[1][1]
        return got[0], pt

    bset, cset = frozenset(x), frozenset(y)
    extreme_arch(probe, (bset, sep.masses(bset)), (cset, sep.masses(cset)))
    assert breakpoints >= 1


def test_brackets_as_set_list_or_frozenset_agree():
    rng = random.Random(2626)
    compared = 0
    for _ in range(30):
        pip = random_bipartite_pip(rng, max_side=4, order_p=0.4)
        keep = [v for v in pip.ids if any(pip.has_edge(v, w) for w in pip.ids)]
        if not keep:
            continue
        pip = pip.restrict(keep)
        x = {v: F(rng.randint(1, 3), 2) for v in keep if v.startswith("b")}
        y = {v: F(rng.randint(1, 3), 2) for v in keep if v.startswith("c")}
        sep = Separation(pip, x, y)

        def probe(w1, w2, lo, hi):
            nonlocal compared
            lam = w2 / (w1 + w2)
            got = solve_msip(sep, lam, lo[0], hi[0])
            for kind in (set, list, frozenset):
                assert solve_msip(sep, lam, kind(lo[0]), kind(hi[0])) == got
                assert solve_msip(Separation(pip, x, y), lam, kind(lo[0]), kind(hi[0])) == got
            compared += 1
            return got[0], got[1]

        bset, cset = frozenset(x), frozenset(y)
        extreme_arch(probe, (bset, sep.masses(bset)), (cset, sep.masses(cset)))
    assert compared > 30


def test_memo_never_answers_for_an_unchecked_cut(monkeypatch):
    layered = make_layered()
    sep = Separation(layered, {"u": F(1), "v": F(1)}, {"c": F(1)})
    answers = [solve_msip(sep, lam) for lam in (F(0), F(1, 3), F(1, 2), F(1))]
    assert {ideal for ideal, _ in answers} == {frozenset({"u", "v"}), frozenset({"c"})}
    # with no bracket vertex k is node k + 2: the cut keeps v but not u,
    # which is no ideal, and no earlier solve returned that mask
    v = layered.index["v"] + 2
    monkeypatch.setattr(flow, "max_flow", lambda n, arcs: (0, 1 | 1 << v))
    with pytest.raises(InvalidStructure, match="cut did not produce an ideal"):
        solve_msip(sep, F(1, 2))
