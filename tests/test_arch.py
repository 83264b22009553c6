"""Arches: staircase values, concavity, xi probes, and hull extraction."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

from conftest import (
    make_cube,
    make_quadrant,
    random_hosts,
    random_ideal_point,
    run_python,
)
from orthogeo import (
    Arch,
    EmptyBlock,
    GradedPoset,
    InvalidStructure,
    Point,
    SqrtSum,
    arch_from_xi,
    engine,
    extreme_arch,
    is_concave,
    metric_interval,
    omega,
    point_from_b,
    point_join,
    stable_ideals,
    tau,
    v_sq,
    xi,
)
from orthogeo.engine import _extreme_arch_on_interval
from orthogeo.oracle import _xi
from reference import v_sq_fold

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


# numerators and denominators up to about 2**110 whose prime factors are
# small or one prime above the trial-division bound (met squared at most),
# so that every radicand factors at once
ROUGH_PRIME = 1_000_003


@st.composite
def large_fractions(draw):
    num = draw(st.integers(1, 10**6))
    den = prod(p ** draw(st.integers(0, 12)) for p in (2, 3, 5, 7, 11, 13))
    return F(num * ROUGH_PRIME ** draw(st.integers(0, 1)), den)


@st.composite
def arches_of_mixed_cores(draw):
    """Arches whose block products x*y are perfect squares (core 1), share
    one core across blocks, or are any product of two large fractions."""
    shared = draw(st.sampled_from((2, 3, 6, 10, ROUGH_PRIME)))
    xsq, ysq = [], []
    for _ in range(draw(st.integers(1, 8))):
        a, t = draw(large_fractions()), draw(large_fractions())
        kind = draw(st.sampled_from(("square", "shared", "any")))
        xsq.append(a)
        ysq.append({"square": t * t / a, "shared": shared * t * t / a, "any": t}[kind])
    return Arch(range(len(xsq) + 1), xsq, ysq)


@given(arches_of_mixed_cores())
def test_v_sq_equals_the_fold_of_sqrt_sums(arch):
    got, expected = v_sq(arch), v_sq_fold(arch)
    assert got == expected
    assert repr(got) == repr(expected)


def test_is_concave():
    assert is_concave(BEST)
    swapped = Arch(list(reversed(BEST.members)), [F(1), F(4, 25)], [F(1), F(1, 4)])
    assert not is_concave(swapped)
    assert is_concave(Arch(["a", "b"], [F(7)], [F(2)]))
    equal_ratios = Arch(["a", "b", "c"], [F(1), F(1)], [F(1), F(1)])
    assert not is_concave(equal_ratios)


def test_xi_projections():
    table = xi(IDEALS, IDEALS.ids, X, Y, IDEALS.bottom)
    assert list(table) == list(IDEALS.ids)
    assert table["{b1,c1}"] == (F(1), F(1, 4))
    assert table["{b1,b2}"] == (F(29, 25), F(0))
    assert table["{c1,c2}"] == (F(0), F(5, 4))
    assert table["{}"] == (F(0), F(0))
    assert table["{b2,c2}"] == (F(4, 25), F(1))


def test_arch_from_xi():
    arch = arch_from_xi(
        ["{b1,b2}", "{b1,c1}", "{c1,c2}"],
        [(F(29, 25), F(0)), (F(1), F(1, 4)), (F(0), F(5, 4))],
    )
    assert arch == BEST


def test_extreme_arch_quadrant():
    table = xi(IDEALS, IDEALS.ids, X, Y, IDEALS.bottom)

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


@given(st.randoms(use_true_random=False))
def test_extreme_arch_on_integers_over_den_matches_fractions(rng):
    # integer points in a small box, so that duplicates and collinear
    # points (ties of the probe) abound, under two per-axis denominators
    d1, d2 = rng.randint(1, 40), rng.randint(1, 40)
    ints = {f"p{k:02d}": (rng.randint(0, 6), rng.randint(0, 6)) for k in range(rng.randint(0, 24))}
    ints["right"] = (7 + rng.randint(0, 2), 0)
    ints["top"] = (0, 7 + rng.randint(0, 2))
    fracs = {u: (F(i1, d1), F(i2, d2)) for u, (i1, i2) in ints.items()}

    def hull(table, **den):
        def probe(w1, w2, _lo, _hi):
            best = max(sorted(table), key=lambda u: (w1 * table[u][0] + w2 * table[u][1], table[u][1]))
            return best, table[best]

        return extreme_arch(probe, ("right", table["right"]), ("top", table["top"]), **den)

    on_integers = hull(ints, den=(d1, d2))
    assert on_integers == hull(fracs)
    assert v_sq(on_integers) == v_sq(hull(fracs))


def test_polygon_value_grows_when_corners_drop():
    # staircase (4,0) -> (3,2) -> (0,3) against its single-chord subarch
    full = arch_from_xi(["p", "m", "q"], [(F(4), F(0)), (F(3), F(2)), (F(0), F(3))])
    chord = arch_from_xi(["p", "q"], [(F(4), F(0)), (F(0), F(3))])
    assert (v_sq(chord) - v_sq(full)).sign() > 0


# -- the rank-level table against the per-element definition ------------------


def orthogonal_setup(poset, x, y):
    """The engine's arch-search instance for x and y: the metric interval of
    the projected tops, the projected points and the base; None when the
    tops join."""
    p, q = tau(poset, x), tau(poset, y)
    if poset.join(p, q) is not None:
        return None
    a = poset.join(omega(poset, q, p), omega(poset, p, q))
    xh, yh = point_join(poset, x, a), point_join(poset, y, a)
    return metric_interval(poset, tau(poset, xh), tau(poset, yh)), xh, yh, a


def test_xi_table_matches_the_definition():
    rng = random.Random(1414)
    checked = arched = 0
    for host in random_hosts(rng):
        for _ in range(6):
            x = Point(random_ideal_point(rng, host))
            y = Point(random_ideal_point(rng, host))
            table = xi(host, host.ids, x, y, host.bottom)
            assert table == {u: _xi(host, u, x, y, host.bottom) for u in host.ids}
            checked += len(table)
            setup = orthogonal_setup(host, x, y)
            if setup is not None:
                interval, xh, yh, a = setup
                table = xi(host, interval.elements, xh, yh, a)
                assert table == {u: _xi(host, u, xh, yh, a) for u in interval.elements}
                arched += a != host.bottom
    assert checked > 1000 and arched > 5


def test_xi_table_mixed_denominators_collapsing_to_one_meet():
    cube = make_cube()
    x = Point({"100": F(1, 3), "110": F(1, 4), "111": F(5, 12)})
    y = Point({"001": F(1, 7), "011": F(2, 5), "111": F(16, 35)})
    table = xi(cube, cube.ids, x, y, "000")
    assert table == {u: _xi(cube, u, x, y, "000") for u in cube.ids}
    # x's whole support meets 100 (and y's meets 001) in that one atom
    assert table["100"] == (F(1), F(16, 35) ** 2)
    assert table["001"] == (F(5, 12) ** 2, F(1))
    assert table["111"] == (
        F(1) + F(2, 3) ** 2 + F(5, 12) ** 2,
        F(1) + F(6, 7) ** 2 + F(16, 35) ** 2,
    )
    # measured from an atom, the projections onto 110 start one rank up
    assert xi(cube, ["110"], x, Point.vertex("100"), "100") == {"110": (F(2, 3) ** 2, F(0))}


def test_xi_table_rejects_missing_or_low_meets():
    vee = GradedPoset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    with pytest.raises(InvalidStructure, match="meet of 'b' and 'a' does not exist"):
        xi(vee, ["a"], Point.vertex("c"), Point.vertex("b"), "a")
    cube = make_cube()
    with pytest.raises(InvalidStructure, match="not above the base '100'"):
        xi(cube, ["110"], Point.vertex("010"), Point.vertex("100"), "100")


def test_integer_probe_matches_a_fraction_probe_over_the_definition():
    rng = random.Random(1515)
    compared = 0
    for host in random_hosts(rng):
        for _ in range(8):
            x = Point(random_ideal_point(rng, host))
            y = Point(random_ideal_point(rng, host))
            setup = orthogonal_setup(host, x, y)
            if setup is None:
                continue
            interval, xh, yh, a = setup
            table = {u: _xi(host, u, xh, yh, a) for u in sorted(interval.elements)}

            def probe(w1, w2, _lo, _hi):
                best = max(table, key=lambda u: (w1 * table[u][0] + w2 * table[u][1], table[u][1]))
                return best, table[best]

            expected = extreme_arch(
                probe, (interval.p, table[interval.p]), (interval.q, table[interval.q])
            )
            assert _extreme_arch_on_interval(host, interval, xh, yh, a) == expected
            compared += 1
    assert compared > 20


def test_integer_probe_keeps_the_first_of_elements_sharing_an_extreme_point(monkeypatch):
    # a table in which {b2,c2} sits on {b1,c1}'s xi point: the probe keeps
    # the smaller id
    interval, xh, yh, a = orthogonal_setup(IDEALS, X, Y)

    def twinned(poset, members, x, y, base):
        table = xi(poset, members, x, y, base)
        table["{b2,c2}"] = table["{b1,c1}"]
        return table

    monkeypatch.setattr(engine, "xi", twinned)
    assert _extreme_arch_on_interval(IDEALS, interval, xh, yh, a) == BEST


def test_repr_lists_set_members_sorted_whatever_the_hash_seed():
    # median arches have frozenset members, whose own repr follows the
    # hash seed; the arch's repr must not
    code = """
from fractions import Fraction as F
from orthogeo import Pip, geodesic_median
bs, cs = ["b0", "b1", "b2", "b3"], ["c0", "c1", "c2", "c3"]
pip = Pip(bs + cs, [(b, c) for i, b in enumerate(bs) for j, c in enumerate(cs) if i + j >= 3])
x = {b: F(i + 1, 4) for i, b in enumerate(bs)}
y = {c: F(4 - i, 5) for i, c in enumerate(cs)}
print(repr(geodesic_median(pip, x, y).arch))
"""
    outputs = []
    for seed in ("1", "2"):
        proc = run_python(["-c", code], PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == (
        "Arch([frozenset({'b0', 'b1', 'b2', 'b3'}), frozenset({'c0', 'c1', 'c2', 'c3'})])\n"
    )
    assert repr(Arch([frozenset(), frozenset({"b"})], [1], [1])) == (
        "Arch([frozenset(), frozenset({'b'})])"
    )
    assert repr(Arch(["{b1,b2}", "{c1}"], [1], [1])) == "Arch(['{b1,b2}', '{c1}'])"
