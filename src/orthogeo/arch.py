"""Arches: monotone staircases between two elements, and their lengths.

An arch records, step by step, how much squared mass leaves the first
point's side and how much enters the second's.  Its value
v = sqrt( sum_i (sqrt(xsq_i) + sqrt(ysq_i))^2 ) is the length of the
corresponding staircase path; the geodesic realizes the minimum over arches,
attained at the concave ones (block norm ratios strictly increasing).

The masses come from the xi table: xi(u) holds the squared distances, from
the base vertex, of the meet-projections x∧u and y∧u.  Both are read off
ranks.  Over a common denominator D, the support element e of x carries the
integer mass D*x_e, which the projection moves to height
h = rank(e∧u) - rank(base); then xi1(u) = sum over levels j >= 1 of (the
mass at height >= j)^2, divided by D^2, and likewise xi2(u) from y.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EmptyBlock, InvalidStructure
from .points import Point, _chain_masses, _integer_masses, _level_sum
from .points import sq_simplex_distance  # noqa: F401  (bench/tracing.py counts calls at this name)
from .radicals import SqrtSum, sqrt_reduce


class Arch:
    """Members u_0..u_m with exact squared step masses on both sides."""

    __slots__ = ("members", "xsq", "ysq")

    def __init__(self, members, xsq, ysq):
        members = tuple(members)
        xsq = tuple(Fraction(v) for v in xsq)
        ysq = tuple(Fraction(v) for v in ysq)
        if len(members) < 2:
            raise InvalidStructure("an arch needs at least its two ends")
        if len(xsq) != len(members) - 1 or len(ysq) != len(members) - 1:
            raise InvalidStructure("one block per consecutive member pair")
        for i, (a, b) in enumerate(zip(xsq, ysq)):
            if a <= 0 or b <= 0:
                raise EmptyBlock(f"step {i} moves no mass on one side ({a}, {b})")
        self.members = members
        self.xsq = xsq
        self.ysq = ysq

    @property
    def steps(self) -> int:
        return len(self.members) - 1

    def __eq__(self, other):
        return (
            isinstance(other, Arch)
            and self.members == other.members
            and self.xsq == other.xsq
            and self.ysq == other.ysq
        )

    def __hash__(self):
        return hash((self.members, self.xsq, self.ysq))

    def __repr__(self):
        return f"Arch([{', '.join(map(_member_repr, self.members))}])"


def _member_repr(member) -> str:
    """repr of an arch member, listing a vertex set's elements sorted so that
    the text does not depend on the hash seed."""
    if isinstance(member, frozenset) and member:
        return "frozenset({" + ", ".join(map(repr, sorted(member))) + "})"
    return repr(member)


def v_sq(arch: Arch) -> SqrtSum:
    """Exact squared value: sum of (xsq_i + ysq_i) plus 2*sqrt(xsq_i*ysq_i),
    summed as one rational part and one {core: coefficient} dict."""
    rational = 0
    terms = {}
    for a, b in zip(arch.xsq, arch.ysq):
        rational += a + b
        coeff, core = sqrt_reduce(a * b)
        if core == 1:
            rational += 2 * coeff
        else:
            terms[core] = terms.get(core, 0) + 2 * coeff
    return SqrtSum(rational, terms)


def is_concave(arch: Arch) -> bool:
    """Strictly decreasing block ratios ysq/xsq, compared exactly.

    Decreasing ratios are what put the xi staircase in convex position, and
    they make the per-block transition times strictly increase.
    """
    for i in range(arch.steps - 1):
        if arch.ysq[i] * arch.xsq[i + 1] <= arch.ysq[i + 1] * arch.xsq[i]:
            return False
    return True


def xi(poset, members, x: Point, y: Point, base: str) -> dict:
    """The xi table {u: (xi1, xi2)} over members: the squared distances of
    the meet-projections x∧u and y∧u from the base vertex, computed from
    ranks (see the module docstring).  Every meet e∧u of a support element
    must exist and lie above the base."""
    sides = [_chain_masses(poset, pt) for pt in (x, y)]
    rank, ids = poset._rank, poset.ids
    ib = poset._i(base)
    above_base = poset._up[ib]
    rb = rank[ib]
    table = {}
    for u in members:
        iu = poset._i(u)
        pair = []
        for den, masses, _ in sides:
            at_height = [0] * (rank[iu] - rb + 1)
            for i, mass in masses.items():
                k = poset._meet_i(i, iu)
                if k is None:
                    raise InvalidStructure(f"meet of {ids[i]!r} and {u!r} does not exist")
                if not above_base >> k & 1:
                    raise InvalidStructure(
                        f"meet of {ids[i]!r} and {u!r} is not above the base {base!r}"
                    )
                at_height[rank[k] - rb] += mass
            pair.append(Fraction(_level_sum(at_height), den * den))
        table[u] = tuple(pair)
    return table


def _sq_distance_below(poset, x: Point, y: Point, a: str) -> Fraction:
    """Squared distance of x∧a and y∧a, from the ranks of pairwise meets.

    Below a both lie in one modular lattice, where their chains span a
    distributive sublattice whose cube coordinates give the metric.  There
    the inner product of two points is the sum of mass * mass * rank(e∧f)
    over their support pairs (two elements of one chain meet at the lower),
    up to a shift of rank that cancels in the distance, since each point's
    integer masses sum to its denominator.
    """
    rank, ids, meet = poset._rank, poset.ids, poset._meet_i
    ia = poset._i(a)
    sides = []
    for pt in (x, y):
        den, masses = _integer_masses(poset, pt)
        below = {}
        for i, mass in masses.items():
            k = meet(i, ia)
            if k is None:
                raise InvalidStructure(f"meet of {ids[i]!r} and {a!r} does not exist")
            below[k] = below.get(k, 0) + mass
        gram = above = 0
        for k in sorted(below, key=rank.__getitem__, reverse=True):
            gram += below[k] * (2 * above + below[k]) * rank[k]
            above += below[k]
        sides.append((den, below, gram))
    (dx, xs, gxx), (dy, ys, gyy) = sides
    gxy = 0
    for i, m in xs.items():
        for j, n in ys.items():
            k = meet(i, j)
            if k is None:
                raise InvalidStructure(f"meet of {ids[i]!r} and {ids[j]!r} does not exist")
            gxy += m * n * rank[k]
    return Fraction(gxx * dy * dy + gyy * dx * dx - 2 * gxy * dx * dy, (dx * dy) ** 2)


def arch_from_xi(members, xis, den=(1, 1)) -> Arch:
    """Arch whose blocks are the xi differences along the member sequence,
    the xi pairs given as numerators over the per-axis denominators den."""
    d1, d2 = den
    xsq = []
    ysq = []
    for (x0, y0), (x1, y1) in zip(xis, xis[1:]):
        xsq.append(Fraction(x0 - x1, d1))
        ysq.append(Fraction(y1 - y0, d2))
    return Arch(members, xsq, ysq)


def extreme_arch(probe, end_x, end_y, den=(1, 1)) -> Arch:
    """Arch through the extreme points of the achievable xi region.

    The points are xi pairs given as numerators over the per-axis
    denominators den = (d1, d2): integers for an exact hull on integers,
    or Fractions with the default (1, 1).  Scaling an axis by a positive
    factor keeps the hull and its order, so only the arch's blocks are
    divided by den, once.

    probe(w1, w2, lo, hi) must return (member, point) maximizing the
    positive functional w1*p1 + w2*p2 over the points as given, resolving
    ties toward the larger p2 and then the lexicographically smallest
    member.  end_x and end_y are the (member, point) pairs of the two ends;
    one linear probe is spent per discovered chord, as in a planar
    quickhull.  lo and hi are the (member, point) pairs of the chord's
    ends.  (w1, w2) is the chord's normal, so when the ends maximize (1, 0)
    and (0, 1), lo maximizes a functional whose direction lies between
    (1, 0) and (w1, w2), and hi one between (w1, w2) and (0, 1); a probe may
    use that to settle part of its answer.  With d1 = d2 the normal has the
    direction it has on the xi values themselves.
    """
    hull = [end_x, *_above_chord(probe, end_x, end_y), end_y]
    return arch_from_xi([m for m, _ in hull], [pt for _, pt in hull], den)


def _above_chord(probe, lo, hi) -> list:
    """The extreme points strictly above the chord from lo to hi, in order.
    A module-level function rather than a nested one, so that no reference
    cycle keeps the probe, and what it holds, alive after the search."""
    (_, a), (_, b) = lo, hi
    w1 = b[1] - a[1]
    w2 = a[0] - b[0]
    if w1 < 0 or w2 < 0:
        raise InvalidStructure("extreme points out of order")
    member, pt = probe(w1, w2, lo, hi)
    if w1 * pt[0] + w2 * pt[1] > w1 * a[0] + w2 * a[1]:
        found = (member, pt)
        return _above_chord(probe, lo, found) + [found] + _above_chord(probe, found, hi)
    return []
