"""Geodesics and exact distances in orthoscheme complexes.

The dispatcher mirrors how the distance decomposes:

P0  both points lie on one chain, so a single simplex holds the segment;
P1  the support tops have a join, so everything happens in a modular
    lattice, where the geodesic is the straight segment in the cube
    coordinates of a distributive sublattice through both supports; its
    length needs only the ranks of pairwise meets, and the frame of that
    sublattice is built for a path only;
P2  the support tops are orthogonal (meet at the bottom and have no
    joinable parts), so the geodesic follows a staircase of stable making
    an extreme arch, with per-block hinge coordinates;
P4  the general position: split off the largest joinable part a, run the
    orthogonal case above it and the straight case below it (its length
    again from ranks of meets), and take the constant-speed product,
    realized in one coordinate frame (linear on vertices below a, hinged on
    the rest).

Both engines assemble a hinged path the same way.  Each arch member is read
as a set of cube coordinates: on pip hosts the member is already a vertex
set, on poset hosts it is its frame shadow, the frame vertices below it.
One block rule, read off the members' differences, turns the arch into
breakpoints, one coordinate map per hinge time.  The median engine keeps
these in vertex coordinates; the poset engine inserts the times where two
coordinates cross and maps each breakpoint to chain form through its frame.

Breakpoint data is exact rational throughout; the irrational block ratios
get a deterministic rational snapshot fine enough to keep every ordering
strict, which preserves endpoints exactly and perturbs the path far below
reporting precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .arch import Arch, _sq_distance_below, _sq_from_base, extreme_arch, is_concave, v_sq, xi
from .errors import (
    InvalidStructure,
    NotModularSemilattice,
    SupportMismatch,
)
from .flow import Separation, solve_msip
from .frames import build_frame
from .points import (
    BPolyPath,
    Point,
    PolyPath,
    _point_join,
    _sq_diff,
    check_b_point,
    check_point,
    scale_coords,
    sq_simplex_distance,
)
from .poset import (
    GradedPoset,
    Pip,
    _bits,
    classify,
    metric_interval,
    omega,
)
from .radicals import SqrtSum, frac_sqrt

_F0 = Fraction(0)
_F1 = Fraction(1)


class Geodesic:
    """A computed geodesic: exact squared length, its float value, the case
    label, the optimal arch when one drives the path, and the path itself in
    chain form (poset hosts) or vertex-coordinate form (pip hosts)."""

    __slots__ = ("length", "sq_length", "case", "arch", "path", "bpath")

    def __init__(
        self,
        length: float,
        sq_length: SqrtSum,
        case: str,
        arch: Arch | None = None,
        path: PolyPath | None = None,
        bpath: BPolyPath | None = None,
    ):
        self.length = length
        self.sq_length = sq_length
        self.case = case
        self.arch = arch
        self.path = path
        self.bpath = bpath


def _result(sq_length: SqrtSum, case: str, arch: Arch | None = None) -> Geodesic:
    """A geodesic without its path, its float length read off sq_length."""
    length = math.sqrt(max(0.0, float(sq_length)))
    return Geodesic(length=length, sq_length=sq_length, case=case, arch=arch)


# -- path assembly, shared by both engines -----------------------------------


def _hinge_schedule(xsq, ysq):
    """Rational per-block decay ratios p/q, as reduced pairs (p, q).

    The true ratio sqrt(ysq_i / xsq_i) can be irrational; its floor at a
    fixed number of digits is refined until the snapshot preserves the
    strictly decreasing order that concavity guarantees for the exact values.
    Transition times q/(p + q) = 1/(1 + p/q) then strictly increase.
    """
    digits = 40
    while True:
        pqs = [frac_sqrt(b / a, digits).as_integer_ratio() for a, b in zip(xsq, ysq)]
        if all(p > 0 for p, _ in pqs) and all(
            p0 * q1 > p1 * q0 for (p0, q0), (p1, q1) in zip(pqs, pqs[1:])
        ):
            return pqs
        digits *= 2


def _split_blocks(arch, sets, bside, cside, xb, yb):
    """Blocks {v: (a, b, j)} of x's masses a/b on the first side and y's on
    the second: step j from sets[j-1] to sets[j] (arch members as coordinate
    sets) drops v from the first side or adds it to the second.  The sets
    must shrink strictly on the first side and grow strictly on the second,
    and each block's squared masses, summed on integers, must match the arch."""
    step_of = {}
    bs, cs = [m & bside for m in sets], [m & cside for m in sets]
    for j, (b0, b1, c0, c1) in enumerate(zip(bs, bs[1:], cs, cs[1:]), 1):
        if not b0 > b1:
            raise InvalidStructure("falling traces are not nested")
        if not c0 < c1:
            raise InvalidStructure("rising traces are not nested")
        step_of |= dict.fromkeys((b0 - b1) | (c1 - c0), j)
    if not (cside.isdisjoint(xb) and bside.isdisjoint(yb)):
        raise InvalidStructure("point mass off its side")
    out = []
    for side, point, members, expected_sq in (("falling", xb, bside, arch.xsq), ("rising", yb, cside, arch.ysq)):
        blocks, acc = {}, [(0, 1)] * len(expected_sq)
        for v, mass in point.items():
            if v in members:
                if (j := step_of.get(v)) is None:
                    raise SupportMismatch(f"vertex {v!r} outside the arch")
                a, b = mass.as_integer_ratio()
                blocks[v] = (a, b, j)
                n, d = acc[j - 1]
                acc[j - 1] = n * b * b + a * a * d, d * b * b
        for (n, d), e in zip(acc, expected_sq):
            if n * e.denominator != e.numerator * d:
                raise SupportMismatch(f"{side} block masses disagree with the arch")
        out.append(blocks)
    return out


def _hinge_breakpoints(arch, falling, rising, xb, yb):
    """Breakpoints (t, coordinates) of the hinged product path of a concave
    arch, one coordinate map per hinge time.

    falling and rising are the blocks of _split_blocks.  x's mass on the
    first side falls block by block, y's on the second rises: block j's
    coordinates fall to zero at time 1/(1+rho_j) resp. rise from zero there,
    each affinely.  Mass on neither side is interpolated straight, so every
    coordinate is affine between consecutive hinge times.  Block i's time
    is q_i/(p_i+q_i), and the ends are those of ratios 1/0 and 0/1.  There a
    live block's factor is (p_i q_j - p_j q_i) / (q_j (p_i+q_i)) falling and
    (p_j q_i - p_i q_j) / (p_j (p_i+q_i)) rising: one Fraction a coordinate.
    """
    linear = sorted((xb.keys() | yb.keys()) - falling.keys() - rising.keys())
    pqs = _hinge_schedule(arch.xsq, arch.ysq)
    straight = [(v, *xb.get(v, _F0).as_integer_ratio(), *yb.get(v, _F0).as_integer_ratio()) for v in linear]
    bps = []
    for i, (p, q) in enumerate(((1, 0), *pqs, (0, 1))):
        s = p + q
        factor = {
            j: (p * qj - pj * q, qj * s) if j > i else (pj * q - p * qj, pj * s)
            for j, (pj, qj) in enumerate(pqs, 1)
        }
        out = {}
        for side, live in ((falling, range(i + 1, len(pqs) + 1)), (rising, range(1, i))):
            for v, (a, b, j) in side.items():
                if j in live:
                    n, d = factor[j]
                    out[v] = Fraction(a * n, b * d)
        for v, a, b, c, d in straight:
            if n := p * a * d + q * c * b:
                out[v] = Fraction(n, s * b * d)
        bps.append((Fraction(q, s), out))
    return bps


def _refine_crossings(bps):
    """Insert the breakpoints where two coordinates cross inside a leg.

    Each breakpoint is (t, den, nums), its coordinates integer numerators
    over den.  Every coordinate is affine along a leg, so the crossing times
    and the coordinates there follow from the leg's two ends, compared over
    den0 * den1; chain-form supports can only change at these times.  Each
    inserted breakpoint is reduced to lowest terms.
    """
    out = []
    for (s0, den0, a), (s1, den1, b) in zip(bps, bps[1:]):
        keys = sorted(a.keys() | b.keys())
        ends = [(a.get(v, 0) * den1, b.get(v, 0) * den0) for v in keys]
        cuts = set()
        for (u0, u1), (v0, v1) in combinations(ends, 2):
            e0, e1 = u0 - v0, u1 - v1
            if (e0 > 0 > e1) or (e0 < 0 < e1):
                cuts.add(Fraction(e0, e0 - e1))
        out.append((s0, den0, a))
        for r in sorted(cuts):
            p, q = r.numerator, r.denominator
            nums = {v: n for v, (m0, m1) in zip(keys, ends) if (n := (q - p) * m0 + p * m1)}
            den = q * den0 * den1
            g = math.gcd(den, *nums.values())
            out.append((s0 + (s1 - s0) * r, den // g, {v: n // g for v, n in nums.items()}))
    out.append(bps[-1])
    return out


def _dedup_breakpoints(bps):
    """Merge consecutive equal breakpoints, always keeping the endpoints."""
    out = [bps[0]]
    for t, p in bps[1:]:
        if p == out[-1][1] and t != 1:
            continue
        out.append((t, p))
    return out


def _chain_path(poset, frame, bps, ends) -> PolyPath:
    """Chain form of frame-coordinate breakpoints: each scaled once to
    integer numerators over one denominator, crossings refined, each
    breakpoint mapped through the frame, and checked to run between the
    ends."""
    scaled = [(t, *scale_coords(c)) for t, c in bps]
    bps = [(t, frame._point_from_nums(den, nums)) for t, den, nums in _refine_crossings(scaled)]
    path = PolyPath(_dedup_breakpoints(bps)).validate(poset)
    if (path.start, path.end) != ends:
        raise InvalidStructure("path ends moved off the points")
    return path


def _frame_breakpoints(frame, arch, xb, yb):
    """Hinge breakpoints of an arch in frame coordinates, each member read as
    its frame shadow, the set of frame vertices below it."""
    sets = [frame.ideal_of(u) for u in arch.members]
    falling, rising = _split_blocks(arch, sets, frame.side_b, frame.side_c, xb, yb)
    return _hinge_breakpoints(arch, falling, rising, xb, yb)


# -- straight cases ----------------------------------------------------------


def _one_chain(poset: GradedPoset, sx, sy) -> bool:
    """Whether two support chains lie on one chain: their union sorted by
    rank, each consecutive pair tested on the up-sets (two distinct
    elements of one rank are never comparable)."""
    index, rank, up = poset.index, poset._rank, poset._up
    merged = sorted({index[e] for e in (*sx, *sy)}, key=rank.__getitem__)
    return all(up[i] >> j & 1 for i, j in zip(merged, merged[1:]))


def _straight_core(poset: GradedPoset, x: Point, y: Point, compute_path) -> Geodesic:
    sq = sq_simplex_distance(poset, x, y)
    geo = _result(SqrtSum(sq), "P0")
    if compute_path:
        geo.path = PolyPath([(0, x), (1, y)]).validate(poset)
    return geo


def _p1_core(poset: GradedPoset, x: Point, y: Point, w: str, compute_path) -> Geodesic:
    """Straight segment in the cube coordinates of a distributive sublattice
    of the ideal of w containing both supports.  Its length is read off
    ranks; a path builds the frame and checks that length against it."""
    sq = _sq_distance_below(poset, x, y, w)
    geo = _result(SqrtSum(sq), "P1")
    if compute_path:
        frame = build_frame(poset, w, w, (w,), x.support, y.support, base=w)
        xb = frame.b_coords(x)
        yb = frame.b_coords(y)
        if _sq_diff(xb, yb, xb.keys() | yb.keys()) != sq:
            raise InvalidStructure("frame and ranks disagree on the straight segment")
        geo.path = _chain_path(poset, frame, [(_F0, xb), (_F1, yb)], (x, y))
    return geo


# -- the orthogonal and product cases ----------------------------------------


def _extreme_arch_on_interval(poset, interval, xh, yh, base) -> Arch:
    """Extreme arch over an explicitly enumerated metric interval.

    The two ends of the xi table are checked against a second route, the
    distances of xh and yh from the base along their own chains.  The hull
    runs on integers: each xi column is scaled to integers over the lcm of
    its denominators, and the probe compares those rows."""
    candidates = sorted(interval.elements)
    xis = xi(poset, candidates, xh, yh, base)
    sqx = _sq_from_base(poset, xh, base)
    sqy = _sq_from_base(poset, yh, base)
    if xis[interval.p] != (sqx, _F0) or xis[interval.q] != (_F0, sqy):
        raise InvalidStructure("xi table ends disagree with the simplex distances")
    l1 = math.lcm(*(s1.denominator for s1, _ in xis.values()))
    l2 = math.lcm(*(s2.denominator for _, s2 in xis.values()))
    rows = {
        u: (s1.numerator * (l1 // s1.denominator), s2.numerator * (l2 // s2.denominator))
        for u, (s1, s2) in xis.items()  # in candidates order
    }

    def probe(w1, w2, _lo, _hi):
        best = None
        best_key = None
        for u, (i1, i2) in rows.items():
            key = (w1 * i1 + w2 * i2, i2)
            if best is None or key > best_key:
                best, best_key = u, key
        return best, rows[best]

    p, q = interval.p, interval.q
    return extreme_arch(probe, (p, rows[p]), (q, rows[q]), den=(l1, l2))


def _orthogonal_core(poset, x, y, p, q, a, case, compute_path) -> Geodesic:
    # x and y were checked by geodesic
    xh = _point_join(poset, x, a)
    yh = _point_join(poset, y, a)
    # e -> e∨a keeps the order of the support chain, so p∨a tops x∨a
    ph = poset.join(p, a)
    qh = poset.join(q, a)
    interval = metric_interval(poset, ph, qh)
    if interval.base != a:
        raise InvalidStructure("projected tops do not meet at the joinable part")
    if interval.omega_p != a or interval.omega_q != a:
        raise InvalidStructure("projected tops are not orthogonal over the joinable part")
    arch = _extreme_arch_on_interval(poset, interval, xh, yh, a)
    if not is_concave(arch):
        raise InvalidStructure("extreme arch came out non-concave")

    zsq = _sq_distance_below(poset, x, y, a)
    sq_length = v_sq(arch) + SqrtSum(zsq)
    geo = _result(sq_length, case, arch)
    if not compute_path:
        return geo

    frame = build_frame(poset, ph, qh, arch.members, x.support, y.support, base=a)
    xb = frame.b_coords(x)
    yb = frame.b_coords(y)
    if _sq_diff(xb, yb, frame.isolated) != zsq:
        raise InvalidStructure("frame and sublattice disagree below the base")
    geo.path = _chain_path(poset, frame, _frame_breakpoints(frame, arch, xb, yb), (x, y))
    return geo


# -- public entry points -----------------------------------------------------


def geodesic(poset: GradedPoset, x: Point, y: Point, compute_path: bool = True) -> Geodesic:
    """The unique geodesic between two points of a modular-semilattice host."""
    if not classify(poset, "modular_semilattice"):
        raise NotModularSemilattice("host is not a modular semilattice")
    sx = check_point(poset, x)
    sy = check_point(poset, y)
    if _one_chain(poset, sx, sy):
        return _straight_core(poset, x, y, compute_path)
    p, q = sx[-1], sy[-1]
    w = poset.join(p, q)
    if w is not None:
        return _p1_core(poset, x, y, w, compute_path)
    a = poset.join(omega(poset, q, p), omega(poset, p, q))
    if a is None:
        raise InvalidStructure("joinable parts of the two tops have no join")
    case = "P2" if a == poset.bottom else "P4"
    return _orthogonal_core(poset, x, y, p, q, a, case, compute_path)


# -- median complexes of pips -------------------------------------------------


def _omega_part(pip: Pip, ux, uy):
    """Largest sub-ideal of the support ideal ux with no edge into uy, found
    by discarding everything above an edge foot."""
    mx, my = pip.mask_of(ux), pip.mask_of(uy)
    above_feet = 0
    for u in _bits(mx):
        if pip._adj[u] & my:
            above_feet |= pip._up[u]
    return pip.names_of(mx & ~above_feet)


def geodesic_median(pip: Pip, x: dict, y: dict, compute_path: bool = True) -> Geodesic:
    """The unique geodesic between two points of the cube complex of a pip,
    in vertex coordinates.

    The support ideals either join (straight segment), or split into the
    largest joinable part (interpolated straight) and two orthogonal sides
    (hinged along the extreme arch found by parametric cut probes).
    """
    xb = check_b_point(pip, x)
    yb = check_b_point(pip, y)
    ux = frozenset(xb)
    uy = frozenset(yb)

    # equal points (P0) and joining supports (P1): one straight segment; the
    # support of a valid point is a stable ideal, so P0 always lands here
    union = ux | uy
    if pip.is_stable_mask(pip.mask_of(union)):
        geo = _result(SqrtSum(_sq_diff(xb, yb, union)), "P0" if xb == yb else "P1")
        if compute_path:
            geo.bpath = BPolyPath(pip, [(0, xb), (1, yb)]).validate()
        return geo

    joinable = _omega_part(pip, ux, uy) | _omega_part(pip, uy, ux)
    bx = {v: xb[v] for v in ux - joinable}
    cy = {v: yb[v] for v in uy - joinable}
    if not (bx and cy):
        raise InvalidStructure("support ideals with no crossing edges must join")
    sep = Separation(pip.restrict(sorted(set(bx) | set(cy))), bx, cy)

    # the hull runs on the masses' integer numerators over sep.denominator,
    # the same on both axes, so the chord normal (w1, w2) gives lam as is
    def probe(w1, w2, lo, hi):
        ideal = solve_msip(sep, Fraction(w2, w1 + w2), lo[0], hi[0])[0]
        return ideal, sep.mass_nums(ideal)

    bset, cset = frozenset(bx), frozenset(cy)
    d = sep.denominator
    arch = extreme_arch(
        probe, (bset, sep.mass_nums(bset)), (cset, sep.mass_nums(cset)), den=(d, d)
    )
    falling, rising = _split_blocks(arch, arch.members, bset, cset, xb, yb)
    if not is_concave(arch):
        raise InvalidStructure("extreme arch came out non-concave")

    zs = union - bset - cset
    sq_length = v_sq(arch) + SqrtSum(_sq_diff(xb, yb, zs))
    geo = _result(sq_length, "P4" if zs else "P2", arch)
    if not compute_path:
        return geo

    bps = _dedup_breakpoints(_hinge_breakpoints(arch, falling, rising, xb, yb))
    geo.bpath = BPolyPath(pip, bps).validate()
    if (geo.bpath.breakpoints[0][1], geo.bpath.breakpoints[-1][1]) != (xb, yb):
        raise InvalidStructure("path ends moved off the points")
    return geo
