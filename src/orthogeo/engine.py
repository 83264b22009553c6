"""Geodesics and exact distances in orthoscheme complexes.

The dispatcher mirrors how the distance decomposes:

P0  both points lie on one chain, so a single simplex holds the segment;
P1  the support tops have a join, so everything happens in a modular
    lattice, where the geodesic is the straight segment in the cube
    coordinates of a distributive sublattice through both supports;
P2  the support tops are orthogonal (meet at the bottom and have no
    joinable parts), so the geodesic follows a staircase of stable making
    an extreme arch, with per-block hinge coordinates;
P4  the general position: split off the largest joinable part a, run the
    orthogonal case above it and the straight case below it, and take the
    constant-speed product, realized in one coordinate frame (linear on
    vertices below a, hinged on the rest).

Breakpoint data is exact rational throughout; the irrational block ratios
get a deterministic rational snapshot fine enough to keep every ordering
strict, which preserves endpoints exactly and perturbs the path far below
reporting precision.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .arch import Arch, extreme_arch, is_concave, v_sq, xi
from .errors import (
    NotCommonSimplex,
    NotConcave,
    NotModular,
    NotModularSemilattice,
    SupportMismatch,
)
from .flow import solve_msip
from .frames import Frame, build_frame
from .points import (
    BPolyPath,
    Point,
    PolyPath,
    as_fraction,
    check_b_point,
    check_point,
    point_join,
    point_meet,
    sq_simplex_distance,
    tau,
)
from .poset import (
    GradedPoset,
    Pip,
    classify,
    metric_interval,
    omega,
)
from .radicals import SqrtSum, frac_sqrt

logger = logging.getLogger("orthogeo")

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass
class Geodesic:
    """A computed geodesic: exact squared length, its float value, the case
    label, the optimal arch when one drives the path, and the path itself in
    chain form (poset hosts) or vertex-coordinate form (pip hosts)."""

    length: float
    sq_length: SqrtSum
    case: str
    arch: Arch | None = None
    path: PolyPath | None = None
    bpath: BPolyPath | None = None


def _result(sq_length: SqrtSum, case: str, arch: Arch | None = None) -> Geodesic:
    """A geodesic without its path, its float length read off sq_length."""
    length = math.sqrt(max(0.0, float(sq_length)))
    return Geodesic(length=length, sq_length=sq_length, case=case, arch=arch)


def _sq_diff(xb, yb, keys):
    """Squared distance of two coordinate maps over keys (a missing key reads 0)."""
    return sum(((xb.get(v, _F0) - yb.get(v, _F0)) ** 2 for v in keys), _F0)


# -- hinge schedule ----------------------------------------------------------


def _hinge_schedule(xsq, ysq):
    """Rational per-block decay ratios and transition times.

    The true ratio sqrt(ysq_i / xsq_i) can be irrational; its floor at a
    fixed number of digits is refined until the snapshot preserves the
    strictly decreasing order that concavity guarantees for the exact values.
    Transition times 1/(1 + ratio) then strictly increase.
    """
    digits = 40
    while True:
        rhos = [frac_sqrt(b / a, digits) for a, b in zip(xsq, ysq)]
        if all(r > 0 for r in rhos) and all(
            rhos[i] > rhos[i + 1] for i in range(len(rhos) - 1)
        ):
            return rhos, [1 / (1 + r) for r in rhos]
        digits *= 2


def _product_coords(falling, rising, linear_x, linear_y, rhos):
    """Coordinate evaluator for the hinged product path.

    falling/rising map a vertex to (mass, 1-based block index); vertices in
    linear_x/linear_y interpolate straight.  Coordinates of block j fall to
    zero at time 1/(1+rho_j) resp. rise from zero there, each affinely, so
    the path is a straight segment between consecutive transition times.
    """
    linear_keys = sorted(set(linear_x) | set(linear_y))

    def coords(t: Fraction) -> dict:
        out = {}
        for v, (mass, j) in falling.items():
            f = 1 - t * (1 + rhos[j - 1])
            if f > 0:
                out[v] = mass * f
        for v, (mass, j) in rising.items():
            g = 1 - (1 - t) * (1 + 1 / rhos[j - 1])
            if g > 0:
                out[v] = mass * g
        for v in linear_keys:
            val = (1 - t) * linear_x.get(v, _F0) + t * linear_y.get(v, _F0)
            if val:
                out[v] = val
        return out

    return coords


def _split_blocks(masses, block_of, expected_sq, side):
    """Attach block indices to vertex masses and check the squared mass of
    every block against the arch's record; any mismatch means the frame and
    the xi probe disagree about the instance."""
    blocks = {}
    acc = [Fraction(0)] * len(expected_sq)
    for v, mass in masses.items():
        j = block_of(v)
        assert 1 <= j <= len(expected_sq), f"vertex {v!r} outside the arch"
        blocks[v] = (mass, j)
        acc[j - 1] += mass * mass
    assert acc == list(expected_sq), f"{side} block masses disagree with the arch"
    return blocks


def _hinge_coords(arch, xb, yb, linear, drop_block, rise_block):
    """Coordinates and hinge times (0 to 1) of the hinged product path of an
    arch: x's mass off linear falls block by block, y's rises, the rest is
    interpolated straight."""

    def part(masses, inside):
        return {v: m for v, m in masses.items() if (v in linear) == inside}

    falling = _split_blocks(part(xb, False), drop_block, arch.xsq, "falling")
    rising = _split_blocks(part(yb, False), rise_block, arch.ysq, "rising")
    rhos, hinge_times = _hinge_schedule(arch.xsq, arch.ysq)
    coords = _product_coords(falling, rising, part(xb, True), part(yb, True), rhos)
    return coords, [_F0, *hinge_times, _F1]


def _refine_crossings(times, coord_fn):
    """Insert the interior times where two coordinates cross inside a leg.

    Between consecutive hinge times every coordinate is affine, so the level
    order of the coordinate vector is constant between crossings; chain-form
    supports can only change at these times.
    """
    out = []
    for s0, s1 in zip(times, times[1:]):
        c0 = coord_fn(s0)
        c1 = coord_fn(s1)
        keys = sorted(set(c0) | set(c1))
        cuts = set()
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                d0 = c0.get(keys[i], _F0) - c0.get(keys[j], _F0)
                d1 = c1.get(keys[i], _F0) - c1.get(keys[j], _F0)
                if (d0 > 0 > d1) or (d0 < 0 < d1):
                    cuts.add(s0 + (s1 - s0) * d0 / (d0 - d1))
        out.append(s0)
        out.extend(sorted(cuts))
    out.append(times[-1])
    return out


def _dedup_breakpoints(bps):
    """Merge consecutive equal breakpoints, always keeping the endpoints."""
    out = [bps[0]]
    for t, p in bps[1:]:
        if p == out[-1][1] and t != 1:
            continue
        out.append((t, p))
    return out


def _chain_path(poset, frame, coord_fn, times) -> PolyPath:
    bps = [(t, frame.point_from_b(coord_fn(t))) for t in times]
    return PolyPath(_dedup_breakpoints(bps)).validate(poset)


# -- straight cases ----------------------------------------------------------


def _straight_core(poset: GradedPoset, x: Point, y: Point, compute_path) -> Geodesic:
    sq = sq_simplex_distance(poset, x, y)
    geo = _result(SqrtSum(sq), "P0")
    if compute_path:
        geo.path = PolyPath([(0, x), (1, y)]).validate(poset)
    return geo


def _p1_core(poset: GradedPoset, x: Point, y: Point, w: str, compute_path) -> Geodesic:
    """Straight segment in the cube coordinates of a distributive sublattice
    of the ideal of w containing both supports."""
    frame = build_frame(poset, w, w, (w,), x.support, y.support, base=w, zero=poset.bottom)
    xb = frame.b_coords(x)
    yb = frame.b_coords(y)
    geo = _result(SqrtSum(_sq_diff(xb, yb, xb.keys() | yb.keys())), "P1")
    if compute_path:
        coords = _product_coords({}, {}, xb, yb, [])
        times = _refine_crossings([_F0, _F1], coords)
        geo.path = _chain_path(poset, frame, coords, times)
        assert geo.path.start == x and geo.path.end == y
    return geo


# -- the orthogonal and product cases ----------------------------------------


def _extreme_arch_on_interval(poset, interval, xh, yh, base) -> Arch:
    """Extreme arch over an explicitly enumerated metric interval."""
    sqx = sq_simplex_distance(poset, xh, Point.vertex(base))
    sqy = sq_simplex_distance(poset, yh, Point.vertex(base))
    candidates = sorted(interval.elements)
    xis = {u: xi(poset, u, xh, yh, base=base) for u in candidates}
    assert xis[interval.p] == (sqx, _F0) and xis[interval.q] == (_F0, sqy)

    def probe(w1, w2):
        best = None
        best_key = None
        tied_at_point = []
        for u in candidates:
            s1, s2 = xis[u]
            key = (w1 * s1 + w2 * s2, s2)
            if best is None or key > best_key:
                best, best_key = u, key
                tied_at_point = [u]
            elif key == best_key and xis[u] == xis[best]:
                tied_at_point.append(u)
        if len(tied_at_point) > 1:
            logger.warning(
                "distinct elements %s share the extreme point %s; keeping %r",
                tied_at_point,
                xis[best],
                best,
            )
        return best, xis[best]

    return extreme_arch(
        probe, (interval.p, xis[interval.p]), (interval.q, xis[interval.q])
    )


def _trace_chain(poset, members, end, rising):
    """Meets of the arch members with one end; checks they move strictly and
    monotonously, which is what makes block membership a prefix property."""
    traces = [poset.meet(u, end) for u in members]
    for t0, t1 in zip(traces, traces[1:]):
        lo, hi = (t0, t1) if rising else (t1, t0)
        assert lo != hi and poset.leq(lo, hi), "arch traces are not nested"
    return traces


def _frame_hinge_path(poset, frame, arch, xb, yb) -> PolyPath:
    """Chain-form path of a concave arch in frame coordinates: hinges on the
    two sides, straight interpolation on the vertices below the base."""
    members = arch.members
    traces_p = _trace_chain(poset, members, members[0], rising=False)
    traces_q = _trace_chain(poset, members, members[-1], rising=True)

    iso = frame.isolated
    assert all(v in frame.side_b for v in xb if v not in iso), "x mass off its side"
    assert all(v in frame.side_c for v in yb if v not in iso), "y mass off its side"

    def drop_block(v):
        return 1 + max(i for i, t in enumerate(traces_p) if poset.leq(v, t))

    def rise_block(v):
        return min(i for i, t in enumerate(traces_q) if poset.leq(v, t))

    coords, times = _hinge_coords(arch, xb, yb, iso, drop_block, rise_block)
    return _chain_path(poset, frame, coords, _refine_crossings(times, coords))


def _orthogonal_core(poset, x, y, a, case, compute_path) -> Geodesic:
    xh = point_join(poset, x, a)
    yh = point_join(poset, y, a)
    ph = tau(poset, xh)
    qh = tau(poset, yh)
    interval = metric_interval(poset, ph, qh)
    assert interval.base == a, "projected tops do not meet at the joinable part"
    assert interval.omega_p == a and interval.omega_q == a, (
        "projected tops are not orthogonal over the joinable part"
    )
    arch = _extreme_arch_on_interval(poset, interval, xh, yh, a)
    assert is_concave(arch), "extreme arch came out non-concave"

    if a == poset.bottom:
        zsq = _F0
    else:
        below = _p1_core(
            poset, point_meet(poset, x, a), point_meet(poset, y, a), a, False
        )
        zsq = below.sq_length.rational
    sq_length = v_sq(arch) + SqrtSum(zsq)
    geo = _result(sq_length, case, arch)
    if not compute_path:
        return geo

    frame = build_frame(
        poset, ph, qh, arch.members, x.support, y.support, base=a, zero=poset.bottom
    )
    xb = frame.b_coords(x)
    yb = frame.b_coords(y)
    assert _sq_diff(xb, yb, frame.isolated) == zsq, (
        "frame and sublattice disagree below the base"
    )
    geo.path = _frame_hinge_path(poset, frame, arch, xb, yb)
    assert geo.path.start == x and geo.path.end == y
    return geo


# -- public entry points -----------------------------------------------------


def geodesic(poset: GradedPoset, x: Point, y: Point, compute_path: bool = True) -> Geodesic:
    """The unique geodesic between two points of a modular-semilattice host."""
    if not classify(poset, "modular_semilattice"):
        raise NotModularSemilattice("host is not a modular semilattice")
    check_point(poset, x)
    check_point(poset, y)
    try:
        return _straight_core(poset, x, y, compute_path)
    except NotCommonSimplex:
        pass
    p = tau(poset, x)
    q = tau(poset, y)
    w = poset.join(p, q)
    if w is not None:
        return _p1_core(poset, x, y, w, compute_path)
    a = poset.join(omega(poset, q, p), omega(poset, p, q))
    assert a is not None, "joinable parts of the two tops have no join"
    case = "P2" if a == poset.bottom else "P4"
    return _orthogonal_core(poset, x, y, a, case, compute_path)


def geodesic_modular_lattice(
    poset: GradedPoset, x: Point, y: Point, compute_path: bool = True
) -> Geodesic:
    """Straight-segment geodesic in a modular lattice host, where every join
    exists, so geodesic takes the P0 or P1 route."""
    if not classify(poset, "modular"):
        raise NotModular("host is not a modular lattice")
    return geodesic(poset, x, y, compute_path)


def owen_path(arch: Arch, x: dict, y: dict, frame: Frame) -> PolyPath:
    """Chain-form geodesic path of a concave arch between two points given in
    frame coordinates, supported on the frame's two sides."""
    if not is_concave(arch):
        raise NotConcave("arch block ratios must strictly decrease")
    xb = {str(v): as_fraction(m) for v, m in x.items() if as_fraction(m)}
    yb = {str(v): as_fraction(m) for v, m in y.items() if as_fraction(m)}
    if not set(xb) <= frame.side_b:
        raise SupportMismatch(f"x mass off the first side: {sorted(set(xb) - frame.side_b)}")
    if not set(yb) <= frame.side_c:
        raise SupportMismatch(f"y mass off the second side: {sorted(set(yb) - frame.side_c)}")
    poset = frame.poset
    sqx = sum((m * m for m in xb.values()), _F0)
    sqy = sum((m * m for m in yb.values()), _F0)
    if sqx != sum(arch.xsq, _F0) or sqy != sum(arch.ysq, _F0):
        raise SupportMismatch("total squared masses disagree with the arch")
    try:
        return _frame_hinge_path(poset, frame, arch, xb, yb)
    except AssertionError as exc:
        raise SupportMismatch(str(exc)) from None


# -- median complexes of pips -------------------------------------------------


def _omega_part(pip: Pip, ux, uy):
    """Largest sub-ideal of the support ideal ux with no edge into uy, found
    by discarding everything above an edge foot."""
    marked = [u for u in ux if any(pip.has_edge(u, w) for w in uy)]
    return frozenset(v for v in ux if not any(pip.leq(u, v) for u in marked))


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
    assert bx and cy, "support ideals with no crossing edges must join"
    sub = pip.restrict(sorted(set(bx) | set(cy)))

    def probe(w1, w2):
        ideal, _ = solve_msip(sub, bx, cy, w2 / (w1 + w2))
        s1 = sum((bx[v] * bx[v] for v in ideal if v in bx), _F0)
        s2 = sum((cy[v] * cy[v] for v in ideal if v in cy), _F0)
        return ideal, (s1, s2)

    sqx_tot = sum((m * m for m in bx.values()), _F0)
    sqy_tot = sum((m * m for m in cy.values()), _F0)
    arch = extreme_arch(
        probe,
        (frozenset(bx), (sqx_tot, _F0)),
        (frozenset(cy), (_F0, sqy_tot)),
    )
    bset, cset = frozenset(bx), frozenset(cy)
    for m0, m1 in zip(arch.members, arch.members[1:]):
        assert (m0 & bset) > (m1 & bset), "falling traces are not nested"
        assert (m0 & cset) < (m1 & cset), "rising traces are not nested"
    assert is_concave(arch), "extreme arch came out non-concave"

    zs = union - bset - cset
    sq_length = v_sq(arch) + SqrtSum(_sq_diff(xb, yb, zs))
    geo = _result(sq_length, "P4" if zs else "P2", arch)
    if not compute_path:
        return geo

    coords, times = _hinge_coords(
        arch, xb, yb, zs,
        lambda v: 1 + max(i for i, m in enumerate(arch.members) if v in m),
        lambda v: min(i for i, m in enumerate(arch.members) if v in m),
    )
    bps = _dedup_breakpoints([(t, coords(t)) for t in times])
    geo.bpath = BPolyPath(pip, bps).validate()
    assert geo.bpath.breakpoints[0][1] == xb and geo.bpath.breakpoints[-1][1] == yb
    return geo
