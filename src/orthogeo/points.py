"""Points of an orthoscheme complex and piecewise-linear paths through it.

A point is a convex combination of poset elements whose support is a chain.
Distances between two points sharing a simplex depend only on ranks: writing
sx(j) for the total coefficient mass of x at height >= j above the lowest
support element, the squared distance is the sum of (sx(j) - sy(j))^2 over
levels j.  Inside one modular lattice they depend only on the ranks of
pairwise meets (see arch._sq_distance_below).  Everything is computed in
exact rational arithmetic; floats appear only in reported lengths.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from .errors import (
    InvalidPoint,
    InvalidStructure,
    JoinUndefined,
    NotCommonSimplex,
)
from .poset import GradedPoset, Pip, ideal_name


# the most digits CPython converts between int and str by default
_MAX_DIGITS = 4300


def as_fraction(value) -> Fraction:
    """Coerce ints, 'num/den' strings and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidPoint(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # refuse a numerator or denominator past _MAX_DIGITS before Fraction
        # builds it: it could not be printed, and '1e10000000' takes seconds
        num, _, den = value.partition("/")
        mantissa, e, exponent = num.lower().partition("e")
        try:
            shift = abs(int(exponent)) if e else 0
        except ValueError:
            shift = 0  # Fraction refuses the string too
        if max(sum(map(str.isdigit, mantissa)) + shift, sum(map(str.isdigit, den))) > _MAX_DIGITS:
            raise InvalidPoint(f"rational with over {_MAX_DIGITS} digits: {value[:40]!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InvalidPoint(f"not a rational: {value!r}") from None
    if isinstance(value, float):
        if not value.is_integer():  # False for nan and the infinities too
            raise InvalidPoint(
                f"refusing to guess a rational for float {value!r}; pass 'num/den'"
            )
        return Fraction(int(value))
    raise InvalidPoint(f"not a rational: {value!r}")


class Point:
    """Formal convex combination of elements; zero coefficients are dropped."""

    __slots__ = ("_items",)

    def __init__(self, coeffs):
        acc: dict[str, Fraction] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for e, v in items:
            f = as_fraction(v)
            if f < 0:
                raise InvalidPoint(f"negative coefficient {f} at {e!r}")
            if f:
                key = str(e)
                acc[key] = acc[key] + f if key in acc else f
        self._items = tuple(sorted(acc.items()))

    @classmethod
    def vertex(cls, e) -> "Point":
        return cls({str(e): Fraction(1)})

    @property
    def coeffs(self) -> dict:
        return dict(self._items)

    @property
    def support(self) -> tuple:
        return tuple(e for e, _ in self._items)

    def coeff(self, e) -> Fraction:
        for k, v in self._items:
            if k == e:
                return v
        return Fraction(0)

    def total(self) -> Fraction:
        return sum((v for _, v in self._items), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, Point) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        inside = ", ".join(f"{e}: {v}" for e, v in self._items)
        return f"Point({{{inside}}})"


def check_point(poset: GradedPoset, x: Point) -> list:
    """Validate a point against a host; returns its support sorted by
    (rank, id).  The coefficients are summed as integers over their lcm,
    and the chain is tested on the host's up-sets."""
    items = x._items
    den = math.lcm(*(v.denominator for _, v in items))
    if sum(v.numerator * (den // v.denominator) for _, v in items) != den:
        raise InvalidPoint(f"coefficients sum to {x.total()}, not 1")
    index, rank, up = poset.index, poset._rank, poset._up
    keyed = []
    for e, _ in items:
        i = index.get(e)
        if i is None:
            raise InvalidPoint(f"support element {e!r} is not in the poset")
        keyed.append((rank[i], e, i))
    keyed.sort()
    for (_, a, i), (_, b, j) in zip(keyed, keyed[1:]):
        if not up[i] >> j & 1:
            raise InvalidPoint(f"support is not a chain: {a!r} vs {b!r}")
    return [e for _, e, _ in keyed]


def tau(poset: GradedPoset, x: Point) -> str:
    """The top element of the point's support chain."""
    supp = check_point(poset, x)
    return supp[-1]


def convex_combo(t: Fraction, x: Point, y: Point) -> Point:
    t = as_fraction(t)
    acc: dict[str, Fraction] = {}
    for e, v in x._items:
        acc[e] = acc.get(e, Fraction(0)) + (1 - t) * v
    for e, v in y._items:
        acc[e] = acc.get(e, Fraction(0)) + t * v
    return Point(acc)


def _chain_support_union(poset: GradedPoset, x: Point, y: Point) -> list:
    supp = sorted(
        set(x.support) | set(y.support),
        key=lambda e: (poset.rank_of(e), e),
    )
    for a, b in zip(supp, supp[1:]):
        if not poset.leq(a, b):
            raise NotCommonSimplex(
                f"supports do not lie on one chain: {a!r} vs {b!r}"
            )
    return supp


def sq_simplex_distance(poset: GradedPoset, x: Point, y: Point) -> Fraction:
    """Exact squared distance between two points of a common simplex."""
    supp = _chain_support_union(poset, x, y)
    if not supp:
        return Fraction(0)
    base = poset.rank_of(supp[0])
    total = Fraction(0)
    cum = Fraction(0)
    prev_h = None
    for e in reversed(supp):
        h = poset.rank_of(e) - base
        if prev_h is not None and prev_h > h:
            total += (prev_h - h) * cum * cum
        cum += x.coeff(e) - y.coeff(e)
        prev_h = h
    # the lowest support element sits at height 0, so all levels are covered
    return total


def point_meet(poset, x: Point, a: str) -> Point:
    """Coefficientwise meet of a point with an element: e -> e∧a."""
    check_point(poset, x)
    acc: dict[str, Fraction] = {}
    for e, v in x._items:
        m = poset.meet(e, a)
        if m is None:
            raise InvalidStructure(f"meet of {e!r} and {a!r} does not exist")
        acc[m] = acc.get(m, Fraction(0)) + v
    return Point(acc)


def point_join(poset, x: Point, a: str) -> Point:
    """Coefficientwise join of a point with an element: e -> e∨a, raising
    JoinUndefined when some join is missing."""
    check_point(poset, x)
    return _point_join(poset, x, a)


def _point_join(poset, x: Point, a: str) -> Point:
    """point_join on a point already checked against the host."""
    acc: dict[str, Fraction] = {}
    for e, v in x._items:
        m = poset.join(e, a)
        if m is None:
            raise JoinUndefined(f"join of {e!r} and {a!r} does not exist")
        acc[m] = acc.get(m, Fraction(0)) + v
    return Point(acc)


class _Breakpoints:
    """Breakpoints (time, point) at times strictly increasing from 0 to 1.

    point_at finds the two breakpoints around a time and hands the fraction
    of the way between them to the subclass's _between.
    """

    def __init__(self, breakpoints):
        bps = tuple(breakpoints)
        if len(bps) < 2:
            raise InvalidStructure("a path needs at least two breakpoints")
        if bps[0][0] != 0 or bps[-1][0] != 1:
            raise InvalidStructure("path must be parametrized over [0, 1]")
        for (t0, _), (t1, _) in zip(bps, bps[1:]):
            if not t0 < t1:
                raise InvalidStructure("breakpoint times must strictly increase")
        self.breakpoints = bps

    def point_at(self, t):
        t = as_fraction(t)
        if t < 0 or t > 1:
            raise InvalidStructure(f"time {t} outside [0, 1]")
        bps = self.breakpoints
        hi = bisect_right(bps, t, 1, len(bps) - 1, key=lambda bp: bp[0])
        t0, p0 = bps[hi - 1]
        t1, p1 = bps[hi]
        return self._between((t - t0) / (t1 - t0), p0, p1)


class PolyPath(_Breakpoints):
    """A piecewise-linear path given by (time, point) breakpoints.

    Times are strictly increasing rationals from 0 to 1 and consecutive
    breakpoints must share a simplex, so linear interpolation of coefficients
    between them is geodesic within one cell.
    """

    def __init__(self, breakpoints):
        super().__init__((as_fraction(t), p) for t, p in breakpoints)

    @property
    def start(self) -> Point:
        return self.breakpoints[0][1]

    @property
    def end(self) -> Point:
        return self.breakpoints[-1][1]

    def validate(self, poset: GradedPoset) -> "PolyPath":
        for _, p in self.breakpoints:
            check_point(poset, p)
        for (_, p), (_, q) in zip(self.breakpoints, self.breakpoints[1:]):
            _chain_support_union(poset, p, q)
        return self

    def _between(self, s, p0: Point, p1: Point) -> Point:
        return convex_combo(s, p0, p1)

    def length(self, poset: GradedPoset) -> float:
        segs = [
            math.sqrt(float(sq_simplex_distance(poset, p, q)))
            for (_, p), (_, q) in zip(self.breakpoints, self.breakpoints[1:])
        ]
        return math.fsum(segs)


# -- vertex (cube) coordinates over a pip ----------------------------------


def unit_coords(known, coords: dict, what: str) -> dict:
    """Coordinates in [0, 1] on known vertices (a container of names, such
    as a pip's index), zeros dropped; what names a vertex in the errors."""
    clean = {}
    for v, val in coords.items():
        f = as_fraction(val)
        if v not in known:
            raise InvalidPoint(f"unknown {what} {v!r}")
        if not 0 <= (n := f.numerator) <= f.denominator:
            raise InvalidPoint(f"coordinate {f} at {v!r} outside [0, 1]")
        if n:
            clean[v] = f
    return clean


def check_b_point(pip: Pip, coords: dict) -> dict:
    """Validate vertex coordinates of a point in the cube complex of a pip.

    Coordinates live in [0, 1], respect the vertex order downward (smaller
    vertices carry at least the mass of larger ones) and every level set
    must be a stable ideal.  The level sets are checked in one descending
    walk (see _walk_levels), linear in the support.
    """
    clean = unit_coords(pip.index, coords, "vertex")
    _walk_levels(pip, clean)
    return clean


def _walk_levels(pip: Pip, clean: dict) -> tuple:
    """Check every threshold level of clean coordinates in one sort and one
    descending walk; returns the masks (support, union of the members'
    down-sets, union of their neighbourhoods) of the lowest level.

    The sort runs on floats and is checked on cross products; floats tied on
    values out of order make it sort the Fractions.  The walk keeps the three
    masks of the level read so far.  A level is an ideal exactly when it holds
    every member's down-set, and stable exactly when no member is a neighbour
    of a member.  A failed ideal is reported first, by the first rising pair;
    then the first unstable level, largest value first, by its sorted vertices.
    """
    index, down, adj = pip.index, pip._down, pip._adj
    rows = [(*f.as_integer_ratio(), v) for v, f in clean.items()]
    rows.sort(key=lambda r: r[0] / r[1], reverse=True)
    if any(n0 * d1 < n1 * d0 for (n0, d0, _), (n1, d1, _) in zip(rows, rows[1:])):
        rows.sort(key=lambda r: clean[r[2]], reverse=True)
    mask = below = nbrs = 0
    unstable = None
    for i, (n, d, v) in enumerate(rows):
        k = index[v]
        mask |= 1 << k
        below |= down[k]
        nbrs |= adj[k]
        if i + 1 < len(rows) and rows[i + 1][:2] == (n, d):
            continue  # the level is not closed yet
        if below & ~mask:
            # a level set is no ideal exactly when some u < v has f(u) < f(v): name the first
            u, v = min(
                (u, v) for v in clean for u in pip.ids if pip.leq(u, v) and clean.get(u, 0) < clean[v]
            )
            fu, fv = clean.get(u, 0), clean[v]
            raise InvalidPoint(
                f"coordinates must not increase upward: {u!r} carries {fu} < {fv} at {v!r}"
            )
        if unstable is None and nbrs & mask:
            unstable = sorted(r[2] for r in rows[: i + 1])
    if unstable is not None:
        raise InvalidPoint(f"level set {unstable} is not stable")
    return mask, below, nbrs


def level_decomposition(coords: dict) -> list:
    """Threshold sets of a coordinate vector, largest value first.

    Returns (value, vertices-with-coordinate->=-value) pairs for each distinct
    positive value, from one sort and one descending walk.
    """
    items = sorted(
        (kv for kv in coords.items() if kv[1] > 0), key=lambda kv: kv[1], reverse=True
    )
    out = []
    seen: set = set()
    for i, (k, v) in enumerate(items):
        seen.add(k)
        if i + 1 == len(items) or items[i + 1][1] != v:
            out.append((v, frozenset(seen)))
    return out


def scale_coords(coords: dict) -> tuple:
    """Fraction coordinates as (den, {vertex: integer numerator}) over den,
    the lcm of their reduced denominators."""
    den = math.lcm(*(f.denominator for f in coords.values()))
    return den, {v: f.numerator * (den // f.denominator) for v, f in coords.items()}


def point_from_levels(levels, den, element_of, zero) -> Point:
    """Chain-form point from threshold sets of integer levels over den,
    largest first (as level_decomposition gives them): each set's element
    carries the gap down to the next level, zero the rest of den."""
    acc: dict[str, int] = {}
    top = levels[0][0] if levels else 0
    for i, (val, members) in enumerate(levels):
        below = levels[i + 1][0] if i + 1 < len(levels) else 0
        e = element_of(members)
        acc[e] = acc.get(e, 0) + (val - below)
    if top > den:
        raise InvalidPoint("coordinates exceed total mass 1")
    if den - top:
        acc[zero] = acc.get(zero, 0) + (den - top)
    return Point({e: Fraction(n, den) for e, n in acc.items()})


def b_coordinates(ideal_poset: GradedPoset, x: Point) -> dict:
    """Vertex coordinates of a chain-form point over a stable-ideal poset.

    The host must carry `ideal_sets` (as produced by stable_ideals); the
    coordinate of a vertex is the total mass of support ideals containing it.
    """
    sets = getattr(ideal_poset, "ideal_sets", None)
    if sets is None:
        raise InvalidStructure("host does not index its elements by vertex sets")
    check_point(ideal_poset, x)
    out: dict[str, Fraction] = {}
    for e, v in x._items:
        for vertex in sets[e]:
            out[vertex] = out.get(vertex, Fraction(0)) + v
    return dict(sorted(out.items()))


def point_from_b(pip: Pip, coords: dict) -> Point:
    """Chain-form point (over ideal names) from vertex coordinates."""
    den, nums = scale_coords(check_b_point(pip, coords))
    return point_from_levels(level_decomposition(nums), den, ideal_name, ideal_name(frozenset()))


def _sq_diff(c0: dict, c1: dict, keys) -> Fraction:
    """Squared distance of two coordinate maps over keys (a missing key reads 0)."""
    return sum(((c0.get(v, 0) - c1.get(v, 0)) ** 2 for v in keys), Fraction(0))


def lerp_coords(s, c0: dict, c1: dict) -> dict:
    """Coordinates the fraction s of the way from c0 to c1, vertices sorted,
    zeros dropped."""
    out = {}
    for v in sorted(c0.keys() | c1.keys()):
        val = (1 - s) * c0.get(v, Fraction(0)) + s * c1.get(v, Fraction(0))
        if val:
            out[v] = val
    return out


class BPolyPath(_Breakpoints):
    """Piecewise-linear path in vertex coordinates over a pip.

    Between consecutive breakpoints the coordinates interpolate linearly;
    that stays inside the complex as long as both endpoints are valid and
    their supports union to a stable ideal, which is what validate checks.
    Each breakpoint's coordinates, and each point_at answer, list their
    vertices sorted, whatever the order they came in.
    """

    def __init__(self, pip: Pip, breakpoints):
        self.pip = pip
        super().__init__(
            (
                as_fraction(t),
                {k: f for k, v in sorted(coords.items()) if (f := as_fraction(v))},
            )
            for t, coords in breakpoints
        )

    def validate(self) -> "BPolyPath":
        """Check every breakpoint as check_b_point does, then that each
        consecutive pair's supports union to a stable ideal, from the masks
        of the breakpoints' own level walks."""
        pip = self.pip
        walks = [_walk_levels(pip, unit_coords(pip.index, c, "vertex")) for _, c in self.breakpoints]
        for (m0, below0, nbrs0), (m1, below1, nbrs1) in zip(walks, walks[1:]):
            union = m0 | m1
            if (below0 | below1) & ~union or (nbrs0 | nbrs1) & union:
                raise NotCommonSimplex(
                    "consecutive breakpoints do not share a cube"
                )
        return self

    _between = staticmethod(lerp_coords)

    def length(self) -> float:
        segs = [
            math.sqrt(float(_sq_diff(c0, c1, c0.keys() | c1.keys())))
            for (_, c0), (_, c1) in zip(self.breakpoints, self.breakpoints[1:])
        ]
        return math.fsum(segs)
