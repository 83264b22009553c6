"""Distributive sublattices of modular hosts, and coordinate frames.

Two maximal chains of a modular lattice generate a distributive sublattice
(peel the second chain top-down, meet it into the first, and rebuild with
joins).  Two points plus an arch between their tops generate a pair of such
sublattices whose join-irreducibles serve as cube coordinates: that pair is
the frame the geodesic engine works in, and build_frame makes every one.

A sublattice is held as a bitmask over host ids.  Every one built here is
checked, always and with mask operations only, before it is used: closed
under meets and joins, its covers host covers, and distributive by the
join-prime law.  The check is quadratic in member pairs, and the same pass
yields the join-irreducibles that become the frame's vertices.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidPoint, InvalidStructure, NotModular, SupportOutsideFrame
from .points import (
    Point,
    check_point,
    level_decomposition,
    point_from_levels,
    scale_coords,
    unit_coords,
)
from .poset import (
    GradedPoset,
    _bits,
    _incomparable_pairs,
    _join_irreducibles,
    _join_prime_breach,
    dedup_chain,
    extend_to_maximal_chain,
)


def _meet_chain(poset, u, chain):
    """Meets of a maximal chain with a fixed element; in a modular host this
    is again a maximal chain of the interval below u."""
    out = dedup_chain(poset.meet(u, v) for v in chain)
    if any(e is None for e in out):
        raise InvalidStructure("meet missing while peeling chains")
    for a, b in zip(out, out[1:]):
        if poset.rank_of(b) != poset.rank_of(a) + 1:
            raise NotModular(
                f"meet of a chain with {u!r} skips ranks; host is not modular"
            )
    return out


def _rebuild(poset, base, steps):
    """Undo a peel, bottom step first, on a member mask.  Each step (chain,
    u) met chain into the ideal of u; chain[j], its first element not below
    u, is restored by the joins v -> v ∨ chain[j] of the members between
    chain[j-1] and u."""
    up, down = poset._up, poset._down
    out = base
    for chain, u in reversed(steps):
        below_u = down[poset._i(u)]
        idx = [poset._i(e) for e in chain]
        j = next((j for j, e in enumerate(idx) if not below_u >> e & 1), None)
        if not j:
            raise InvalidStructure(f"peeled chain does not leave the ideal of {u!r}")
        lo, pj = idx[j - 1], idx[j]
        joins = 0
        for v in _bits(out & up[lo] & below_u):
            w = poset._join_i(v, pj)
            if w is None:
                raise InvalidStructure("join missing while rebuilding chains")
            joins |= 1 << w
        out |= joins
    return out


def _peel(poset, chain, tops):
    """Meet chain into tops[-2], tops[-3], ..., tops[0] in turn; returns the
    peeled chain and the steps that _rebuild undoes."""
    steps = []
    for u in reversed(tops[:-1]):
        steps.append((chain, u))
        chain = _meet_chain(poset, u, chain)
    return chain, steps


def _db2(poset, pi, sigma):
    """Sublattice generated by two maximal chains with common ends, as a
    member mask: peel pi through sigma from the top until the two agree."""
    steps = []
    while not set(sigma) <= set(pi):
        steps.append((pi, sigma[-2]))
        pi, sigma = _meet_chain(poset, sigma[-2], pi), sigma[:-1]
    return _rebuild(poset, poset.mask_of(pi), steps)


def _check_chains(poset, members, chains):
    """Every generating chain lies in the member mask."""
    for chain in chains:
        missing = poset.mask_of(chain) & ~members
        if missing:
            raise InvalidStructure(
                f"generating chain lost members {sorted(poset.names_of(missing))}"
            )


def _apartment(poset, pi, sigma, pi_p, sigma_p):
    """Pair of sublattices for two ends p, q with meet m: pi/sigma are
    maximal chains from the scope bottom to p resp. q, pi_p/sigma_p maximal
    chains of [m, p] resp. [m, q].  Both sides grow from the sublattice the
    two chains generate below m.  Returns (B, C) as member masks, each
    checked to hold its generating chains."""
    pi_m, b_steps = _peel(poset, pi, pi_p)
    sigma_m, c_steps = _peel(poset, sigma, sigma_p)
    d = _db2(poset, pi_m, sigma_m)
    b, c = _rebuild(poset, d, b_steps), _rebuild(poset, d, c_steps)
    _check_chains(poset, b, [pi, pi_p])
    _check_chains(poset, c, [sigma, sigma_p])
    return b, c


def _sublattice_join_irreducibles(poset, members):
    """Check that a member mask is a distributive sublattice whose covers
    are host covers, and return the mask of its join-irreducibles.

    Quadratic in member pairs, with mask operations only: meets and joins
    of the incomparable pairs stay inside; above each member a, every
    member lies above one at rank r(a)+1; the join-prime law holds on the
    incomparable pairs.
    """
    ids, up, rank, levels = poset.ids, poset._up, poset._rank, poset._levels
    pairs = list(_incomparable_pairs(poset, members))
    for i, j in pairs:
        for op, k in (("meet", poset._meet_i(i, j)), ("join", poset._join_i(i, j))):
            if k is None or not members >> k & 1:
                raise InvalidStructure(
                    f"sublattice not {op}-closed at {ids[i]!r},{ids[j]!r}"
                )
    for a in _bits(members):
        above = up[a] & members & ~(1 << a)
        if above:
            for c in _bits(above & levels[rank[a] + 1]):
                above &= ~up[c]
        if above:
            b = min(_bits(above), key=rank.__getitem__)
            raise InvalidStructure(f"sublattice cover {ids[a]!r} -> {ids[b]!r} skips host ranks")
    jmask = _join_irreducibles(poset, members)
    breach = _join_prime_breach(poset, jmask, pairs)
    if breach is not None:
        i, j = breach
        raise InvalidStructure(f"distributivity fails at {ids[i]!r},{ids[j]!r}")
    return jmask


class Frame:
    """Cube coordinates for the complex spanned by two sublattices.

    Each side, a mask of member ids, must be a distributive sublattice whose
    covers are host covers; both are checked here.  Vertices are the
    join-irreducibles of the two sides; a host element of the spanned complex
    corresponds to the set of vertices below it, and a point's coordinate at
    a vertex is the mass of its support above that vertex.
    """

    def __init__(self, poset: GradedPoset, b_mask: int, c_mask: int, base: str):
        self.poset = poset
        self.base = base
        vb = _sublattice_join_irreducibles(poset, b_mask)
        vc = vb if c_mask == b_mask else _sublattice_join_irreducibles(poset, c_mask)
        self._vertex_mask = vb | vc
        self._vertex_names = poset.names_of(vb | vc)
        self.vertices = tuple(sorted(self._vertex_names))
        isolated = self._shadow(base)
        side_b = vb & ~isolated
        self.isolated = poset.names_of(isolated)
        self.side_b = poset.names_of(side_b)
        self.side_c = poset.names_of(vc & ~isolated)
        overlap = self.side_b & self.side_c
        if overlap:
            raise InvalidStructure(
                f"side vertices shared outside the common base: {sorted(overlap)}"
            )
        # unbounded pairs can only cross the two proper sides; name the
        # first such pair that does not, by sorted ids
        ids = poset.ids
        stray = [
            sorted((ids[i], ids[j]))
            for i, j in _incomparable_pairs(poset, self._vertex_mask)
            if poset._join_i(i, j) is None and (side_b >> i & 1) == (side_b >> j & 1)
        ]
        if stray:
            u, v = min(stray)
            raise InvalidStructure(f"unbounded pair {u!r},{v!r} does not cross the frame sides")

    def _shadow(self, element: str) -> int:
        """Mask of the frame vertices below an element."""
        return self.poset._down[self.poset._i(element)] & self._vertex_mask

    def _element(self, mask: int) -> str:
        """The frame element whose shadow is a vertex mask."""
        if not mask:
            return self.poset.bottom
        poset = self.poset
        bits = _bits(mask)
        k = next(bits)
        for v in bits:
            k = poset._join_i(k, v)
            if k is None:
                raise InvalidPoint(f"vertex set {sorted(poset.names_of(mask))} has no join")
        if poset._down[k] & self._vertex_mask != mask:
            raise InvalidPoint(
                f"vertex set {sorted(poset.names_of(mask))} is not the shadow of any frame element"
            )
        return poset.ids[k]

    def ideal_of(self, element: str) -> frozenset:
        return self.poset.names_of(self._shadow(element))

    def element_of(self, vertex_set) -> str:
        return self._element(self.poset.mask_of(vertex_set))

    def b_coords(self, x: Point) -> dict:
        check_point(self.poset, x)
        for e in x.support:
            # every support element must be expressible from frame vertices
            if self._element(self._shadow(e)) != e:
                raise SupportOutsideFrame(f"{e!r} is outside the frame")
        ids = self.poset.ids
        out: dict[str, Fraction] = {}
        for e, mass in x.coeffs.items():
            for k in _bits(self._shadow(e)):
                out[ids[k]] = out.get(ids[k], Fraction(0)) + mass
        return {v: out[v] for v in sorted(out)}

    def point_from_b(self, coords: dict) -> Point:
        clean = unit_coords(self._vertex_names, coords, "frame vertex")
        return self._point_from_nums(*scale_coords(clean))

    def _point_from_nums(self, den: int, nums: dict) -> Point:
        """Chain-form point from frame coordinates held as integer
        numerators over den."""
        for v, n in nums.items():
            if v not in self._vertex_names:
                raise InvalidPoint(f"unknown frame vertex {v!r}")
            if n < 0 or n > den:
                raise InvalidPoint(f"coordinate {Fraction(n, den)} at {v!r} outside [0, 1]")
        return point_from_levels(level_decomposition(nums), den, self.element_of, self.poset.bottom)


def build_frame(
    poset: GradedPoset,
    p: str,
    q: str,
    arch_members,
    supp_x,
    supp_y,
    base: str,
) -> Frame:
    """Frame for the pair (p, q) holding the given supports and arch traces."""
    pi = extend_to_maximal_chain(poset, supp_x, poset.bottom, p)
    sigma = extend_to_maximal_chain(poset, supp_y, poset.bottom, q)
    p_traces = dedup_chain(poset.meet(u, p) for u in arch_members)
    q_traces = dedup_chain(poset.meet(u, q) for u in arch_members)
    pi_p = extend_to_maximal_chain(poset, p_traces, base, p)
    sigma_p = extend_to_maximal_chain(poset, q_traces, base, q)
    b, c = _apartment(poset, pi, sigma, pi_p, sigma_p)
    frame = Frame(poset, b, c, base)
    for u in arch_members:
        if frame._element(frame._shadow(u)) != u:
            raise InvalidStructure(f"arch member {u!r} fell outside its frame")
    return frame

