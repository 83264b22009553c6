"""Coordinate frames: distributive sublattices of modular hosts, read off
the meet tables of the chains that generate them.

Two points plus an arch between their tops span a pair of sublattices, B
on [0, p] and C on [0, q]; the join-irreducibles of the two are the cube
coordinates the geodesic engine works in, and build_frame makes every
frame.  Each side is generated by two maximal chains a_0 < ... < a_r and
b_0 < ... < b_r of one interval of a modular semilattice, which is a
modular lattice, and its vertices come from the meet table
m[i][j] = a_i ∧ b_j:

- the table is meet-closed: m[i][j] ∧ m[k][l] = m[min(i,k)][min(j,l)];
- two chains of a modular lattice generate a distributive sublattice
  (Birkhoff, Lattice Theory, 3rd ed., 1967), so the joins of table entries
  are meet-closed as well; they hold both chains (a_i = m[i][r],
  b_j = m[r][j]), so every member of the sublattice is such a join;
- an entry below x = m[i][j] is m[k][l] ∧ x = m[min(k,i)][min(l,j)], so
  every member strictly below x lies below m[i-1][j] ∨ m[i][j-1]; x is
  join-irreducible exactly when it is neither a_0 nor that join, and every
  join-irreducible shows up so at its first cell.

That is r² meets and at most r² joins per side.  The theorem's
preconditions are checked instead of its output, always: the host is a
modular semilattice, each pair is two maximal chains with common ends,
each side has r vertices (a distributive lattice of length r has r
join-irreducibles), and every chain element is the frame element of its
own shadow.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    InvalidPoint,
    InvalidStructure,
    NotModular,
    NotModularSemilattice,
    SupportOutsideFrame,
)
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
    classify,
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


def _peel(poset, chain, tops):
    """Meet chain into tops[-2], tops[-3], ..., tops[0] in turn."""
    for u in reversed(tops[:-1]):
        chain = _meet_chain(poset, u, chain)
    return chain


def _cover_steps(poset, chain):
    """Host indices of a chain whose every step is a host cover."""
    idx = [poset._i(e) for e in chain]
    up, rank = poset._up, poset._rank
    for i, j in zip(idx, idx[1:]):
        if not (up[i] >> j & 1 and rank[j] == rank[i] + 1):
            raise InvalidStructure(
                f"generating chain steps from {poset.ids[i]!r} to {poset.ids[j]!r}, not a host cover"
            )
    return idx


def _side_vertices(poset, a, b):
    """Mask of the join-irreducibles of the sublattice that two maximal
    chains with common ends generate: the meets m[i][j] = a_i ∧ b_j that
    are neither a_0 nor m[i-1][j] ∨ m[i][j-1], row by row."""
    ia, ib = _cover_steps(poset, a), _cover_steps(poset, b)
    if not (ia and ib) or (ia[0], ia[-1]) != (ib[0], ib[-1]):
        raise InvalidStructure(f"generating chains {list(a)} and {list(b)} do not share their ends")
    meet, join = poset._meet_i, poset._join_i
    out = 0
    prev = [ia[0]] * len(ib)
    for x in ia[1:]:
        row = [ia[0]]
        for j in range(1, len(ib)):
            m = meet(x, ib[j])
            # both neighbours lie below m, so their join is m when either is
            if m != prev[j] and m != row[-1] and join(prev[j], row[-1]) != m:
                out |= 1 << m
            row.append(m)
        prev = row
    if out.bit_count() != len(ia) - 1:
        raise InvalidStructure(
            f"sublattice below {a[-1]!r} has {out.bit_count()} vertices for length {len(ia) - 1}"
        )
    return out


class Frame:
    """Cube coordinates for the complex spanned by two sublattices.

    Each side is given by the two maximal chains that generate it, one pair
    for B and one for C; its vertices are read off their meet table.  The
    vertices are the join-irreducibles of the two sides; a host element of
    the spanned complex corresponds to the set of vertices below it, and a
    point's coordinate at a vertex is the mass of its support above that
    vertex.
    """

    def __init__(self, poset: GradedPoset, b_chains, c_chains, base: str):
        if not classify(poset, "modular_semilattice"):
            raise NotModularSemilattice("host is not a modular semilattice")
        self.poset = poset
        self.base = base
        vb = _side_vertices(poset, *b_chains)
        # a P1 frame hands both sides one pair, once in each order
        same = {*map(tuple, b_chains)} == {*map(tuple, c_chains)}
        vc = vb if same else _side_vertices(poset, *c_chains)
        self._vertex_mask = vb | vc
        self._vertex_names = poset.names_of(vb | vc)
        self.vertices = tuple(sorted(self._vertex_names))
        ids, down = poset.ids, poset._down
        for k in _bits(poset.mask_of(e for chain in (*b_chains, *c_chains) for e in chain)):
            if self._element(down[k] & self._vertex_mask) != ids[k]:
                raise InvalidStructure(
                    f"generating chain element {ids[k]!r} is not the frame element of its shadow"
                )
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
    """Frame for the pair (p, q) holding the given supports and arch traces:
    B is generated by pi and sigma_m + pi_p on [0, p], C by sigma and
    pi_m + sigma_p on [0, q], where pi_p and sigma_p run from the base
    through the arch traces and pi_m, sigma_m are pi and sigma peeled down
    to the base."""
    pi = extend_to_maximal_chain(poset, supp_x, poset.bottom, p)
    sigma = extend_to_maximal_chain(poset, supp_y, poset.bottom, q)
    p_traces = dedup_chain(poset.meet(u, p) for u in arch_members)
    q_traces = dedup_chain(poset.meet(u, q) for u in arch_members)
    pi_p = extend_to_maximal_chain(poset, p_traces, base, p)
    sigma_p = extend_to_maximal_chain(poset, q_traces, base, q)
    pi_m, sigma_m = _peel(poset, pi, pi_p), _peel(poset, sigma, sigma_p)
    frame = Frame(poset, (pi, sigma_m + pi_p[1:]), (sigma, pi_m + sigma_p[1:]), base)
    for u in arch_members:
        if frame._element(frame._shadow(u)) != u:
            raise InvalidStructure(f"arch member {u!r} fell outside its frame")
    return frame
