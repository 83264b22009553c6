"""Distributive sublattices of modular hosts, and coordinate frames.

Two maximal chains of a modular lattice generate a distributive sublattice
(peel the second chain top-down, meet it into the first, and rebuild with
joins).  Two points plus an arch between their tops generate a pair of such
sublattices whose join-irreducibles serve as cube coordinates: that pair is
the frame the geodesic engine works in.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    ChainNotMaximal,
    InvalidPoint,
    InvalidStructure,
    NotModular,
    NotOrthogonal,
    SupportOutsideFrame,
)
from .points import Point, check_point, level_decomposition, point_from_levels, unit_coords
from .poset import (
    GradedPoset,
    classify,
    dedup_chain,
    extend_to_maximal_chain,
    incidence_pip,
    is_maximal_chain,
    omega,
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
    """Undo a peel, bottom step first.  Each step (chain, u) met chain into
    the ideal of u; chain[j], its first element not below u, is restored by
    the joins v -> v ∨ chain[j] of the members between chain[j-1] and u."""
    out = set(base)
    for chain, u in reversed(steps):
        j = next((j for j, e in enumerate(chain) if not poset.leq(e, u)), None)
        assert j is not None and j > 0
        lo, pj = chain[j - 1], chain[j]
        joins = set()
        for v in out:
            if poset.leq(lo, v) and poset.leq(v, u):
                w = poset.join(v, pj)
                if w is None:
                    raise InvalidStructure("join missing while rebuilding chains")
                joins.add(w)
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
    """Sublattice generated by two maximal chains with common ends: peel pi
    through sigma from the top until the two agree."""
    steps = []
    while not set(sigma) <= set(pi):
        steps.append((pi, sigma[-2]))
        pi, sigma = _meet_chain(poset, sigma[-2], pi), sigma[:-1]
    return _rebuild(poset, pi, steps)


def _apartment(poset, pi, sigma, pi_p, sigma_p):
    """Pair of sublattices for two ends p, q with meet m: pi/sigma are
    maximal chains from the scope bottom to p resp. q, pi_p/sigma_p maximal
    chains of [m, p] resp. [m, q].  Both sides grow from the sublattice the
    two chains generate below m.  Returns (B, C) as sets."""
    pi_m, b_steps = _peel(poset, pi, pi_p)
    sigma_m, c_steps = _peel(poset, sigma, sigma_p)
    d = _db2(poset, pi_m, sigma_m)
    return _rebuild(poset, d, b_steps), _rebuild(poset, d, c_steps)


def _check_distributive_sublattice(poset, elems, chains=()):
    """Meet/join closure, the distributive law, and cover preservation."""
    elems = sorted(elems, key=lambda e: (poset.rank_of(e), e))
    members = set(elems)
    for chain in chains:
        missing = set(chain) - members
        assert not missing, f"generating chain lost members {sorted(missing)}"
    meet = {}
    join = {}
    for a in elems:
        for b in elems:
            m = poset.meet(a, b)
            jn = poset.join(a, b)
            assert m in members, f"sublattice not meet-closed at {a!r},{b!r}"
            assert jn is not None and jn in members, (
                f"sublattice not join-closed at {a!r},{b!r}"
            )
            meet[a, b] = m
            join[a, b] = jn
    for a in elems:
        for b in elems:
            for c in elems:
                lhs = meet[a, join[b, c]]
                rhs = join[meet[a, b], meet[a, c]]
                assert lhs == rhs, f"distributivity fails at {a!r},{b!r},{c!r}"
    # covers inside the sublattice are covers of the host
    for a in elems:
        above = [b for b in elems if b != a and poset.leq(a, b)]
        for b in above:
            if not any(c != a and c != b and poset.leq(a, c) and poset.leq(c, b) for c in above):
                assert poset.rank_of(b) == poset.rank_of(a) + 1, (
                    f"sublattice cover {a!r} -> {b!r} skips host ranks"
                )
    return tuple(elems)


def _checked_apartment(poset, pi, sigma, pi_p, sigma_p):
    """The apartment's two sides, each checked as a distributive sublattice
    holding its generating chains.  When both sides are one set (p = q), it
    is checked once, against all four chains."""
    b_set, c_set = _apartment(poset, pi, sigma, pi_p, sigma_p)
    if b_set == c_set:
        d = _check_distributive_sublattice(poset, b_set, [pi, pi_p, sigma, sigma_p])
        return d, d
    b = _check_distributive_sublattice(poset, b_set, [pi, pi_p])
    c = _check_distributive_sublattice(poset, c_set, [sigma, sigma_p])
    return b, c


def distributive_sublattice(poset: GradedPoset, chains):
    """Distributive sublattice of a modular host generated by maximal chains.

    With two chains (maximal from bottom to top) returns the generated
    sublattice as a rank-sorted tuple.  With four chains (to p, to q, and
    maximal chains of [p∧q, p], [p∧q, q]) returns the pair of sublattices for
    the two ends.
    """
    if not classify(poset, "modular_semilattice"):
        raise NotModular("host is not modular")
    chains = [tuple(c) for c in chains]
    if len(chains) == 2:
        if poset.bottom is None or poset.top is None:
            raise InvalidStructure("two-chain form needs a bounded lattice")
        for c in chains:
            if not is_maximal_chain(poset, c, poset.bottom, poset.top):
                raise ChainNotMaximal(f"{list(c)} is not a maximal chain of the host")
        d = _db2(poset, chains[0], chains[1])
        return _check_distributive_sublattice(poset, d, chains)
    if len(chains) == 4:
        pi, sigma, pi_p, sigma_p = chains
        p, q = pi[-1], sigma[-1]
        m = poset.meet(p, q)
        bottom = poset.bottom
        if bottom is None:
            raise InvalidStructure("host has no bottom element")
        if not is_maximal_chain(poset, pi, bottom, p):
            raise ChainNotMaximal("first chain must run from bottom to p")
        if not is_maximal_chain(poset, sigma, bottom, q):
            raise ChainNotMaximal("second chain must run from bottom to q")
        if not is_maximal_chain(poset, pi_p, m, p):
            raise ChainNotMaximal("third chain must run from p∧q to p")
        if not is_maximal_chain(poset, sigma_p, m, q):
            raise ChainNotMaximal("fourth chain must run from p∧q to q")
        return _checked_apartment(poset, pi, sigma, pi_p, sigma_p)
    raise InvalidStructure("pass two or four chains")


def birkhoff_projection(poset: GradedPoset, ordered_jis, p: str):
    """Retraction onto a distributive sublattice given by its ordered
    join-irreducibles: keeps exactly the generators along which the meet
    with p climbs.

    The running joins of the generators must form a maximal chain of the
    host from bottom to top.
    """
    if poset.bottom is None or poset.top is None:
        raise InvalidStructure("host must be bounded")
    chain = [poset.bottom]
    for b in ordered_jis:
        nxt = poset.join(chain[-1], b)
        if nxt is None:
            raise ChainNotMaximal(f"running join dies at generator {b!r}")
        chain.append(nxt)
    for a, b in zip(chain, chain[1:]):
        if poset.rank_of(b) != poset.rank_of(a) + 1:
            raise ChainNotMaximal(
                f"running joins skip a rank between {a!r} and {b!r}"
            )
    if chain[-1] != poset.top:
        raise ChainNotMaximal("running joins do not reach the top")
    keep = []
    prev = poset.meet(p, chain[0])
    for b, c in zip(ordered_jis, chain[1:]):
        cur = poset.meet(p, c)
        step = poset.rank_of(cur) - poset.rank_of(prev)
        if step not in (0, 1):
            raise InvalidStructure("meet with p jumps more than one rank")
        if step == 1:
            keep.append(b)
        prev = cur
    return keep


def _join_irreducibles(poset, elems):
    """Members of a finite sublattice with exactly one lower cover inside it."""
    elems = set(elems)
    out = []
    for e in elems:
        below = [d for d in elems if d != e and poset.leq(d, e)]
        if not below:
            continue
        maximal = [
            d for d in below
            if not any(d2 != d and poset.leq(d, d2) for d2 in below)
        ]
        if len(maximal) == 1:
            out.append(e)
    return sorted(out)


class Frame:
    """Cube coordinates for the complex spanned by two sublattices.

    Vertices are the join-irreducibles of the two sides; a host element of
    the spanned complex corresponds to the set of vertices below it, and a
    point's coordinate at a vertex is the mass of its support above that
    vertex.
    """

    def __init__(self, poset: GradedPoset, b_elems, c_elems, base: str, zero: str):
        self.poset = poset
        self.b_elems = frozenset(b_elems)
        self.c_elems = frozenset(c_elems)
        self.base = base
        self.zero = zero
        vb = _join_irreducibles(poset, self.b_elems)
        vc = _join_irreducibles(poset, self.c_elems)
        self.vertices = tuple(sorted(set(vb) | set(vc)))
        self.isolated = frozenset(v for v in self.vertices if poset.leq(v, base))
        self.side_b = frozenset(v for v in vb if v not in self.isolated)
        self.side_c = frozenset(v for v in vc if v not in self.isolated)
        overlap = self.side_b & self.side_c
        if overlap:
            raise InvalidStructure(
                f"side vertices shared outside the common base: {sorted(overlap)}"
            )
        self.pip = incidence_pip(poset, self.vertices)
        # unbounded pairs can only cross the two proper sides
        for u, v in self.pip.edges:
            sides = {u in self.side_b, v in self.side_b}
            if sides != {True, False}:
                raise InvalidStructure(
                    f"unbounded pair {u!r},{v!r} does not cross the frame sides"
                )

    def ideal_of(self, element: str) -> frozenset:
        return frozenset(v for v in self.vertices if self.poset.leq(v, element))

    def element_of(self, vertex_set) -> str:
        vs = set(vertex_set)
        if not vs:
            return self.zero
        e = self.poset.join_set(sorted(vs))
        if e is None:
            raise InvalidPoint(f"vertex set {sorted(vs)} has no join")
        if self.ideal_of(e) != frozenset(vs):
            raise InvalidPoint(
                f"vertex set {sorted(vs)} is not the shadow of any frame element"
            )
        return e

    def b_coords(self, x: Point) -> dict:
        check_point(self.poset, x)
        for e in x.support:
            # every support element must be expressible from frame vertices
            if self.element_of(self.ideal_of(e)) != e:
                raise SupportOutsideFrame(f"{e!r} is outside the frame")
        out: dict[str, Fraction] = {}
        for e, mass in x.coeffs.items():
            for v in self.vertices:
                if self.poset.leq(v, e):
                    out[v] = out.get(v, Fraction(0)) + mass
        return {v: out[v] for v in sorted(out)}

    def point_from_b(self, coords: dict) -> Point:
        clean = unit_coords(self.pip, coords, "frame vertex")
        return point_from_levels(level_decomposition(clean), self.element_of, self.zero)


def build_frame(
    poset: GradedPoset,
    p: str,
    q: str,
    arch_members,
    supp_x,
    supp_y,
    base: str,
    zero: str,
) -> Frame:
    """Frame for the pair (p, q) holding the given supports and arch traces."""
    pi = extend_to_maximal_chain(poset, supp_x, zero, p)
    sigma = extend_to_maximal_chain(poset, supp_y, zero, q)
    p_traces = dedup_chain(poset.meet(u, p) for u in arch_members)
    q_traces = dedup_chain(poset.meet(u, q) for u in arch_members)
    pi_p = extend_to_maximal_chain(poset, p_traces, base, p)
    sigma_p = extend_to_maximal_chain(poset, q_traces, base, q)
    b, c = _checked_apartment(poset, pi, sigma, pi_p, sigma_p)
    frame = Frame(poset, b, c, base, zero)
    for u in arch_members:
        if frame.element_of(frame.ideal_of(u)) != u:
            raise InvalidStructure(f"arch member {u!r} fell outside its frame")
    return frame


def distributive_frame(poset: GradedPoset, p: str, q: str, arch, chain_x, chain_y) -> Frame:
    """Frame for an orthogonal pair of elements.

    chain_x and chain_y must be maximal chains from the bottom to p resp. q;
    arch is the member sequence (or an Arch) between p and q.
    """
    if not classify(poset, "modular_semilattice"):
        raise NotModular("host is not a modular semilattice")
    bottom = poset.bottom
    if bottom is None:
        raise InvalidStructure("host has no bottom element")
    m = poset.meet(p, q)
    if m != bottom or omega(poset, q, p) != bottom or omega(poset, p, q) != bottom:
        raise NotOrthogonal(f"{p!r} and {q!r} are not orthogonal")
    if not is_maximal_chain(poset, chain_x, bottom, p):
        raise ChainNotMaximal("chain_x must be a maximal chain from bottom to p")
    if not is_maximal_chain(poset, chain_y, bottom, q):
        raise ChainNotMaximal("chain_y must be a maximal chain from bottom to q")
    members = list(getattr(arch, "members", arch))
    if members[0] != p or members[-1] != q:
        raise InvalidStructure("arch must run from p to q")
    return build_frame(poset, p, q, members, chain_x, chain_y, base=bottom, zero=bottom)
