"""Independent checkers for the orthogeo benchmark.

Nothing in this module imports orthogeo.  Every answer the benchmark gets
from the library is checked against computations made here from the host
documents alone:

- stable ideals of a pip, from its vertex, edge and order lists;
- the rank-level simplex distance between two chain-form points;
- Euclidean lengths and cube membership of vertex-coordinate paths;
- an integer-scaled maximum-weight stable ideal (a minimum cut);
- the subspace lattice of F_2^n with its ranks and meets;
- exact sums of square roots, and a brute-force minimum over concave arches.

Each check raises CheckFailed with a message naming what disagreed.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

F0 = Fraction(0)


class CheckFailed(Exception):
    """An answer of the program disagrees with an independent computation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- pips and their stable ideals ----------------------------------------------


class PipModel:
    """A pip as the benchmark knows it: vertices, edges and order pairs.

    `below[v]` is the set of vertices u with u <= v (reflexive, transitive).
    """

    def __init__(self, vertices, edges, order=()):
        self.vertices = tuple(vertices)
        self.nbrs = {v: set() for v in self.vertices}
        for u, v in edges:
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)
        below = {v: {v} for v in self.vertices}
        for u, v in order:
            below[v].add(u)
        changed = True
        while changed:
            changed = False
            for v in self.vertices:
                grown = set(below[v])
                for u in below[v]:
                    grown |= below[u]
                if grown != below[v]:
                    below[v] = grown
                    changed = True
        self.below = below

    @classmethod
    def from_doc(cls, doc):
        return cls(doc["vertices"], doc.get("edges", []), doc.get("order", []))

    def is_stable_ideal(self, vertex_set) -> bool:
        s = set(vertex_set)
        for v in s:
            if v not in self.nbrs or not self.below[v] <= s or self.nbrs[v] & s:
                return False
        return True

    def stable_ideals(self, limit=10**6):
        """All stable ideals as frozensets, by breadth-first growth."""
        seen = {frozenset()}
        frontier = [frozenset()]
        while frontier:
            nxt = []
            for s in frontier:
                for v in self.vertices:
                    if v in s or not self.below[v] - {v} <= s or self.nbrs[v] & s:
                        continue
                    t = s | {v}
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            require(len(seen) <= limit, f"more than {limit} stable ideals")
            frontier = nxt
        return seen

    def restrict(self, keep):
        keep = set(keep)
        edges = [(u, v) for u in keep for v in self.nbrs[u] if v in keep and u < v]
        order = [(u, v) for v in keep for u in self.below[v] if u in keep and u != v]
        return PipModel(sorted(keep), edges, order)


def ideal_name(vertex_set) -> str:
    return "{" + ",".join(sorted(vertex_set)) + "}"


def parse_ideal_name(name: str) -> frozenset:
    inner = name.strip()[1:-1].strip()
    return frozenset(p.strip() for p in inner.split(",")) if inner else frozenset()


def check_b_point(pip: PipModel, coords: dict, what="point"):
    """Vertex coordinates in [0, 1] whose threshold sets are stable ideals."""
    for v, val in coords.items():
        require(v in pip.nbrs, f"{what}: unknown vertex {v!r}")
        require(0 < val <= 1, f"{what}: coordinate {val} at {v!r} outside (0, 1]")
    for val in set(coords.values()):
        level = {v for v, c in coords.items() if c >= val}
        require(
            pip.is_stable_ideal(level),
            f"{what}: threshold set at {val} is not a stable ideal",
        )


# -- chain-form points on graded posets -------------------------------------------


class ChainHost:
    """Rank and order of a poset host, as the benchmark knows it."""

    def __init__(self, rank, leq):
        self.rank = rank
        self.leq = leq


def stable_ideal_host() -> ChainHost:
    """Elements named '{a,b}' ordered by inclusion, ranked by size."""
    return ChainHost(
        rank=lambda e: len(parse_ideal_name(e)),
        leq=lambda a, b: parse_ideal_name(a) <= parse_ideal_name(b),
    )


def sq_simplex_distance(host: ChainHost, x: dict, y: dict) -> Fraction:
    """Exact squared distance of two points whose supports lie on one chain.

    A point sum(l_i c_i) on a maximal chain sits at the vector whose j-th
    entry is the mass at rank >= j; the squared distance sums the squared
    level differences.  Raises CheckFailed when the supports are no chain.
    """
    supp = sorted(set(x) | set(y), key=lambda e: (host.rank(e), e))
    for a, b in zip(supp, supp[1:]):
        require(
            host.rank(a) < host.rank(b) and host.leq(a, b),
            f"supports do not lie on one chain: {a!r} vs {b!r}",
        )
    total = F0
    cum = F0
    for hi, lo in zip(reversed(supp), list(reversed(supp))[1:]):
        cum += x.get(hi, F0) - y.get(hi, F0)
        total += (host.rank(hi) - host.rank(lo)) * cum * cum
    return total


def check_chain_point(host: ChainHost, p: dict, what="point"):
    require(all(v > 0 for v in p.values()), f"{what}: nonpositive coefficient")
    require(sum(p.values(), F0) == 1, f"{what}: coefficients do not sum to 1")
    sq_simplex_distance(host, p, p)


def check_chain_path(host: ChainHost, x: dict, y: dict, breakpoints, length: float):
    """Breakpoints run from x to y at strictly increasing times, consecutive
    ones share a simplex, and the segments add up to the reported length."""
    _check_times(breakpoints)
    require(breakpoints[0][1] == x, "path does not start at x")
    require(breakpoints[-1][1] == y, "path does not end at y")
    total = []
    for (_, p), (_, q) in zip(breakpoints, breakpoints[1:]):
        check_chain_point(host, p, "breakpoint")
        total.append(math.sqrt(sq_simplex_distance(host, p, q)))
    check_chain_point(host, breakpoints[-1][1], "breakpoint")
    _check_length(math.fsum(total), length)


def check_cube_path(pip: PipModel, x: dict, y: dict, breakpoints, length: float):
    """Vertex-coordinate path: valid breakpoints, consecutive ones in one
    cube (their supports form a stable ideal), Euclidean segment sum equal
    to the reported length."""
    _check_times(breakpoints)
    require(breakpoints[0][1] == x, "path does not start at x")
    require(breakpoints[-1][1] == y, "path does not end at y")
    total = []
    for _, c in breakpoints:
        check_b_point(pip, c, "breakpoint")
    for (_, c0), (_, c1) in zip(breakpoints, breakpoints[1:]):
        require(
            pip.is_stable_ideal(set(c0) | set(c1)),
            "consecutive breakpoints do not share a cube",
        )
        sq = sum(((c0.get(v, F0) - c1.get(v, F0)) ** 2 for v in set(c0) | set(c1)), F0)
        total.append(math.sqrt(sq))
    _check_length(math.fsum(total), length)


def _check_times(breakpoints):
    times = [t for t, _ in breakpoints]
    require(len(times) >= 2, "a path needs two breakpoints")
    require(times[0] == 0 and times[-1] == 1, "path is not parametrized over [0, 1]")
    require(all(a < b for a, b in zip(times, times[1:])), "breakpoint times do not increase")


def _check_length(summed: float, length: float):
    require(
        abs(summed - length) <= 1e-9 * max(1.0, length),
        f"segments sum to {summed!r}, distance is {length!r}",
    )


def b_coordinates(x: dict) -> dict:
    """Vertex coordinates of a chain-form point over stable-ideal names."""
    out = {}
    for e, mass in x.items():
        for v in parse_ideal_name(e):
            out[v] = out.get(v, F0) + mass
    return out


# -- the subspace lattice of F_2^n ---------------------------------------------------


class SubspaceLattice:
    """All subspaces of F_2^n, each stored as the frozenset of its vectors.

    Elements are named by a relabelling of the vectors (an invertible linear
    map chosen by the caller), so the same lattice appears under different
    names for different seeds.
    """

    def __init__(self, n, basis_images=None):
        self.n = n
        images = basis_images or [1 << i for i in range(n)]

        def image(v):
            out = 0
            for i in range(n):
                if v >> i & 1:
                    out ^= images[i]
            return out

        subs = {frozenset({0})}
        frontier = [frozenset({0})]
        while frontier:
            nxt = []
            for s in frontier:
                for v in range(1, 1 << n):
                    if v not in s:
                        t = s | {a ^ v for a in s}
                        if t not in subs:
                            subs.add(t)
                            nxt.append(t)
            frontier = nxt
        self.subspaces = sorted(subs, key=lambda s: (len(s), sorted(s)))
        self.name = {
            s: "V" + ".".join(f"{w:x}" for w in sorted(image(v) for v in s))
            for s in self.subspaces
        }
        self.by_name = {nm: s for s, nm in self.name.items()}

    def rank(self, e) -> int:
        return len(self.by_name[e]).bit_length() - 1

    def leq(self, a, b) -> bool:
        return self.by_name[a] <= self.by_name[b]

    def meet(self, a, b) -> str:
        return self.name[self.by_name[a] & self.by_name[b]]

    def covers(self):
        return [
            (self.name[a], self.name[b])
            for a in self.subspaces
            for b in self.subspaces
            if len(b) == 2 * len(a) and a < b
        ]

    def host(self) -> ChainHost:
        return ChainHost(rank=self.rank, leq=self.leq)

    def vertex_sq_distance(self, u, v) -> int:
        """In a modular lattice, d(u, v)^2 = r(u) + r(v) - 2 r(u meet v)."""
        return self.rank(u) + self.rank(v) - 2 * self.rank(self.meet(u, v))


# -- exact sums of square roots -------------------------------------------------------


@lru_cache(maxsize=None)
def squarefree_split(n: int):
    """n = s*s*c with c squarefree, by trial division."""
    s, c, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            c *= p
        p += 1 if p == 2 else 2
    return s, c * n


def radical(rational=F0, sqrt_of=None) -> dict:
    """{core: coefficient} with core 1 for the rational part; sqrt_of adds
    sqrt(sqrt_of) as coefficient times the root of a squarefree core."""
    out = {1: Fraction(rational)} if rational else {}
    if sqrt_of:
        f = Fraction(sqrt_of)
        s, c = squarefree_split(f.numerator * f.denominator)
        out = radical_add(out, {c: Fraction(s, f.denominator)})
    return out


def radical_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for c, v in b.items():
        out[c] = out.get(c, F0) + v
    return {c: v for c, v in out.items() if v}


def radical_sign(a: dict) -> int:
    """Exact sign by interval refinement; distinct squarefree roots are
    linearly independent, so a nonzero sum has a nonzero value."""
    if not a:
        return 0
    digits = 20
    while True:
        scale = 10**digits
        lo = hi = F0
        for core, coeff in a.items():
            r = isqrt(core * scale * scale)
            rlo, rhi = Fraction(r, scale), Fraction(r + (r * r != core * scale * scale), scale)
            lo += coeff * (rlo if coeff > 0 else rhi)
            hi += coeff * (rhi if coeff > 0 else rlo)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        digits *= 2


def arch_sq_value(xsq, ysq) -> dict:
    """v^2 = sum of (a + b + 2 sqrt(a b)) over the arch's blocks."""
    out = {}
    for a, b in zip(xsq, ysq):
        out = radical_add(out, radical(a + b))
        out = radical_add(out, {c: 2 * v for c, v in radical(sqrt_of=a * b).items()})
    return out


# -- orthogonal decomposition of two vertex-coordinate points ---------------------


def split_instance(pip: PipModel, x: dict, y: dict):
    """The two crossing sides and the joinable part of a pair of points.

    A support vertex of x with no edge into the support of y is joinable
    (edges persist upward, so those vertices form an ideal), and likewise
    for y.  Returns (B, C, zsq): B and C are the remaining parts of the two
    supports, zsq the squared straight-line part over everything else.
    """
    ux, uy = set(x), set(y)
    bset = {v for v in ux if pip.nbrs[v] & uy}
    cset = {v for v in uy if pip.nbrs[v] & ux}
    rest = (ux | uy) - bset - cset
    zsq = sum(((x.get(v, F0) - y.get(v, F0)) ** 2 for v in rest), F0)
    return frozenset(bset), frozenset(cset), zsq


def min_concave_arch(pip: PipModel, x: dict, y: dict, bset, cset, limit=200000):
    """Exact minimum of v^2 over all concave staircases from B to C.

    A staircase is a sequence of stable ideals of the pip restricted to
    B and C whose B-parts strictly shrink and C-parts strictly grow; it is
    concave when the block ratios ysq/xsq strictly decrease.  Prefixes that
    are already not concave are cut off, which keeps the enumeration
    exhaustive over concave staircases.
    """
    sub = pip.restrict(bset | cset)
    ideals = sorted(sub.stable_ideals(), key=sorted)
    xw = {v: x[v] * x[v] for v in bset}
    yw = {v: y[v] * y[v] for v in cset}
    goal = frozenset(cset)
    best = None
    stack = [(frozenset(bset), None, ())]
    while stack:
        last, prev, blocks = stack.pop()
        if last == goal:
            value = arch_sq_value([a for a, _ in blocks], [b for _, b in blocks])
            if best is None or radical_sign(radical_add(value, _neg(best))) < 0:
                best = value
            continue
        lb, lc = last & bset, last & cset
        for u in ideals:
            ub, uc = u & bset, u & cset
            if not (ub < lb and uc > lc):
                continue
            a = sum((xw[v] for v in lb - ub), F0)
            b = sum((yw[v] for v in uc - lc), F0)
            if prev is not None and not prev[1] * a > b * prev[0]:
                continue
            stack.append((u, (a, b), blocks + ((a, b),)))
        require(len(stack) < limit, "arch enumeration too large for the check")
    require(best is not None, "no concave staircase between the two sides")
    return best


def _neg(a: dict) -> dict:
    return {c: -v for c, v in a.items()}


# -- integer-scaled maximum-weight stable ideal --------------------------------------


def max_weight_stable_ideal(pip: PipModel, bweights: dict, cweights: dict):
    """Largest sum of weights over a stable ideal of a two-sided pip whose
    edges only cross between the B and C sides.

    Weights are nonnegative rationals, scaled to integers by the common
    denominator.  The source side of a minimum cut is the B-part of the
    ideal plus the C-vertices left out of it: a B-vertex left out cuts its
    source arc, a C-vertex left out cuts its sink arc, and infinite arcs
    forbid an edge inside the ideal or a hole below an ideal member.  The
    value is exact: the weight total minus the cut, unscaled.
    """
    weights = list(bweights.values()) + list(cweights.values())
    scale = 1
    for w in weights:
        scale = scale * w.denominator // gcd(scale, w.denominator)
    nodes = ["s", "t", *bweights, *cweights]
    index = {v: i for i, v in enumerate(nodes)}
    inf = sum(int(w * scale) for w in weights) + 1
    graph = [[] for _ in nodes]  # arcs as [to, capacity, reverse index]

    def arc(u, v, cap):
        iu, iv = index[u], index[v]
        graph[iu].append([iv, cap, len(graph[iv])])
        graph[iv].append([iu, 0, len(graph[iu]) - 1])

    for b, w in bweights.items():
        arc("s", b, int(w * scale))
        for c in pip.nbrs[b]:
            if c in cweights:
                arc(b, c, inf)
        for u in pip.below[b]:
            if u != b:
                arc(b, u, inf)
    for c, w in cweights.items():
        arc(c, "t", int(w * scale))
        for u in pip.below[c]:
            if u != c:
                arc(u, c, inf)
    cut = _dinic(graph, index["s"], index["t"])
    total = sum(int(w * scale) for w in weights)
    return Fraction(total - cut, scale)


def _dinic(graph, s, t) -> int:
    flow = 0
    while True:
        level = [-1] * len(graph)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _ in graph[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return flow
        it = [0] * len(graph)

        def push(u, limit):
            if u == t:
                return limit
            while it[u] < len(graph[u]):
                a = graph[u][it[u]]
                v, cap, rev = a
                if cap > 0 and level[v] == level[u] + 1:
                    got = push(v, min(limit, cap))
                    if got:
                        a[1] -= got
                        graph[v][rev][1] += got
                        return got
                it[u] += 1
            return 0

        while True:
            got = push(s, float("inf"))
            if not got:
                break
            flow += got


def xi_points(xsq, ysq):
    """Cumulative (x-mass left, y-mass gained) points of an arch's blocks."""
    cx, cy = sum(xsq, F0), F0
    pts = [(cx, cy)]
    for a, b in zip(xsq, ysq):
        cx -= a
        cy += b
        pts.append((cx, cy))
    return pts
