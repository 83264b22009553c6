"""Brute-force cross-checks for the geodesic engine.

Nothing here is needed to compute a distance; everything here exists to
catch the engine lying.  A grid graph gives certified upper bounds, an
exhaustive staircase enumeration gives certified arch minima, random
convexity probes stress the metric, a small catalog of modular lattices
feeds identity checks, and a cubic-time classification is the reference for
poset.classify.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction

from .arch import Arch, v_sq, xi
from .engine import geodesic, geodesic_median
from .errors import EmptyBlock, InvalidStructure, NotGraded, SizeCap
from .points import Point, check_b_point, check_point, point_from_b, sq_simplex_distance, tau
from .poset import (
    GradedPoset,
    Pip,
    _bits,
    classify,
    metric_interval,
    omega,
    size_cap,
    stable_ideals,
)

_F0 = Fraction(0)


# -- grid upper bounds --------------------------------------------------------


def _compositions(n, length):
    for cuts in itertools.combinations(range(n + length - 1), length - 1):
        prev = -1
        parts = []
        for c in cuts + (n + length - 1,):
            parts.append(c - prev - 1)
            prev = c
        yield parts


def _chain_instance(host, x, y):
    if isinstance(host, Pip):
        poset = stable_ideals(host)
        return poset, point_from_b(host, x), point_from_b(host, y)
    check_point(host, x)
    check_point(host, y)
    return host, x, y


def oracle_distance(host, x, y, n: int = 8, cap: int | None = None) -> float:
    """Grid upper bound on the distance between x and y.

    Every maximal simplex is sampled at coordinate multiples of 1/n and fully
    wired with exact pairwise lengths, the endpoints are wired into every
    simplex containing them, and Dijkstra reports the shortest route.  The
    bound is monotone nonincreasing as n doubles, since the finer grid
    contains the coarser one.
    """
    if n < 1:
        raise InvalidStructure(f"grid refinement must be positive, got {n}")
    poset, px, py = _chain_instance(host, x, y)
    limit = cap if cap is not None else size_cap()
    chains = poset.maximal_chains()
    total = 0
    for ch in chains:
        total += math.comb(n + len(ch) - 1, len(ch) - 1)
        if total > limit:
            raise SizeCap(f"grid would need more than {limit} nodes")

    index: dict[Point, int] = {}
    points: list[Point] = []
    adj: list[list] = []

    def node_of(pt: Point) -> int:
        if pt not in index:
            index[pt] = len(adj)
            points.append(pt)
            adj.append([])
        return index[pt]

    src, dst = node_of(px), node_of(py)
    wired = set()
    for ch in chains:
        members = set()
        for parts in _compositions(n, len(ch)):
            members.add(
                node_of(Point({e: Fraction(k, n) for e, k in zip(ch, parts) if k}))
            )
        chain_set = set(ch)
        for endpoint, node in ((px, src), (py, dst)):
            if set(endpoint.support) <= chain_set:
                members.add(node)
        ordered = sorted(members)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                if (a, b) in wired:
                    continue
                wired.add((a, b))
                w = math.sqrt(float(sq_simplex_distance(poset, points[a], points[b])))
                adj[a].append((b, w))
                adj[b].append((a, w))

    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u == dst:
            return d
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return math.inf


# -- exhaustive arch enumeration ----------------------------------------------


def _arch_blocks(drops, gains, weights_x, weights_y):
    xsq = [sum((weights_x[v] ** 2 for v in d), _F0) for d in drops]
    ysq = [sum((weights_y[v] ** 2 for v in g), _F0) for g in gains]
    return xsq, ysq


def _staircases(ideals, start, goal, bset, cset):
    """All strictly trace-monotone member sequences from start to goal."""
    out = []

    def dfs(seq):
        last = seq[-1]
        if last == goal:
            out.append(tuple(seq))
            return
        for u in ideals:
            if (last & bset) > (u & bset) and (last & cset) < (u & cset):
                seq.append(u)
                dfs(seq)
                seq.pop()

    dfs([start])
    return out


def _enumerate_arches_pip(pip: Pip, x, y):
    from .engine import _omega_part

    xb = check_b_point(pip, x)
    yb = check_b_point(pip, y)
    ux, uy = frozenset(xb), frozenset(yb)
    if pip.is_stable_mask(pip.mask_of(ux | uy)):
        return []
    joinable = _omega_part(pip, ux, uy) | _omega_part(pip, uy, ux)
    bx = {v: xb[v] for v in ux - joinable}
    cy = {v: yb[v] for v in uy - joinable}
    sub = pip.restrict(sorted(set(bx) | set(cy)))
    ideals = []
    for mask in range(1 << len(sub.ids)):
        if sub.is_stable_mask(mask) and sub.is_ideal_mask(mask):
            ideals.append(sub.names_of(mask))
    bset, cset = frozenset(bx), frozenset(cy)
    arches = []
    for seq in _staircases(sorted(ideals, key=sorted), bset, cset, bset, cset):
        drops = [(a - b) & bset for a, b in zip(seq, seq[1:])]
        gains = [(b - a) & cset for a, b in zip(seq, seq[1:])]
        xsq, ysq = _arch_blocks(drops, gains, bx, cy)
        try:
            arch = Arch(seq, xsq, ysq)
        except EmptyBlock:
            continue
        arches.append(arch)
    return _sorted_by_length(arches)


def _enumerate_arches_poset(poset: GradedPoset, x: Point, y: Point):
    from .points import point_join

    check_point(poset, x)
    check_point(poset, y)
    p, q = tau(poset, x), tau(poset, y)
    if poset.join(p, q) is not None:
        return []
    a = poset.join(omega(poset, q, p), omega(poset, p, q))
    xh = point_join(poset, x, a)
    yh = point_join(poset, y, a)
    ph, qh = tau(poset, xh), tau(poset, yh)
    interval = metric_interval(poset, ph, qh)
    xis = {u: xi(poset, u, xh, yh, base=a) for u in interval.elements}

    arches = []

    def dfs(seq):
        last = seq[-1]
        if last == qh:
            xsq = [xis[u][0] - xis[v][0] for u, v in zip(seq, seq[1:])]
            ysq = [xis[v][1] - xis[u][1] for u, v in zip(seq, seq[1:])]
            try:
                arches.append(Arch(tuple(seq), xsq, ysq))
            except EmptyBlock:
                pass
            return
        tp, tq = poset.meet(last, ph), poset.meet(last, qh)
        for u in sorted(interval.elements):
            up, uq = poset.meet(u, ph), poset.meet(u, qh)
            if up != tp and poset.leq(up, tp) and uq != tq and poset.leq(tq, uq):
                seq.append(u)
                dfs(seq)
                seq.pop()

    dfs([ph])
    return _sorted_by_length(arches)


def _sorted_by_length(arches):
    decorated = []
    for arch in arches:
        vsq = v_sq(arch)
        decorated.append((float(vsq), [sorted(m) for m in arch.members], arch))
    decorated.sort(key=lambda row: (row[0], row[1]))
    out = []
    for fv, _, arch in decorated:
        out.append((arch, math.sqrt(fv)))
    return out


def enumerate_arches(host, x, y):
    """Every strictly trace-monotone staircase between the two support sides,
    with its exact squared length; sorted from shortest.  Sequences that do
    not move mass on both sides at every step are not arches and are skipped.
    Empty when the supports join (no staircase is needed)."""
    if isinstance(host, Pip):
        return _enumerate_arches_pip(host, x, y)
    return _enumerate_arches_poset(host, x, y)


# -- random convexity probes --------------------------------------------------


def _random_b_point(pip: Pip, rng: random.Random) -> dict:
    verts = list(pip.ids)
    target = rng.randint(1, len(verts))
    chosen = []
    current = frozenset()
    while len(chosen) < target:
        candidates = []
        for v in verts:
            if v in current:
                continue
            below = {u for u in verts if pip.leq(u, v) and u != v}
            if not below <= current:
                continue
            if any(pip.has_edge(v, u) for u in current):
                continue
            candidates.append(v)
        if not candidates:
            break
        pick = rng.choice(candidates)
        chosen.append(pick)
        current = current | {pick}
    values = sorted((Fraction(rng.randint(1, 16), 16) for _ in chosen), reverse=True)
    return dict(zip(chosen, values))


def _random_chain_point(poset: GradedPoset, rng: random.Random) -> Point:
    chain = rng.choice(poset.maximal_chains())
    size = rng.randint(1, len(chain))
    support = rng.sample(list(chain), size)
    raw = [rng.randint(1, 8) for _ in support]
    total = sum(raw)
    return Point({e: Fraction(k, total) for e, k in zip(support, raw)})


def cat0_check(host, k: int = 200, seed: int = 0) -> dict:
    """Random probe of the convexity inequality

        d(x, P(t))^2 <= (1-t) d(x,y0)^2 + t d(x,y1)^2 - t(1-t) d(y0,y1)^2

    along k computed geodesics P from y0 to y1, at seven interior times.
    Returns the worst excess found (0.0 when the inequality always held)."""
    if k < 0:
        raise InvalidStructure(f"probe count must not be negative, got {k}")
    is_pip = isinstance(host, Pip)
    report = {"samples": k, "max_violation": 0.0, "worst_case": None}
    worst = -math.inf
    for i in range(k):
        rng = random.Random(f"{seed}:{i}")
        if is_pip:
            x = _random_b_point(host, rng)
            y0 = _random_b_point(host, rng)
            y1 = _random_b_point(host, rng)
            dist = lambda a, b: geodesic_median(host, a, b, compute_path=False).length
            geo = geodesic_median(host, y0, y1)
            path = geo.bpath
        else:
            x = _random_chain_point(host, rng)
            y0 = _random_chain_point(host, rng)
            y1 = _random_chain_point(host, rng)
            dist = lambda a, b: geodesic(host, a, b, compute_path=False).length
            geo = geodesic(host, y0, y1)
            path = geo.path
        dx0 = dist(x, y0)
        dx1 = dist(x, y1)
        d01 = geo.length
        for num in range(1, 8):
            t = Fraction(num, 8)
            pt = path.point_at(t)
            lhs = dist(x, pt) ** 2
            rhs = (
                float(1 - t) * dx0 * dx0
                + float(t) * dx1 * dx1
                - float(t * (1 - t)) * d01 * d01
            )
            excess = lhs - rhs
            if excess > worst:
                worst = excess
                report["worst_case"] = {"sample": i, "t": str(t), "excess": excess}
    report["max_violation"] = max(0.0, worst)
    return report


# -- reference classification -----------------------------------------------


def _classify(poset: GradedPoset) -> dict:
    """All of classify's flags from n x n meet and join tables and cubic
    loops over each maximal principal ideal: the reference poset.classify
    is tested against."""
    n = poset._n
    up, down, rank = poset._up, poset._down, poset._rank
    flags = {
        "graded": True,
        "meet_semilattice": False,
        "lattice": False,
        "modular": False,
        "distributive": False,
        "boolean": False,
        "modular_semilattice": False,
        "median_semilattice": False,
        "boolean_semilattice": False,
    }
    if n == 0:
        return flags
    limit = size_cap()
    if n * n > limit:
        raise SizeCap(f"classify needs {n}x{n} meet and join tables, over cap {limit}")

    def table(op):
        """Symmetric table of op over all pairs, and whether it is total."""
        out = [[None] * n for _ in range(n)]
        total = True
        for i in range(n):
            out[i][i] = i
            for j in range(i + 1, n):
                k = op(i, j)
                out[i][j] = out[j][i] = k
                if k is None:
                    total = False
        return out, total

    meet, has_all_meets = table(poset._meet_i)
    flags["meet_semilattice"] = has_all_meets and poset.bottom is not None
    if not flags["meet_semilattice"]:
        return flags

    # In a meet-semilattice a bounded pair always has a join (the common
    # upper bounds are closed under meet, so they have a least element).
    join, has_all_joins = table(poset._join_i)

    def bounded(i, j):
        return bool(up[i] & up[j])

    # local finite-boundedness: pairwise-bounded triples are bounded
    lfl = True
    for i in range(n):
        if not lfl:
            break
        for j in range(i + 1, n):
            if not bounded(i, j):
                continue
            for k in range(j + 1, n):
                if bounded(i, k) and bounded(j, k) and not (up[i] & up[j] & up[k]):
                    lfl = False
                    break
            if not lfl:
                break

    def ideal_join(a, b, top_mask):
        ubs = up[a] & up[b] & top_mask
        for k in _bits(ubs):
            if up[k] & ubs == ubs:
                return k
        return None

    def ideal_is_modular(t):
        mask = down[t]
        members = list(_bits(mask))
        for ai in range(len(members)):
            a = members[ai]
            for bi in range(ai + 1, len(members)):
                b = members[bi]
                j = ideal_join(a, b, mask)
                m = meet[a][b]
                if j is None or m is None:
                    return False
                if rank[a] + rank[b] != rank[m] + rank[j]:
                    return False
        return True

    def ideal_is_distributive(t):
        mask = down[t]
        members = list(_bits(mask))
        jn = {}
        for a in members:
            for b in members:
                jn[a, b] = ideal_join(a, b, mask)
        for a in members:
            for b in members:
                for c in members:
                    lhs = meet[a][jn[b, c]]
                    rhs = jn[meet[a][b], meet[a][c]]
                    if lhs != rhs:
                        return False
        return True

    def ideal_is_boolean(t):
        if not ideal_is_distributive(t):
            return False
        mask = down[t]
        bot = poset.index[poset.bottom]
        for a in _bits(mask):
            if not any(
                meet[a][b] == bot and ideal_join(a, b, mask) == t for b in _bits(mask)
            ):
                return False
        return True

    # principal ideals of non-maximal elements sit inside those of maximal
    # ones as sublattices, so checking the maximal ideals is enough
    maximal = poset._maximals
    flags["modular_semilattice"] = lfl and all(ideal_is_modular(t) for t in maximal)
    flags["median_semilattice"] = lfl and all(ideal_is_distributive(t) for t in maximal)
    flags["boolean_semilattice"] = lfl and all(ideal_is_boolean(t) for t in maximal)

    flags["lattice"] = has_all_joins and poset.top is not None
    if flags["lattice"]:
        flags["modular"] = flags["modular_semilattice"]
        flags["distributive"] = flags["median_semilattice"]
        flags["boolean"] = flags["boolean_semilattice"]
    return flags


# -- catalog of small modular lattices ----------------------------------------


def _canonical_downs(downs):
    """Lexicographically least relabeling of a down-mask tuple, searched over
    the permutations that respect an iterated degree refinement."""
    k = len(downs)
    ups = [0] * k
    for j, d in enumerate(downs):
        for i in _bits(d):
            ups[i] |= 1 << j
    sig = [(bin(downs[i]).count("1"), bin(ups[i]).count("1")) for i in range(k)]
    while True:
        fresh = [
            (
                sig[i],
                tuple(sorted(sig[j] for j in _bits(downs[i]) if j != i)),
                tuple(sorted(sig[j] for j in _bits(ups[i]) if j != i)),
            )
            for i in range(k)
        ]
        order = {s: n for n, s in enumerate(sorted(set(fresh)))}
        compressed = [(order[s],) for s in fresh]
        if compressed == sig:
            break
        sig = compressed

    classes: dict = {}
    for i in range(k):
        classes.setdefault(sig[i], []).append(i)
    blocks = [classes[s] for s in sorted(classes)]
    slots = []
    pos = 0
    for b in blocks:
        slots.append(range(pos, pos + len(b)))
        pos += len(b)

    best = None
    for arrangement in itertools.product(
        *[itertools.permutations(b) for b in blocks]
    ):
        new_index = {}
        for block_slots, block_elems in zip(slots, arrangement):
            for slot, elem in zip(block_slots, block_elems):
                new_index[elem] = slot
        rebuilt = [0] * k
        for i in range(k):
            m = 0
            for j in _bits(downs[i]):
                m |= 1 << new_index[j]
            rebuilt[new_index[i]] = m
        cand = tuple(rebuilt)
        if best is None or cand < best:
            best = cand
    return best


def _meet_semilattice_states(max_elems):
    """Canonical down-mask tuples of all meet-semilattices on at most
    max_elems elements, grown one new maximal element at a time."""
    start = (1,)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for downs in frontier:
            k = len(downs)
            if k >= max_elems:
                continue
            for amask in range(1, 1 << k):
                keep = True
                for i in _bits(amask):
                    for j in _bits(amask):
                        if i != j and downs[j] >> i & 1:
                            keep = False
                            break
                    if not keep:
                        break
                if not keep:
                    continue
                below = 0
                for i in _bits(amask):
                    below |= downs[i]
                ok = True
                for u in range(k):
                    meet_set = downs[u] & below
                    if not any(
                        downs[m] & meet_set == meet_set for m in _bits(meet_set)
                    ):
                        ok = False
                        break
                if not ok:
                    continue
                child = _canonical_downs(downs + (below | 1 << k,))
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return seen


def _poset_from_downs(downs):
    k = len(downs)
    names = [f"e{i}" for i in range(k)]
    covers = []
    for j in range(k):
        strict = downs[j] & ~(1 << j)
        for i in _bits(strict):
            if not any(
                downs[z] >> i & 1 for z in _bits(strict & ~(1 << i)) if z != i
            ):
                covers.append((names[i], names[j]))
    return GradedPoset(names, covers)


def modular_lattice_catalog(max_size: int = 8):
    """One representative per isomorphism class of the modular lattices with
    at most max_size elements, as graded posets with elements e0, e1, ...

    Lattices on m elements are exactly meet-semilattices on m-1 elements with
    a new top adjoined, so the generation walks the (much smaller) semilattice
    states and filters.
    """
    out = [GradedPoset(["e0"], [])]
    for downs in sorted(_meet_semilattice_states(max_size - 1), key=lambda d: (len(d), d)):
        k = len(downs)
        full = (1 << (k + 1)) - 1
        lattice = tuple(downs) + (full,)
        try:
            poset = _poset_from_downs(lattice)
        except NotGraded:
            continue
        if classify(poset, "modular"):
            out.append(poset)
    return out
