"""Brute-force cross-checks for the geodesic engine, behind the CLI's
oracle, arch and cat0-check commands.

Nothing here is needed to compute a distance; everything here exists to
catch the engine lying.  A grid graph gives certified upper bounds, an
exhaustive staircase enumeration gives certified arch minima (from a
per-element xi, which is also the reference for arch.xi's table), and
random convexity probes stress the metric.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction

from .arch import Arch, v_sq
from .engine import geodesic, geodesic_median
from .errors import EmptyBlock, InvalidStructure, SizeCap
from .points import (
    Point,
    check_b_point,
    check_point,
    point_from_b,
    point_meet,
    sq_simplex_distance,
    tau,
)
from .poset import (
    GradedPoset,
    Pip,
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


def oracle_distance(host, x, y, n: int = 8) -> float:
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
    limit = size_cap()
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


def _staircases(ideals, start, goal, bset, cset, limit):
    """All strictly trace-monotone member sequences from start to goal;
    SizeCap once there are more than limit of them."""
    out = []

    def dfs(seq):
        last = seq[-1]
        if last == goal:
            out.append(tuple(seq))
            if len(out) > limit:
                raise SizeCap(f"staircase count exceeds cap {limit}")
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
    limit = size_cap()
    if 1 << len(sub.ids) > limit:
        raise SizeCap(f"arch enumeration scans 2^{len(sub.ids)} vertex subsets, over cap {limit}")
    ideals = []
    for mask in range(1 << len(sub.ids)):
        if sub.is_stable_mask(mask) and sub.is_ideal_mask(mask):
            ideals.append(sub.names_of(mask))
    bset, cset = frozenset(bx), frozenset(cy)
    arches = []
    for seq in _staircases(sorted(ideals, key=sorted), bset, cset, bset, cset, limit):
        drops = [(a - b) & bset for a, b in zip(seq, seq[1:])]
        gains = [(b - a) & cset for a, b in zip(seq, seq[1:])]
        xsq, ysq = _arch_blocks(drops, gains, bx, cy)
        try:
            arch = Arch(seq, xsq, ysq)
        except EmptyBlock:
            continue
        arches.append(arch)
    return _sorted_by_length(arches)


def _xi(poset: GradedPoset, u: str, x: Point, y: Point, base: str):
    """One entry of arch.xi's table, by its definition: the squared simplex
    distances of the meet-projections x∧u and y∧u from the base vertex.  The
    reference the rank-level table is tested against."""
    origin = Point.vertex(base)
    return (
        sq_simplex_distance(poset, point_meet(poset, x, u), origin),
        sq_simplex_distance(poset, point_meet(poset, y, u), origin),
    )


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
    xis = {u: _xi(poset, u, xh, yh, a) for u in interval.elements}

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
    if k and not len(host):
        raise InvalidStructure("host is empty: there are no points to probe")
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
