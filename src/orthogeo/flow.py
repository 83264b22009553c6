"""Exact maximum flow and minimum cut, and the bipartite separation solver.

Capacities are rationals or None (infinite).  `max_flow` scales the finite
capacities by the least common multiple of their denominators and runs
Dinic's blocking-flow algorithm (Dinic 1970) on integers, so no rational
arithmetic happens inside the search; infinite arcs get a finite stand-in
too large for any minimum cut.  The min cut returned is the
residual-reachability cut, i.e. the one whose source side is inclusionwise
smallest among all minimum cuts.  That cut is unique, whatever maximum flow
is found, which is what makes downstream tie handling deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InfiniteFlow, InvalidStructure, NotBipartitePip
from .poset import Pip


class FlowNetwork:
    """Directed network with rational or infinite arc capacities."""

    def __init__(self):
        self.caps: dict = {}
        self.nodes: set = set()

    def add_node(self, u):
        self.nodes.add(u)

    def add_arc(self, u, v, cap):
        """cap is an int or Fraction-like >= 0, or None for infinity; parallel
        arcs merge.  Ints are kept as they are, anything else becomes a
        Fraction."""
        if u == v:
            raise InvalidStructure("self-loop arc")
        self.nodes.add(u)
        self.nodes.add(v)
        if cap is not None:
            if not isinstance(cap, int):
                cap = Fraction(cap)
            if cap < 0:
                raise InvalidStructure(f"negative capacity on {u!r}->{v!r}")
        if (u, v) in self.caps:
            old = self.caps[(u, v)]
            self.caps[(u, v)] = None if (cap is None or old is None) else old + cap
        else:
            self.caps[(u, v)] = cap


@dataclass
class FlowResult:
    value: Fraction
    min_cut: frozenset  # source side, inclusionwise smallest


def max_flow(net: FlowNetwork, source, sink) -> FlowResult:
    """Maximum flow value and source-minimal minimum cut, exactly.

    Raises InfiniteFlow when the sink is reachable through infinite arcs
    alone (exactly the condition for the max flow to be unbounded).

    Otherwise the finite capacities are scaled to integers by the least
    common multiple of their denominators, and each infinite arc gets the
    capacity (sum of the finite capacities) + 1.  That stand-in is safe: the
    nodes reachable from the source along infinite arcs form a cut of
    finite arcs only, costing at most the sum, so a cut through a stand-in
    arc is never minimum; and no flow exceeds the sum, so no stand-in arc
    is ever saturated.  The minimum cuts are those of the true network.

    Dinic's algorithm then alternates a BFS level graph with a blocking flow
    found by an iterative depth-first search, so no path is too long for
    the recursion limit.  The cut returned is the set of nodes still
    reachable from the source in the final residual graph.  Every minimum
    cut's source side contains it, and it is a minimum cut itself, so it is
    the intersection of all minimum cuts: unique, whichever maximum flow the
    search found.
    """
    if source not in net.nodes or sink not in net.nodes:
        raise InvalidStructure("source/sink not in network")
    if source == sink:
        raise InvalidStructure("source and sink coincide")

    # unbounded iff some s-t path uses only infinite arcs
    seen = {source}
    queue = deque([source])
    inf_next: dict = {}
    for (u, v), cap in net.caps.items():
        if cap is None:
            inf_next.setdefault(u, []).append(v)
    while queue:
        u = queue.popleft()
        for v in inf_next.get(u, ()):
            if v not in seen:
                if v == sink:
                    raise InfiniteFlow("every cut separating the ends is infinite")
                seen.add(v)
                queue.append(v)

    finite = [cap for cap in net.caps.values() if cap is not None]
    scale = lcm(*(cap.denominator for cap in finite))
    big = sum(cap.numerator * (scale // cap.denominator) for cap in finite) + 1

    # arc 2k runs u -> v with residual res[2k]; arc 2k + 1 is its reverse
    index = {source: 0, sink: 1}
    out: list = [[], []]
    head: list = []
    res: list = []
    for (u, v), cap in net.caps.items():
        for w in (u, v):
            if w not in index:
                index[w] = len(out)
                out.append([])
        out[index[u]].append(len(head))
        head.append(index[v])
        res.append(big if cap is None else cap.numerator * (scale // cap.denominator))
        out[index[v]].append(len(head))
        head.append(index[u])
        res.append(0)

    total = 0
    while True:
        level = [-1] * len(out)
        level[0] = 0
        order = [0]
        for u in order:
            next_level = level[u] + 1
            for e in out[u]:
                v = head[e]
                if res[e] and level[v] < 0:
                    level[v] = next_level
                    order.append(v)
        if level[1] < 0:
            break
        # blocking flow: path holds the arcs from the source to node u, and
        # nxt[u] the first arc of u not yet known to be useless this phase
        nxt = [0] * len(out)
        path: list = []
        u = 0
        while True:
            if u == 1:
                push = min(res[e] for e in path)
                for e in path:
                    res[e] -= push
                    res[e ^ 1] += push
                total += push
                # resume from the tail of the first arc the push saturated
                del path[next(k for k, e in enumerate(path) if not res[e]) :]
                u = head[path[-1]] if path else 0
                continue
            arcs = out[u]
            k = nxt[u]
            next_level = level[u] + 1
            while k < len(arcs) and not (res[arcs[k]] and level[head[arcs[k]]] == next_level):
                k += 1
            nxt[u] = k
            if k < len(arcs):
                path.append(arcs[k])
                u = head[arcs[k]]
            elif path:
                u = head[path.pop() ^ 1]  # dead end: retreat and skip the arc
                nxt[u] += 1
            else:
                break

    cut = frozenset(w for w, i in index.items() if level[i] >= 0)
    return FlowResult(value=Fraction(total, scale), min_cut=cut)


def solve_msip(pip: Pip, x: dict, y: dict, lam) -> tuple:
    """Optimal stable ideal of a bipartite pip for the weighted separation
    objective.

    x and y give squared-coordinate weights on the two vertex classes (their
    key sets must partition the vertices).  Returns (ideal, objective) where
    objective = (1-lam)*sum(x_b^2 over b in U) + lam*sum(y_c^2 over c in U)
    is maximized; among optima the ideal with the setwise largest C-part
    (hence largest y-mass) and smallest B-part is returned.
    """
    lam = Fraction(lam)
    if lam < 0 or lam > 1:
        raise InvalidStructure(f"lambda {lam} outside [0, 1]")
    bs = {str(k) for k in x}
    cs = {str(k) for k in y}
    if bs & cs or bs | cs != set(pip.vertices):
        raise NotBipartitePip("x/y keys must partition the vertices")
    for u, v in pip.edges:
        if (u in bs) == (v in bs):
            raise NotBipartitePip(f"edge {u!r}-{v!r} stays on one side")
    covers = list(pip.order_covers())  # they generate the order, so they suffice
    for u, v in covers:
        if (u in bs) != (v in bs):
            raise NotBipartitePip(f"order relates {u!r} and {v!r} across sides")

    # lam = p/q and d = lcm of the squares' denominators: the objective times
    # q*d has integer weights (q-p)*d*x_b^2 and p*d*y_c^2
    p, q = lam.numerator, lam.denominator
    sq = {}
    for k, v in (*x.items(), *y.items()):
        num, den = Fraction(v).as_integer_ratio()
        sq[str(k)] = num * num, den * den
    d = lcm(*(den for _, den in sq.values()))
    w = {k: (p if k in cs else q - p) * num * (d // den) for k, (num, den) in sq.items()}

    src, snk = ("src",), ("snk",)
    net = FlowNetwork()
    net.add_node(src)
    net.add_node(snk)
    for b in sorted(bs):
        net.add_arc(src, ("v", b), w[b])
    for c in sorted(cs):
        net.add_arc(("v", c), snk, w[c])
    for u, v in pip.edges:
        b, c = (u, v) if u in bs else (v, u)
        net.add_arc(("v", b), ("v", c), None)
    # covers suffice: a set closed along every cover is closed along the order
    for u, v in covers:  # u < v, same side
        if v in bs:
            # B side: keeping v in the ideal forces keeping u
            net.add_arc(("v", v), ("v", u), None)
        else:
            # C side: dropping u from the ideal forces dropping v
            net.add_arc(("v", u), ("v", v), None)

    result = max_flow(net, src, snk)
    inside = {name for kind, *rest in result.min_cut if kind == "v" for name in rest}
    ideal = frozenset({b for b in bs if b in inside} | {c for c in cs if c not in inside})
    assert pip.is_ideal_mask(pip.mask_of(ideal)), "cut did not produce an ideal"
    assert pip.is_stable_mask(pip.mask_of(ideal)), "cut did not produce a stable set"
    return ideal, Fraction(sum(w[k] for k in ideal), q * d)
