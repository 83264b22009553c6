"""Exact maximum flow over rationals, and the bipartite separation solver.

Capacities are Fractions or None (infinite).  The min cut returned is the
residual-reachability cut, i.e. the one whose source side is inclusionwise
smallest among all minimum cuts; that choice is what makes downstream tie
handling deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

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
        """cap is a Fraction-like >= 0, or None for infinity; parallel arcs merge."""
        if u == v:
            raise InvalidStructure("self-loop arc")
        self.nodes.add(u)
        self.nodes.add(v)
        if cap is not None:
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
    flow: dict
    min_cut: frozenset  # source side, inclusionwise smallest


def max_flow(net: FlowNetwork, source, sink) -> FlowResult:
    """Edmonds-Karp in exact arithmetic.

    Raises InfiniteFlow when the sink is reachable through infinite arcs
    alone (exactly the condition for the max flow to be unbounded).
    """
    if source not in net.nodes or sink not in net.nodes:
        raise InvalidStructure("source/sink not in network")

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

    res: dict = {}
    adj: dict = {u: set() for u in net.nodes}
    for (u, v), cap in net.caps.items():
        res[(u, v)] = cap if cap is None else Fraction(cap)
        res.setdefault((v, u), Fraction(0))
        adj[u].add(v)
        adj[v].add(u)
    order = {u: sorted(adj[u], key=repr) for u in adj}

    flow: dict = {}
    value = Fraction(0)
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in order[u]:
                r = res[(u, v)]
                if v not in parent and (r is None or r > 0):
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            # the search ran dry: parent holds the residual-reachable side
            break
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = None
        for u, v in path:
            r = res[(u, v)]
            if r is not None and (bottleneck is None or r < bottleneck):
                bottleneck = r
        assert bottleneck is not None and bottleneck > 0
        for u, v in path:
            if res[(u, v)] is not None:
                res[(u, v)] -= bottleneck
            if res[(v, u)] is not None:
                res[(v, u)] += bottleneck
            flow[(u, v)] = flow.get((u, v), Fraction(0)) + bottleneck
            back = flow.get((v, u))
            if back:
                shift = min(back, flow[(u, v)])
                flow[(v, u)] -= shift
                flow[(u, v)] -= shift
        value += bottleneck

    flow = {k: f for k, f in flow.items() if f}
    return FlowResult(value=value, flow=flow, min_cut=frozenset(parent))


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
    for u, v in pip.order:
        if (u in bs) != (v in bs):
            raise NotBipartitePip(f"order relates {u!r} and {v!r} across sides")

    wx = {str(k): (1 - lam) * Fraction(v) * Fraction(v) for k, v in x.items()}
    wy = {str(k): lam * Fraction(v) * Fraction(v) for k, v in y.items()}

    src, snk = ("src",), ("snk",)
    net = FlowNetwork()
    net.add_node(src)
    net.add_node(snk)
    for b in sorted(bs):
        net.add_arc(src, ("v", b), wx[b])
    for c in sorted(cs):
        net.add_arc(("v", c), snk, wy[c])
    for u, v in pip.edges:
        b, c = (u, v) if u in bs else (v, u)
        net.add_arc(("v", b), ("v", c), None)
    for u, v in pip.order:  # u <= v, same side
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
    objective = sum((wx[b] for b in ideal if b in bs), Fraction(0)) + sum(
        (wy[c] for c in ideal if c in cs), Fraction(0)
    )
    return ideal, objective
