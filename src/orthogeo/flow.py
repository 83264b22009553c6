"""Exact maximum flow and minimum cut, and the bipartite separation solver.

`max_flow` takes a network on nodes 0..n-1 (source 0, sink 1) as a list of
arcs whose capacities are non-negative ints or None (infinite), and runs
Dinic's blocking-flow algorithm (Dinic 1970) on integers; infinite arcs get
a finite stand-in too large for any minimum cut.  The min cut returned is the
residual-reachability cut, i.e. the one whose source side is inclusionwise
smallest among all minimum cuts.  That cut is unique, whatever maximum flow
is found, which is what makes downstream tie handling deterministic.

`solve_msip` finds the stable ideal U of a bipartite pip (sides B and C)
that maximizes (1-lam)*x(U & B) + lam*y(U & C), where x and y sum squared
coordinates.  The network has an arc source -> b of capacity (1-lam)*x_b^2,
an arc c -> sink of capacity lam*y_c^2, and infinite arcs b -> c for the
edges, v -> u for B covers u < v and u -> v for C covers; a source side S
stands for U = (S & B) | (C - S), and its cut costs the objective's total
minus the objective of U.  A `Separation` does the checks, the squaring
over one common denominator and the infinite-arc lists once; each solve
then builds only the part of the network that its bracket leaves open.

The bracket.  Write S_lam for the source-minimal minimum cut at lam, and
<= for inclusion.  For lam1 < lam2 the source capacities fall and the sink
capacities rise, so the cost difference d(S) = c_lam2(S) - c_lam1(S) is
nondecreasing in S over the finite cuts (which & and | keep finite).  Let A be any minimum cut at lam1 and S = S_lam2.
Submodularity of the cut function gives
    c_lam1(A & S) <= c_lam1(A) + c_lam1(S) - c_lam1(A | S) <= c_lam1(S),
hence c_lam2(A & S) = c_lam1(A & S) + d(A & S) <= c_lam1(S) + d(S) =
c_lam2(S).  So A & S is a minimum cut at lam2, and as S is the smallest
one, S <= A.

The median engine's quickhull probes lam between two hull points lo and hi
that earlier probes (or the ends, lam = 0 and 1) returned as optima at some
lam_lo and lam_hi, hi as the source-minimal one.  As lam is the normal of
the chord from lo to hi, lo maximizing the functional of lam_lo means
lam_lo <= lam, and likewise lam <= lam_hi.  So S_hi <= S_lam <= S_lo:
- the B vertices in hi's ideal and the C vertices outside it lie in S_lam,
  and merge into the source;
- the B vertices outside lo's ideal and the C vertices inside it lie
  outside S_lam, and merge into the sink;
- only B & (lo - hi) and C & (hi - lo) stay nodes.
An infinite arc from a source-merged vertex becomes one from the source,
an infinite arc into a sink-merged vertex one into the sink.  The minimum
cuts of the contracted network are exactly the minimum cuts of the whole
one that respect the merge, and S_lam is among them.  Being the smallest
of all minimum cuts, it is the smallest of these, so the solve returns the
same ideal as the whole network would, ties included.

The memo.  A `Separation` keeps what its solves returned: each cut mask
that passed the ideal and stable checks, with the (ideal, masses) it was
returned as, and each ideal seen as an end or a result, with its mask.  The
ideal and its masses are functions of the mask alone, so a mask met again
needs neither the checks nor the sums: they would pass and give the same
answer.  Only a checked mask is ever kept, so a cut that is no stable ideal
is still rejected, however many solves came before.  A quickhull probe
that only confirms a hull edge returns one of its chord's ends again, so
its cut is a mask already checked: about half of the probes on the
benchmark's sparse pips.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InfiniteFlow, InvalidStructure, NotBipartitePip
from .poset import Pip


def max_flow(n: int, arcs) -> tuple:
    """Maximum flow value and source-minimal minimum cut of an integer
    network, exactly.

    The nodes are 0..n-1, the source 0 and the sink 1.  `arcs` is a list of
    (u, v, cap) triples, cap an int >= 0 or None for an infinite arc;
    parallel arcs add up.  Returns (value, cut), cut the bitmask of the
    source side.

    Raises InfiniteFlow when the sink is reachable through infinite arcs
    alone (exactly the condition for the max flow to be unbounded).

    Otherwise each infinite arc gets the capacity (sum of the finite
    capacities) + 1.  That stand-in is safe: the nodes reachable from the
    source along infinite arcs form a cut of finite arcs only, costing at
    most the sum, so a cut through a stand-in arc is never minimum; and no
    flow exceeds the sum, so no stand-in arc is ever saturated.  The
    minimum cuts are those of the true network.

    Dinic's algorithm then alternates a BFS level graph with a blocking flow
    found by an iterative depth-first search, so no path is too long for
    the recursion limit.  The cut returned is the set of nodes still
    reachable from the source in the final residual graph.  Every minimum
    cut's source side contains it, and it is a minimum cut itself, so it is
    the intersection of all minimum cuts: unique, whichever maximum flow the
    search found.
    """
    inf_next: list = [[] for _ in range(n)]
    big = 1
    for u, v, cap in arcs:
        if cap is None:
            inf_next[u].append(v)
        elif cap < 0:
            raise InvalidStructure(f"negative capacity on {u}->{v}")
        else:
            big += cap

    # unbounded iff some s-t path uses only infinite arcs
    seen = [False] * n
    seen[0] = True
    reach = [0]
    for u in reach:
        for v in inf_next[u]:
            if not seen[v]:
                if v == 1:
                    raise InfiniteFlow("every cut separating the ends is infinite")
                seen[v] = True
                reach.append(v)

    # arc 2k runs u -> v with residual res[2k]; arc 2k + 1 is its reverse
    out: list = [[] for _ in range(n)]
    head: list = []
    res: list = []
    for u, v, cap in arcs:
        out[u].append(len(head))
        head.append(v)
        res.append(big if cap is None else cap)
        out[v].append(len(head))
        head.append(u)
        res.append(0)

    total = 0
    while True:
        level = [-1] * n
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
        nxt = [0] * n
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
            arcs_u = out[u]
            k = nxt[u]
            next_level = level[u] + 1
            while k < len(arcs_u) and not (res[arcs_u[k]] and level[head[arcs_u[k]]] == next_level):
                k += 1
            nxt[u] = k
            if k < len(arcs_u):
                path.append(arcs_u[k])
                u = head[arcs_u[k]]
            elif path:
                u = head[path.pop() ^ 1]  # dead end: retreat and skip the arc
                nxt[u] += 1
            else:
                break

    # the last BFS leveled exactly the nodes reachable in the residual graph
    cut = 0
    for u in order:
        cut |= 1 << u
    return total, cut


class Separation:
    """The separation problem of a bipartite pip with weights x on one side
    (B) and y on the other (C), checked and prepared once for any number of
    `solve_msip` calls.

    The key sets of x and y must partition the vertices, every edge must
    cross the sides and no order pair may.  The squared weights are kept as
    integers over one common denominator, and every vertex keeps the masks
    of the heads and tails of its infinite arcs.  The solves' results are
    memoized here (see the module docstring).
    """

    def __init__(self, pip: Pip, x: dict, y: dict):
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

        index = pip.index
        self.pip = pip
        self.bmask = pip.mask_of(bs)
        self.cmask = pip.mask_of(cs)
        # squares num^2 / den^2 over d = lcm of the den^2, as integers
        ratios = [(0, 1)] * len(index)
        for k, v in (*x.items(), *y.items()):
            num, den = Fraction(v).as_integer_ratio()
            ratios[index[str(k)]] = num * num, den * den
        # lcm gets a list, never a generator: CPython unpacks an iterator of
        # unknown length into a 10-slot tuple cut down to size, so each call
        # would park one more small tuple in the interpreter's free lists
        self.denominator = d = lcm(*[den for _, den in ratios])
        self.sq = [num * (d // den) for num, den in ratios]
        # an edge runs b -> c; a set closed along every cover is closed along
        # the order: v -> u for B covers u < v (keeping v keeps u), u -> v for
        # C covers (dropping u drops v)
        self.arcs_out = out = [0] * len(index)
        self.arcs_in = into = [0] * len(index)
        for u, v in pip.edges:
            b, c = (u, v) if u in bs else (v, u)
            out[index[b]] |= 1 << index[c]
            into[index[c]] |= 1 << index[b]
        for u, v in covers:
            tail, head = (v, u) if v in bs else (u, v)
            out[index[tail]] |= 1 << index[head]
            into[index[head]] |= 1 << index[tail]
        # the memo (see the module docstring): checked mask -> (ideal,
        # masses), and frozenset ideal -> (mask, mass_nums)
        self._results = {}
        self._ideals = {}

    def masses(self, ideal) -> tuple:
        """(x(ideal & B), y(ideal & C)): the squared weights on each side."""
        s1, s2 = self.mass_nums(ideal)
        return Fraction(s1, self.denominator), Fraction(s2, self.denominator)

    def mass_nums(self, ideal) -> tuple:
        """masses() as integer numerators over self.denominator."""
        return self._entry(ideal)[1]

    def _entry(self, ideal) -> tuple:
        """(mask, mass_nums) of an ideal given by its names, kept under its
        frozenset, the type that solve_msip returns."""
        ideal = frozenset(ideal)
        entry = self._ideals.get(ideal)
        if entry is None:
            entry = self._ideals[ideal] = self._mask_entry(self.pip.mask_of(ideal))
        return entry

    def _mask_entry(self, mask) -> tuple:
        """(mask, mass_nums) of an ideal given as a bitmask."""
        bm, sq = self.bmask, self.sq
        s1 = s2 = 0
        rest = mask
        while rest:
            low = rest & -rest
            if bm & low:
                s1 += sq[low.bit_length() - 1]
            else:
                s2 += sq[low.bit_length() - 1]
            rest ^= low
        return mask, (s1, s2)


def solve_msip(sep: Separation, lam, lo=None, hi=None) -> tuple:
    """Optimal stable ideal of a bipartite pip for the weighted separation
    objective.

    Returns (ideal, masses): the ideal U maximizes the objective
    (1-lam)*sum(x_b^2 over b in U) + lam*sum(y_c^2 over c in U), and masses
    are its two sums (see Separation.masses).  Among optima the ideal with
    the setwise largest C-part (hence largest y-mass) and smallest B-part is
    returned.

    lo and hi bracket lam: ideals optimal at some lam_lo and lam_hi with
    lam_lo <= lam <= lam_hi, hi the one this solve returns at lam_hi (see
    the module docstring).  The vertices they settle are merged into the
    source and the sink, and the answer is the same as with no bracket.
    They default to the ideals of lam = 0 and 1 (all of B, all of C), which
    settle nothing.
    """
    if not isinstance(lam, Fraction):
        lam = Fraction(lam)
    # lam = p/q with q > 0
    p, q = lam.numerator, lam.denominator
    if p < 0 or p > q:
        raise InvalidStructure(f"lambda {lam} outside [0, 1]")
    bm, cm = sep.bmask, sep.cmask
    lo = bm if lo is None else sep._entry(lo)[0]
    hi = cm if hi is None else sep._entry(hi)[0]
    src = bm & hi | cm & ~hi
    snk = bm & ~lo | cm & lo
    if src & snk:
        raise InvalidStructure("bracket ideals are not nested")
    open_ = (bm | cm) & ~(src | snk)

    # the objective times q*d has integer weights (q-p)*sq_b, p*sq_c
    sq, out, into = sep.sq, sep.arcs_out, sep.arcs_in
    # the open vertices are nodes 2, 3, ...; the source is 0, the sink 1
    node = {}
    rest = open_
    while rest:
        low = rest & -rest
        node[low.bit_length() - 1] = len(node) + 2
        rest ^= low
    arcs = []
    for k, v in node.items():
        if bm >> k & 1:
            arcs.append((0, v, (q - p) * sq[k]))
        else:
            arcs.append((v, 1, p * sq[k]))
        rest = out[k] & open_
        while rest:
            low = rest & -rest
            arcs.append((v, node[low.bit_length() - 1], None))
            rest ^= low
        if out[k] & snk:
            arcs.append((v, 1, None))
        if into[k] & src:
            arcs.append((0, v, None))
    # infinite arcs between two settled vertices are dropped: one from the
    # source side to the sink side means the bracket was no pair of cuts,
    # and the ideal below then fails its checks

    cut = max_flow(len(node) + 2, arcs)[1]
    mask = bm & hi | cm & lo
    for k, v in node.items():
        if (cut >> v & 1) == (bm >> k & 1):
            mask |= 1 << k
    result = sep._results.get(mask)
    if result is not None:
        return result
    pip = sep.pip
    if not pip.is_ideal_mask(mask):
        raise InvalidStructure("cut did not produce an ideal")
    if not pip.is_stable_mask(mask):
        raise InvalidStructure("cut did not produce a stable set")
    ideal = pip.names_of(mask)
    sep._ideals[ideal] = sep._mask_entry(mask)
    result = sep._results[mask] = ideal, sep.masses(ideal)
    return result
