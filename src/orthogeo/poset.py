"""Finite graded posets, poset-incidence graphs, and their combinatorics.

Order data lives in per-element bitmasks over element indices, so comparisons,
meets and joins are word operations.  Element ids are strings throughout the
public surface; indices stay internal.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .errors import (
    CycleError,
    InvalidStructure,
    NotGraded,
    NotMedian,
    NotModularSemilattice,
    SizeCap,
    UnknownElement,
)

DEFAULT_SIZE_CAP = 10**6


def size_cap() -> int:
    raw = os.environ.get("ORTHOGEO_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        return int(raw)
    except ValueError:
        raise InvalidStructure(f"ORTHOGEO_SIZE_CAP is not an integer: {raw!r}")


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(succ):
    """Topological order and reflexive up/down masks of the order generated
    by successor lists (no repeats within a list): one Kahn pass, then one
    pass each way.  None when the relation has a cycle."""
    n = len(succ)
    indeg = [0] * n
    for nxt in succ:
        for w in nxt:
            indeg[w] += 1
    order = [v for v in range(n) if not indeg[v]]
    for v in order:  # the list grows while it is walked
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    if len(order) != n:
        return None
    up = [1 << v for v in range(n)]
    for v in reversed(order):
        for w in succ[v]:
            up[v] |= up[w]
    down = [1 << v for v in range(n)]
    for v in order:
        for w in succ[v]:
            down[w] |= down[v]
    return order, up, down


class _Order:
    """Names, indices and masks of a finite order, shared by GradedPoset and
    Pip: ids in input order, their index, and the reflexive up-set mask
    `_up` of each index, which the subclass constructor fills in.  `_noun`
    names a member in error messages."""

    _noun = "element"

    def _set_ids(self, names):
        ids = [str(e) for e in names]
        if len(set(ids)) != len(ids):
            raise InvalidStructure(f"duplicate {self._noun} ids")
        self.ids = tuple(ids)
        self.index = {e: i for i, e in enumerate(ids)}
        self._n = len(ids)
        return ids

    def __len__(self):
        return self._n

    def _i(self, p):
        try:
            return self.index[p]
        except KeyError:
            raise UnknownElement(f"unknown {self._noun} id {p!r}") from None

    def leq(self, p, q):
        return bool(self._up[self._i(p)] >> self._i(q) & 1)

    def mask_of(self, names):
        m = 0
        for e in names:
            m |= 1 << self._i(e)
        return m

    def names_of(self, mask):
        # frozen from a set, which sizes the table to fit, where names added
        # one by one would leave it up to twice as large; arches keep these
        return frozenset({self.ids[k] for k in _bits(mask)})

    def _order_pairs(self, mask):
        """The pairs (u, v) of ids with u < v among the members of a mask,
        which generate the order that the mask induces."""
        ids, up = self.ids, self._up
        return [(ids[i], ids[j]) for i in _bits(mask) if (above := up[i] & mask & ~(1 << i)) for j in _bits(above)]


class GradedPoset(_Order):
    """A finite graded poset described by its elements and cover pairs.

    Rank is the longest-path layering from the minimal elements; construction
    rejects cyclic cover data (CycleError) and covers that skip a rank level
    (NotGraded).
    """

    def __init__(self, elements, covers):
        ids = self._set_ids(elements)
        n = self._n
        cov = set()
        for lo, hi in covers:
            lo, hi = str(lo), str(hi)
            if lo not in self.index:
                raise UnknownElement(f"cover references unknown id {lo!r}")
            if hi not in self.index:
                raise UnknownElement(f"cover references unknown id {hi!r}")
            if lo == hi:
                raise CycleError(f"self-cover at {lo!r}")
            cov.add((self.index[lo], self.index[hi]))
        up_adj = [[] for _ in range(n)]
        dn_adj = [[] for _ in range(n)]
        for lo, hi in sorted(cov):
            up_adj[lo].append(hi)
            dn_adj[hi].append(lo)

        closure = _closure(up_adj)
        if closure is None:
            raise CycleError("cover relation contains a cycle")
        order, up, down = closure

        rank = [0] * n
        for v in order:
            for w in up_adj[v]:
                if rank[v] + 1 > rank[w]:
                    rank[w] = rank[v] + 1
        for lo, hi in cov:
            if rank[hi] != rank[lo] + 1:
                raise NotGraded(
                    f"cover {self.ids[lo]!r} -> {self.ids[hi]!r} does not raise rank by one"
                )

        levels = [0] * (max(rank, default=-1) + 1)
        for i, r in enumerate(rank):
            levels[r] |= 1 << i

        self._all = (1 << n) - 1
        self._rank = rank
        self._levels = levels  # mask of the elements of each rank
        self._up = up
        self._down = down
        # cover neighbour lists sorted by id so greedy chain extension is
        # deterministic
        self._up_adj = [sorted(lst, key=lambda t: ids[t]) for lst in up_adj]
        self._dn_adj = [sorted(lst, key=lambda t: ids[t]) for lst in dn_adj]
        self._cover_pairs = tuple(sorted((ids[a], ids[b]) for a, b in cov))
        minimals = [i for i in range(n) if not dn_adj[i]]
        maximals = [i for i in range(n) if not up_adj[i]]
        self._minimals = minimals
        self._maximals = maximals
        self.bottom = ids[minimals[0]] if len(minimals) == 1 else None
        self.top = ids[maximals[0]] if len(maximals) == 1 else None
        self._flags = {}  # classify's flags, computed on demand

    # -- basic queries ----------------------------------------------------

    def __contains__(self, p):
        return p in self.index

    @property
    def elements(self):
        return self.ids

    @property
    def covers(self):
        return self._cover_pairs

    def rank_of(self, p):
        return self._rank[self._i(p)]

    def _leq_i(self, i, j):
        return bool(self._up[i] >> j & 1)

    def _meet_i(self, i, j):
        """Index of the meet, or None.  Only the highest rank level that the
        common lower bounds reach can hold the meet; an element there is the
        meet exactly when it lies above every common lower bound."""
        down, levels = self._down, self._levels
        common = down[i] & down[j]
        if not common:
            return None
        r = min(self._rank[i], self._rank[j])
        while not common & levels[r]:
            r -= 1
        k = (common & levels[r]).bit_length() - 1
        return k if down[k] & common == common else None

    def _join_i(self, i, j):
        """Index of the join, or None; _meet_i upside down."""
        up, levels = self._up, self._levels
        common = up[i] & up[j]
        if not common:
            return None
        r = max(self._rank[i], self._rank[j])
        while not common & levels[r]:
            r += 1
        k = (common & levels[r]).bit_length() - 1
        return k if up[k] & common == common else None

    def meet(self, p, q):
        """Greatest lower bound, or None when the two have none."""
        k = self._meet_i(self._i(p), self._i(q))
        return None if k is None else self.ids[k]

    def join(self, p, q):
        k = self._join_i(self._i(p), self._i(q))
        return None if k is None else self.ids[k]

    def covers_down(self, p):
        return [self.ids[k] for k in self._dn_adj[self._i(p)]]

    def maximal_chains(self):
        """All maximal chains, as tuples of ids from a minimal element up."""
        out = []
        for start in sorted(self._minimals, key=lambda k: self.ids[k]):
            stack = [(start, (start,))]
            while stack:
                v, chain = stack.pop()
                succ = self._up_adj[v]
                if not succ:
                    out.append(tuple(self.ids[k] for k in chain))
                else:
                    for w in reversed(succ):
                        stack.append((w, chain + (w,)))
        return out


# -- classification -------------------------------------------------------

FLAGS = (
    "graded",
    "meet_semilattice",
    "lattice",
    "modular",
    "distributive",
    "boolean",
    "modular_semilattice",
    "median_semilattice",
    "boolean_semilattice",
)


def classify(poset: GradedPoset, flag: str | None = None):
    """Structural flags for a graded poset: the named flag as a bool, or
    every flag of FLAGS as a dict.

    Lattice-level flags (modular/distributive/boolean) are False whenever the
    poset is not a lattice; the *_semilattice flags ask for a meet-semilattice
    whose principal ideals have the named property and whose pairwise-bounded
    triples are bounded.  A flag is computed when first asked for, from
    cover and bitmask conditions over at most all pairs, and cached on the
    poset.
    """
    if flag is None:
        return {name: _flag(poset, name) for name in FLAGS}
    if flag not in FLAGS:
        raise InvalidStructure(f"unknown classify flag {flag!r}")
    return _flag(poset, flag)


def _flag(poset, name):
    cache = poset._flags
    if name not in cache:
        n = poset._n
        limit = size_cap()
        if n * n > limit:
            raise SizeCap(f"classify scans {n}x{n} element pairs, over cap {limit}")
        cache[name] = _RULES[name](poset)
    return cache[name]


def _incomparable_pairs(poset, members, within=None):
    """Pairs i < j of incomparable members (a mask over element indices),
    j restricted to within[i]."""
    up, down = poset._up, poset._down
    for i in _bits(members):
        rest = (members & ~(up[i] | down[i])) >> (i + 1) << (i + 1)
        if within is not None:
            rest &= within[i]
        for j in _bits(rest):
            yield i, j


def _reach(poset):
    """reach[i]: the elements bounded with i, that is, below something
    above i."""
    reach = list(poset._down)
    for i in sorted(range(poset._n), key=poset._rank.__getitem__, reverse=True):
        for w in poset._up_adj[i]:
            reach[i] |= reach[w]
    return reach


def _meet_semilattice(poset):
    # comparable pairs meet in their lower element
    return poset.bottom is not None and all(
        poset._meet_i(i, j) is not None for i, j in _incomparable_pairs(poset, poset._all)
    )


def _bounded_triples(poset):
    """Pairwise-bounded triples are bounded.  In a meet-semilattice a bounded
    pair i, j has a join, and k bounds a triple with them exactly when it is
    bounded with i∨j."""
    if not _flag(poset, "meet_semilattice"):
        return False
    if poset.top is not None:
        return True
    reach = _reach(poset)
    return all(
        not reach[i] & reach[j] & ~reach[poset._join_i(i, j)]
        for i, j in _incomparable_pairs(poset, poset._all, reach)
    )


def _semilattice(poset):
    return _flag(poset, "meet_semilattice") and _flag(poset, "_bounded_triples")


def _cover_pairs(adj):
    for lst in adj:
        for x, a in enumerate(lst):
            for b in lst[x + 1 :]:
                yield a, b


def _modular_semilattice(poset):
    """Each principal ideal is a finite lattice, and such a lattice is
    modular exactly when it is upper and lower semimodular on covers: two
    bounded upper covers of c join at rank r(c)+2, and two lower covers of d
    meet at rank r(d)-2."""
    if not _semilattice(poset):
        return False
    up, down, rank, levels = poset._up, poset._down, poset._rank, poset._levels
    for a, b in _cover_pairs(poset._up_adj):
        common = up[a] & up[b]
        if common and not common & levels[rank[a] + 1]:
            return False
    # with one bottom, two lower covers of d sit at rank r(d)-1 >= 1
    return all(
        down[a] & down[b] & levels[rank[a] - 1] for a, b in _cover_pairs(poset._dn_adj)
    )


def _join_irreducibles(poset, members):
    """Mask of the members with exactly one lower cover inside members.
    Such a cover sits one rank below when the covers inside members are
    covers of the poset, which holds for the whole poset, the only member
    set that classify asks about."""
    down, rank, levels = poset._down, poset._rank, poset._levels
    out = 0
    for e in _bits(members):
        if rank[e] and (down[e] & members & levels[rank[e] - 1]).bit_count() == 1:
            out |= 1 << e
    return out


def _join_prime_breach(poset, jmask, pairs):
    """The first pair (i, j) with J(i∨j) ≠ J(i) ∪ J(j), J(x) being the
    members of jmask below x, or None.  A finite lattice is distributive
    exactly when its join-irreducibles are join-prime (Davey and Priestley,
    Introduction to Lattices and Order, Thm 5.12), and comparable pairs
    always pass, so its incomparable pairs are enough.  Every pair must have
    a join."""
    down = poset._down
    for i, j in pairs:
        if down[poset._join_i(i, j)] & jmask != (down[i] | down[j]) & jmask:
            return i, j
    return None


def _median_semilattice(poset):
    """Each principal ideal is distributive: the join-prime law on the
    bounded pairs."""
    if not _semilattice(poset):
        return False
    jmask = _join_irreducibles(poset, poset._all)
    pairs = _incomparable_pairs(poset, poset._all, _reach(poset))
    return _join_prime_breach(poset, jmask, pairs) is None


def _boolean_semilattice(poset):
    """A distributive lattice is boolean exactly when its join-irreducibles
    are atoms."""
    rank = poset._rank
    return _flag(poset, "median_semilattice") and all(
        rank[i] == 1 for i in _bits(_join_irreducibles(poset, poset._all))
    )


def _lattice(poset):
    # in a finite meet-semilattice a pair with an upper bound has a join
    return poset.top is not None and _flag(poset, "meet_semilattice")


_RULES = {
    "graded": lambda poset: True,
    "meet_semilattice": _meet_semilattice,
    "_bounded_triples": _bounded_triples,
    "lattice": _lattice,
    "modular": lambda poset: _flag(poset, "lattice") and _flag(poset, "modular_semilattice"),
    "distributive": lambda poset: _flag(poset, "lattice") and _flag(poset, "median_semilattice"),
    "boolean": lambda poset: _flag(poset, "lattice") and _flag(poset, "boolean_semilattice"),
    "modular_semilattice": _modular_semilattice,
    "median_semilattice": _median_semilattice,
    "boolean_semilattice": _boolean_semilattice,
}


# -- chains ---------------------------------------------------------------


def dedup_chain(seq):
    """Collapse consecutive repeats in a monotone sequence."""
    out = []
    for e in seq:
        if not out or out[-1] != e:
            out.append(e)
    return tuple(out)


def extend_to_maximal_chain(poset: GradedPoset, elems, lo, hi):
    """Grow a chain inside [lo, hi] into a maximal one through the given
    elements, taking the lexicographically smallest cover at every free step.
    """
    ilo, ihi = poset._i(lo), poset._i(hi)
    if not poset._leq_i(ilo, ihi):
        raise InvalidStructure(f"empty interval [{lo!r}, {hi!r}]")
    targets = sorted({poset._i(e) for e in elems}, key=lambda k: poset._rank[k])
    for t in targets:
        if not (poset._leq_i(ilo, t) and poset._leq_i(t, ihi)):
            raise InvalidStructure(f"{poset.ids[t]!r} is not inside [{lo!r}, {hi!r}]")
    for a, b in zip(targets, targets[1:]):
        if not poset._leq_i(a, b):
            raise InvalidStructure(
                f"{poset.ids[a]!r} and {poset.ids[b]!r} are incomparable; not a chain"
            )
    chain = [ilo]
    for t in targets + [ihi]:
        while chain[-1] != t:
            cur = chain[-1]
            step = None
            for w in poset._up_adj[cur]:
                if poset._leq_i(w, t):
                    step = w
                    break
            if step is None:  # pragma: no cover - covers of a graded interval
                raise InvalidStructure("interval has a gap; poset covers inconsistent")
            chain.append(step)
    return tuple(poset.ids[k] for k in chain)


# -- projections and the metric interval ----------------------------------


def omega(poset: GradedPoset, a: str, p: str) -> str:
    """The largest element below p whose join with a exists.

    Once classify has found the host to be a meet-semilattice, a join
    exists exactly when a common upper bound does (the meet of all of them
    is the join), which is one mask test; otherwise each join is sought."""
    ia, ip = poset._i(a), poset._i(p)
    up = poset._up
    cand = 0
    if poset._flags.get("meet_semilattice"):
        upa = up[ia]
        for u in _bits(poset._down[ip]):
            if up[u] & upa:
                cand |= 1 << u
    else:
        for u in _bits(poset._down[ip]):
            if poset._join_i(u, ia) is not None:
                cand |= 1 << u
    best = None
    for u in sorted(_bits(cand), key=lambda k: -poset._rank[k]):
        if poset._down[u] & cand == cand:
            best = u
            break
    if best is None:
        raise NotModularSemilattice(
            f"elements below {p!r} joinable with {a!r} have no greatest member"
        )
    return poset.ids[best]


class MetricInterval(
    namedtuple("MetricInterval", ["p", "q", "base", "omega_p", "omega_q", "elements"])
):
    """The join-closure of the two segments between p∧q and p, q.  omega_p
    is the largest element below p joinable with q, omega_q likewise; `in`
    asks the elements, not the fields."""

    __slots__ = ()

    def __contains__(self, u):
        return u in self.elements


def metric_interval(poset: GradedPoset, p: str, q: str) -> MetricInterval:
    """The joins b∨c of every b in [p∧q, p] and c in [p∧q, q] that exist,
    sorted by (rank, id)."""
    ip, iq = poset._i(p), poset._i(q)
    m = poset._meet_i(ip, iq)
    if m is None:
        raise NotModularSemilattice(f"{p!r} and {q!r} have no meet")
    above_m = poset._up[m]
    side_q = list(_bits(above_m & poset._down[iq]))
    members = 0
    for b in _bits(above_m & poset._down[ip]):
        for c in side_q:
            u = poset._join_i(b, c)
            if u is not None:
                members |= 1 << u
    ids, rank = poset.ids, poset._rank
    order = sorted(_bits(members), key=lambda k: (rank[k], ids[k]))
    return MetricInterval(
        p=p,
        q=q,
        base=ids[m],
        omega_p=omega(poset, q, p),
        omega_q=omega(poset, p, q),
        elements=tuple(ids[k] for k in order),
    )


# -- poset-incidence graphs ------------------------------------------------


class Pip(_Order):
    """A graph whose vertices carry a partial order, with edges closed
    under going up on either endpoint: uv an edge and u <= u' forces u'v.

    order_pairs may be any pairs that generate the order; pairs (u, u) are
    ignored and a cycle is rejected.  The order lives only in per-vertex
    bitmasks (above, below, upper covers).  A plain graph is the special
    case with the trivial order.
    """

    _noun = "vertex"

    def __init__(self, vertices, edges, order_pairs=()):
        self._set_ids(vertices)
        n = self._n

        adj = [0] * n
        eset = set()
        for u, v in edges:
            u, v = str(u), str(v)
            if u not in self.index or v not in self.index:
                raise UnknownElement(f"edge references unknown vertex: {u!r}, {v!r}")
            if u == v:
                raise InvalidStructure(f"self-edge at {u!r}")
            i, j = self.index[u], self.index[v]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            eset.add((min(u, v), max(u, v)))

        succ = [set() for _ in range(n)]
        for u, v in order_pairs:
            u, v = str(u), str(v)
            if u not in self.index or v not in self.index:
                raise UnknownElement(f"order references unknown vertex: {u!r}, {v!r}")
            if u != v:
                succ[self.index[u]].add(self.index[v])
        closure = _closure(succ)
        if closure is None:
            raise InvalidStructure("order relation contains a cycle")
        _, up, down = closure
        # a successor is a cover unless it lies above another successor
        covers = [sum(1 << j for j in nxt) for nxt in succ]
        for i, nxt in enumerate(succ):
            for j in nxt:
                covers[i] &= ~up[j] | 1 << j

        for i in range(n):
            for j in _bits(adj[i]):
                if up[i] >> j & 1 or up[j] >> i & 1:
                    raise InvalidStructure(
                        f"edge {self.ids[i]!r}-{self.ids[j]!r} joins comparable vertices"
                    )
                # closure: everything above i must also see j
                if up[i] & ~adj[j]:
                    k = next(_bits(up[i] & ~adj[j]))
                    raise InvalidStructure(
                        f"missing edge {self.ids[k]!r}-{self.ids[j]!r}: edges must "
                        f"persist upward from {self.ids[i]!r}"
                    )

        self._adj = adj
        self._up = up
        self._down = down
        self._covers = covers
        self.edges = tuple(sorted(eset))

    @property
    def vertices(self):
        return self.ids

    def has_edge(self, u, v):
        return bool(self._adj[self._i(u)] >> self._i(v) & 1)

    def is_stable_mask(self, mask):
        adj, rest = self._adj, mask
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & mask:
                return False
            rest ^= low
        return True

    def is_ideal_mask(self, mask):
        down, rest = self._down, mask
        while rest:
            low = rest & -rest
            if down[low.bit_length() - 1] & ~mask:
                return False
            rest ^= low
        return True

    def order_covers(self):
        """The cover pairs (u, v) of the order: u < v, nothing strictly between."""
        for i, m in enumerate(self._covers):
            for j in _bits(m):
                yield self.ids[i], self.ids[j]

    def order_pair_count(self):
        """How many pairs u < v the order has."""
        return sum(bin(m).count("1") for m in self._up) - self._n

    def restrict(self, names):
        """Sub-pip induced on any vertex subset: the kept vertices with the
        order and the edges among them.  Edges persist upward inside every
        subset, so the result is a pip whether or not the subset is an ideal."""
        keep = set(names)
        verts = [v for v in self.ids if v in keep]
        edges = [(u, v) for u, v in self.edges if u in keep and v in keep]
        return Pip(verts, edges, self._order_pairs(self.mask_of(verts)))


def ideal_name(names) -> str:
    return "{" + ",".join(sorted(names)) + "}"


def parse_ideal_name(s: str):
    s = s.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise InvalidStructure(f"not a vertex-set id: {s!r}")
    inner = s[1:-1].strip()
    if not inner:
        return frozenset()
    return frozenset(part.strip() for part in inner.split(","))


def stable_ideals(pip: Pip) -> GradedPoset:
    """The inclusion order on stable ideals of a pip, as a graded poset.

    Element ids are "{a,b,c}" strings; the poset carries an `ideal_sets`
    attribute mapping each id back to its vertex set.  The ideal count is
    bounded by ORTHOGEO_SIZE_CAP.
    """
    limit = size_cap()
    n = pip._n
    seen = {0}
    frontier = [0]
    covers = []
    while frontier:
        nxt = []
        for mask in frontier:
            for v in range(n):
                if mask >> v & 1:
                    continue
                if pip._down[v] & ~mask & ~(1 << v):
                    continue
                if pip._adj[v] & mask:
                    continue
                m2 = mask | 1 << v
                covers.append((mask, m2))
                if m2 not in seen:
                    seen.add(m2)
                    if len(seen) > limit:
                        raise SizeCap(
                            f"stable ideal count exceeds cap {limit}"
                        )
                    nxt.append(m2)
        frontier = nxt
    masks = sorted(seen, key=lambda m: (bin(m).count("1"), ideal_name(pip.names_of(m))))
    name = {m: ideal_name(pip.names_of(m)) for m in masks}
    poset = GradedPoset(
        [name[m] for m in masks],
        sorted({(name[a], name[b]) for a, b in covers}),
    )
    poset.ideal_sets = {name[m]: pip.names_of(m) for m in masks}
    return poset


def incidence_pip(poset: GradedPoset, elems) -> Pip:
    """Pip on some elements of a poset: the induced order, and an edge for
    each pair with no join (comparable pairs always have one)."""
    ids = poset.ids
    members = poset.mask_of(elems)
    edges = [
        (ids[i], ids[j])
        for i, j in _incomparable_pairs(poset, members)
        if poset._join_i(i, j) is None
    ]
    return Pip(elems, edges, poset._order_pairs(members))


BirkhoffResult = namedtuple("BirkhoffResult", ["pip", "to_ideal", "from_ideal"])


def birkhoff(poset: GradedPoset) -> BirkhoffResult:
    """Represent a median semilattice by its join-irreducibles.

    Vertices of the resulting pip are the join-irreducible elements with the
    induced order; two of them get an edge exactly when their join does not
    exist.  Elements correspond to stable ideals via p -> {v : v <= p}.
    """
    if not classify(poset, "median_semilattice"):
        raise NotMedian("host is not a median semilattice")
    jis = [e for e in poset.ids if len(poset.covers_down(e)) == 1]
    jis.sort()
    pip = incidence_pip(poset, jis)
    to_ideal = {
        p: frozenset(v for v in jis if poset.leq(v, p)) for p in poset.ids
    }
    from_ideal = {}
    for p, s in to_ideal.items():
        if s in from_ideal:
            raise NotMedian(
                f"join-irreducibles below {p!r} and {from_ideal[s]!r} coincide"
            )
        from_ideal[s] = p
    return BirkhoffResult(pip=pip, to_ideal=to_ideal, from_ideal=from_ideal)


# -- gated boolean subsets of a graph --------------------------------------


def boolean_gated_sets(graph: Pip) -> GradedPoset:
    """Vertex sets of a connected graph that are closed under common
    neighbours and have square witnesses for their distance-2 pairs, ordered
    by reverse inclusion.  The scan of all 2^n vertex subsets is bounded by
    ORTHOGEO_SIZE_CAP.
    """
    n = graph._n
    if n == 0:
        raise InvalidStructure("empty graph")
    limit = size_cap()
    if 1 << n > limit:
        raise SizeCap(f"gated set scan covers 2^{n} vertex subsets, over cap {limit}")

    dist = [[None] * n for _ in range(n)]
    for s in range(n):
        dist[s][s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in _bits(graph._adj[v]):
                    if dist[s][w] is None:
                        dist[s][w] = d
                        nxt.append(w)
            frontier = nxt
    if any(dist[0][v] is None for v in range(n)):
        raise InvalidStructure("graph is not connected")

    cn = [[graph._adj[i] & graph._adj[j] for j in range(n)] for i in range(n)]

    family = []
    for mask in range(1, 1 << n):
        members = list(_bits(mask))
        ok = True
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                a, b = members[ai], members[bi]
                if cn[a][b] & ~mask:
                    ok = False
                    break
                if dist[a][b] == 2:
                    wit = list(_bits(cn[a][b]))
                    if not any(
                        dist[u][v] == 2 for u in wit for v in wit if u < v
                    ):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            family.append(mask)

    names = {m: ideal_name(graph.names_of(m)) for m in family}
    # reverse inclusion: X <= Y iff X contains Y
    covers = []
    for s in family:
        for t in family:
            if s != t and s & t == t:  # t subset of s, so s <= t
                if not any(
                    w != s and w != t and s & w == w and w & t == t for w in family
                ):
                    covers.append((names[s], names[t]))
    return GradedPoset([names[m] for m in sorted(family, key=lambda m: (-bin(m).count('1'), names[m]))], covers)
