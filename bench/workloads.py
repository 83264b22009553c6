"""Seeded inputs for the three benchmark workloads.

Everything here is plain data made from a `random.Random(seed)`; nothing
imports orthogeo.  An instance is one host document, the point pairs it is
queried on, and the benchmark's own model of the host for the checks.

Query cases are fixed in advance wherever they change the cost of a query
by an order of magnitude (a pair whose supports join takes a straight
segment, a pair that does not needs an arch), so every seed puts the same
number of queries into each case and the medians stay comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from checks import (
    PipModel,
    SubspaceLattice,
    ideal_name,
    parse_ideal_name,
    split_instance,
    stable_ideal_host,
)

WORKLOADS = ("median_sparse", "poset_hosts", "small_many")


@dataclass
class Instance:
    """One host and its queries.

    build: "pip" (a Pip from the document), "ideals" (a Pip, then its
    stable-ideal poset) or "poset" (a GradedPoset from the document).
    pairs: point pairs as {name: Fraction}; vertex coordinates on pip hosts,
    chain coefficients on poset hosts.  pairs[0] is the first query on a
    fresh host.  cli_pair: index of the pair the CLI runs, or None.
    first_repeats: fresh builds per round that each ask the first distance;
    the host's first distance is the fastest of them.
    """

    name: str
    build: str
    doc: dict
    pairs: list
    pip: PipModel | None = None
    chain: object = None
    lattice: SubspaceLattice | None = None
    cli_doc: dict | None = None
    cli_pair: int | None = None
    lambdas: list = field(default_factory=list)
    first_repeats: int = 1

    @property
    def engine(self) -> str:
        return "median" if self.build == "pip" else "poset"


# -- generators -----------------------------------------------------------------


def bipartite_pip(rng, nb, nc, edges, order_p=0.0, degree=None):
    """Two sides b0.. and c0.., order only inside a side, edges only across.

    `edges` is the exact number of seed edges, or with `degree` every B
    vertex gets that many random C neighbours instead; each seed edge is
    closed upward along the order on both ends, as a pip requires.
    """
    bs = [f"b{i}" for i in range(nb)]
    cs = [f"c{i}" for i in range(nc)]
    above = {}
    for side in (bs, cs):
        for v in side:
            above[v] = {v}
        for i in reversed(range(len(side))):
            for j in range(i + 1, len(side)):
                if rng.random() < order_p:
                    above[side[i]] |= above[side[j]]
    if degree is None:
        seeds = rng.sample([(b, c) for b in bs for c in cs], edges)
    else:
        seeds = [(b, c) for b in bs for c in rng.sample(cs, degree)]
    closed = set()
    for b, c in seeds:
        closed |= {(b2, c2) for b2 in above[b] for c2 in above[c]}
    order = sorted((u, v) for u in above for v in above[u] if u != v)
    doc = {"kind": "pip", "vertices": bs + cs, "edges": sorted(closed), "order": order}
    return doc, bs, cs


def side_point(rng, pip: PipModel, side, denom, max_support=None):
    """Random coordinates on one side: random values at a random subset,
    then every vertex below a supported one carries at least its value, so
    each threshold set is an ideal (a side has no inner edges)."""
    support = [v for v in side if rng.random() < 0.7] or [rng.choice(side)]
    if max_support is not None:
        support = support[:max_support]
    raw = {v: Fraction(rng.randint(1, denom), denom) for v in support}
    coords = {}
    for v, val in raw.items():
        for u in pip.below[v]:
            coords[u] = max(coords.get(u, Fraction(0)), val)
    return coords


def needs_arch(pip: PipModel, x, y) -> bool:
    bset, cset, _ = split_instance(pip, x, y)
    return bool(bset)


def random_chain(rng, ideals_up):
    """Random maximal chain of stable ideals, walking up one vertex at a time."""
    cur = frozenset()
    chain = [cur]
    while ideals_up[cur]:
        cur = rng.choice(ideals_up[cur])
        chain.append(cur)
    return chain


def chain_point(rng, chain, denom=8):
    picks = [e for e in chain if rng.random() < 0.5] or [rng.choice(chain)]
    weights = [rng.randint(1, denom) for _ in picks]
    total = sum(weights)
    return {ideal_name(e): Fraction(w, total) for e, w in zip(picks, weights)}


def top(point):
    return max(point, key=lambda e: e.count(","))


def ideal_case(pip: PipModel, x, y) -> str:
    """'P0' (one chain), 'P1' (tops join) or 'arch' (tops do not join)."""
    host = stable_ideal_host()
    supp = sorted(set(x) | set(y), key=lambda e: (host.rank(e), e))
    if all(host.rank(a) < host.rank(b) and host.leq(a, b) for a, b in zip(supp, supp[1:])):
        return "P0"
    union = parse_ideal_name(top(x)) | parse_ideal_name(top(y))
    return "P1" if pip.is_stable_ideal(union) else "arch"


class IdealPoset:
    """The benchmark's own stable-ideal poset of a pip: names in the order
    orthogeo's stable_ideals lists them, covers, and a classify cost model.
    Vertex sets are bitmasks here, because rejection sampling builds many."""

    def __init__(self, doc):
        self.pip = PipModel.from_doc(doc)
        verts = list(self.pip.vertices)
        bit = {v: 1 << i for i, v in enumerate(verts)}
        below = [sum(bit[u] for u in self.pip.below[v]) & ~bit[v] for v in verts]
        nbr = [sum(bit[u] for u in self.pip.nbrs[v]) for v in verts]
        seen = {0}
        frontier = [0]
        up = {}
        while frontier:
            nxt = []
            for m in frontier:
                up[m] = []
                for i in range(len(verts)):
                    b = 1 << i
                    if m & b or below[i] & ~m or nbr[i] & m:
                        continue
                    up[m].append(m | b)
                    if m | b not in seen:
                        seen.add(m | b)
                        nxt.append(m | b)
            frontier = nxt
        self._verts = verts
        self._nbr = nbr
        self._up = up

    @cached_property
    def _names(self):
        return {m: ideal_name(self._set(m)) for m in self._up}

    @cached_property
    def _masks(self):
        names = self._names
        return sorted(self._up, key=lambda m: (bin(m).count("1"), names[m]))

    def _set(self, m):
        return frozenset(v for i, v in enumerate(self._verts) if m >> i & 1)

    def __len__(self):
        return len(self._up)

    def classify_cost(self, near=None) -> int | None:
        """Loop count of a cubic classification pass: pairwise tables, the
        bounded-triple scan over bounded pairs, and the distributive-law
        triples inside each maximal ideal (run twice).

        With near=(lo, hi), returns None early when cheap bounds already
        put the count outside [lo, hi].
        """
        n = len(self._up)
        maximal = [m for m, ts in self._up.items() if not ts]
        law = sum(2 * sum(1 for t in self._up if not t & ~m) ** 3 for m in maximal)
        base = law + 11 * n * n
        if near is not None and not (base <= near[1] and base + n**3 // 6 >= near[0]):
            return None
        masks = self._masks
        reach = []
        for m in masks:
            r = 0
            for i, b in enumerate(self._nbr):
                if m >> i & 1:
                    r |= b
            reach.append(r)
        triple = 0
        for i in range(n):
            ri = reach[i]
            for j in range(i + 1, n):
                if not ri & masks[j]:
                    triple += n - 1 - j
        return triple + base

    @cached_property
    def up(self):
        """Upper covers, as vertex sets."""
        return {self._set(m): [self._set(t) for t in ts] for m, ts in self._up.items()}

    @cached_property
    def doc(self):
        names = self._names
        return {
            "kind": "poset",
            "elements": [names[m] for m in self._masks],
            "covers": sorted((names[m], names[t]) for m, ts in self._up.items() for t in ts),
        }


# -- median_sparse -----------------------------------------------------------------

# sides per host (2n = twice this): a central size that holds the median of
# every timing, small hosts for the CLI below it and a short sweep above it
SPARSE_SIDES = [24] * 6 + [28] * 20 + [40, 48]


def median_sparse(rng):
    """Sparse bipartite pips with no order, each B vertex joined to two
    random C vertices (edge density 2/n, 0.042 to 0.083): 6 at 2n = 48 (the
    CLI subset), 20 at 2n = 56, then 80 and 96.  x covers the whole B
    side and y the whole C side, so the arches are long and the min-cut
    probes carry the cost.  A fixed degree, not a fixed density, keeps
    isolated vertices out and the cost of hosts of one size close."""
    out = []
    for k, n in enumerate(SPARSE_SIDES):
        doc, bs, cs = bipartite_pip(rng, n, n, None, degree=2)
        x = {b: Fraction(rng.randint(1, 64), 64) for b in bs}
        y = {c: Fraction(rng.randint(1, 64), 64) for c in cs}
        out.append(
            Instance(
                name=f"sparse{2 * n}-{k}",
                build="pip",
                doc=doc,
                pairs=[(x, y)],
                pip=PipModel.from_doc(doc),
                cli_doc=doc,
                cli_pair=0 if n == SPARSE_SIDES[0] else None,
                lambdas=[Fraction(rng.randint(1, 96), 97) for _ in range(3)],
            )
        )
    return out


# -- poset_hosts --------------------------------------------------------------------

# classify cost targets (loop counts) for the stable-ideal hosts: 64 at a
# central size of about 60 elements, which holds the median first distance,
# two smaller and two larger.
IDEAL_COST_TARGETS = [1.0e5, 1.0e5] + [2.0e5] * 64 + [4.0e5, 8.0e5]
# a host is taken once its cost is this close to the target; the window
# doubles after every WINDOW_TRIES candidates, so generation always ends
COST_TOLERANCE = 0.15
# the first distance of each stable-ideal host is timed this many times a
# round, on fresh builds, so one slow moment of the machine does not set it
IDEAL_FIRST_REPEATS = 3
WINDOW_TRIES = 200


def ideal_host(rng, target):
    """The first random stable-ideal poset whose classify cost lies within
    COST_TOLERANCE of the target.  A window this tight keeps the central
    hosts alike, so the median first distance does not move with the seed."""
    tries = 0
    while True:
        nb, nc = rng.randint(4, 6), rng.randint(4, 6)
        edges = rng.randint(nb * nc // 5, nb * nc // 3)
        doc, _, _ = bipartite_pip(rng, nb, nc, edges, order_p=rng.uniform(0.05, 0.25))
        model = IdealPoset(doc)
        tol = COST_TOLERANCE * 2 ** (tries // WINDOW_TRIES)
        cost = model.classify_cost(near=(target * (1 - tol), target * (1 + tol)))
        if cost is not None and abs(cost - target) <= tol * target:
            return doc, model
        tries += 1


def ideal_pairs(rng, model: IdealPoset, cases):
    """One pair per requested case ('P0', 'P1' or 'arch')."""
    pairs = []
    for case in cases:
        while True:
            x = chain_point(rng, random_chain(rng, model.up))
            y = chain_point(rng, random_chain(rng, model.up))
            if ideal_case(model.pip, x, y) == case:
                pairs.append((x, y))
                break
    return pairs


def subspace_instance(rng, n, pairs_count, name):
    images = random_basis(rng, n)
    lat = SubspaceLattice(n, images)
    names = [lat.name[s] for s in lat.subspaces]
    doc = {"kind": "poset", "elements": names, "covers": sorted(lat.covers())}
    pairs = []
    while len(pairs) < pairs_count:
        u, v = rng.sample(names, 2)
        if not lat.leq(u, v) and not lat.leq(v, u):
            pairs.append(({u: Fraction(1)}, {v: Fraction(1)}))
    return Instance(
        name=name, build="poset", doc=doc, pairs=pairs, chain=lat.host(),
        lattice=lat, cli_doc=doc,
    )


def random_basis(rng, n):
    """Images of the unit vectors under a random invertible map of F_2^n."""
    while True:
        images = [rng.randrange(1, 1 << n) for _ in range(n)]
        span = {0}
        for v in images:
            span |= {a ^ v for a in span}
        if len(span) == 1 << n:
            return images


def poset_hosts(rng):
    """68 stable-ideal posets (median semilattices) of about 45 to 115
    elements, chosen by a classify cost model, each queried on six pairs
    that need an arch and two whose tops join; plus the subspace lattices of
    F_2^3, F_2^4 and F_2^5 (16, 67 and 374 elements, modular but not
    distributive), each queried on four incomparable vertex pairs.  The CLI
    runs the first pair of F_2^3 and F_2^4 and a joining pair of the first
    eight stable-ideal hosts."""
    out = []
    for k, target in enumerate(IDEAL_COST_TARGETS):
        doc, model = ideal_host(rng, target)
        out.append(
            Instance(
                name=f"ideals{len(model)}-{k}",
                build="ideals",
                doc=doc,
                pairs=ideal_pairs(rng, model, ["arch"] * 6 + ["P1"] * 2),
                pip=model.pip,
                chain=stable_ideal_host(),
                cli_doc=model.doc,
                cli_pair=6 if k < 8 else None,
                first_repeats=IDEAL_FIRST_REPEATS,
            )
        )
    for n in (3, 4, 5):
        inst = subspace_instance(rng, n, 4, f"subspaces-F2^{n}")
        inst.cli_pair = 0 if n < 5 else None
        out.append(inst)
    return out


# -- small_many --------------------------------------------------------------------

README_QUADRANT = {
    "kind": "pip",
    "vertices": ["b1", "b2", "c1", "c2"],
    "edges": [["b1", "c2"], ["b2", "c1"]],
    "order": [],
}
README_X = {"b1": Fraction(1), "b2": Fraction(2, 5)}
README_Y = {"c1": Fraction(1, 2), "c2": Fraction(1)}


def small_pip(rng, k, order_p, name, cli):
    """A pip with k vertices per side and two cat0-check style triangles:
    x on the B side and y0, y1 on the C side, so (x, y0) and (x, y1) need an
    arch and (y0, y1) is a straight segment."""
    while True:
        doc, bs, cs = bipartite_pip(rng, k, k, max(1, round(0.4 * k * k)), order_p)
        pip = PipModel.from_doc(doc)
        pairs = []
        for _ in range(200):
            x = side_point(rng, pip, bs, 16, max_support=4)
            y0 = side_point(rng, pip, cs, 16, max_support=4)
            y1 = side_point(rng, pip, cs, 16, max_support=4)
            if (
                len(x) <= 5 and len(y0) <= 5 and len(y1) <= 5
                and needs_arch(pip, x, y0) and needs_arch(pip, x, y1)
            ):
                pairs += [(x, y0), (x, y1), (y0, y1)]
                if len(pairs) == 6:
                    break
        if len(pairs) == 6:
            return Instance(
                name=name, build="pip", doc=doc, pairs=pairs, pip=pip,
                cli_doc=doc, cli_pair=0 if cli else None,
            )


def small_ideals(rng, k, name):
    """Stable-ideal poset of a small pip, queried on two triangles whose
    (x, y0) and (x, y1) sides need an arch and whose (y0, y1) side is P1."""
    while True:
        doc, _, _ = bipartite_pip(rng, k, k, max(1, k * k // 3), order_p=0.2)
        model = IdealPoset(doc)
        pairs = []
        for _ in range(500):
            x, y0, y1 = (chain_point(rng, random_chain(rng, model.up)) for _ in range(3))
            if (
                ideal_case(model.pip, x, y0) == "arch"
                and ideal_case(model.pip, x, y1) == "arch"
                and ideal_case(model.pip, y0, y1) == "P1"
            ):
                pairs += [(x, y0), (x, y1), (y0, y1)]
                if len(pairs) == 6:
                    break
        if len(pairs) == 6:
            break
    return Instance(
        name=name, build="ideals", doc=doc, pairs=pairs, pip=model.pip,
        chain=stable_ideal_host(), cli_doc=model.doc,
    )


def small_lattice(rng, n, name):
    """Subspace lattice of F_2^n (n = 2 is M3), two vertex triangles."""
    inst = subspace_instance(rng, n, 2, name)
    names = list(inst.doc["elements"])
    pairs = []
    while len(pairs) < 6:
        x, y0, y1 = rng.sample(names, 3)
        lat = inst.lattice
        if all(not lat.leq(a, b) and not lat.leq(b, a) for a, b in ((x, y0), (x, y1), (y0, y1))):
            pairs += [({x: Fraction(1)}, {y0: Fraction(1)}), ({x: Fraction(1)}, {y1: Fraction(1)}),
                      ({y0: Fraction(1)}, {y1: Fraction(1)})]
    inst.pairs = pairs
    return inst


def small_many(rng):
    """The README quadrant, 112 pips with 2n = 4..16 (half with order
    pairs), 24 small stable-ideal posets and four copies each of the
    subspace lattices of F_2^2 (M3) and F_2^3.  The CLI runs the README
    quadrant and the first 2n = 8 pip without order."""
    quad = PipModel.from_doc(README_QUADRANT)
    out = [
        Instance(
            name="readme-quadrant", build="pip", doc=README_QUADRANT,
            pairs=[(README_X, README_Y)], pip=quad, cli_doc=README_QUADRANT, cli_pair=0,
        )
    ]
    for rep in range(8):
        for k in range(2, 9):
            for order_p in (0.0, 0.3):
                cli = rep == 0 and k == 4 and order_p == 0.0
                out.append(small_pip(rng, k, order_p, f"pip{2 * k}-{order_p}-{rep}", cli))
    for k in (2, 2, 3, 3, 3, 3) * 4:
        out.append(small_ideals(rng, k, f"small-ideals-{len(out)}"))
    for n in (2, 3) * 4:
        out.append(small_lattice(rng, n, f"small-F2^{n}-{len(out)}"))
    return out


def make(workload: str, seed: int):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    instances = globals()[workload](rng)
    # visit sizes in a mixed order, so no stretch of a run holds one size
    rng.shuffle(instances)
    return instances
