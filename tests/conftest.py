"""Shared hosts, points, and random-instance generators for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import orthogeo
from orthogeo import GradedPoset, Pip, extreme_arch, stable_ideals


# ---------------------------------------------------------------------------
# fixed hosts
# ---------------------------------------------------------------------------


def make_edge_bc() -> Pip:
    """Two vertices joined by a single incompatibility edge."""
    return Pip(["b", "c"], [("b", "c")], [])


def make_square() -> Pip:
    """Two vertices with no edge: the ideal complex is a unit square."""
    return Pip(["b", "c"], [], [])


def make_quadrant() -> Pip:
    """Two vertices per side, crossing edges b1-c2 and b2-c1."""
    return Pip(["b1", "b2", "c1", "c2"], [("b1", "c2"), ("b2", "c1")], [])


def make_bz() -> Pip:
    """Edge b-c plus an isolated vertex z."""
    return Pip(["b", "c", "z"], [("b", "c")], [])


def make_layered() -> Pip:
    """Ordered pair u < v, both incompatible with c."""
    return Pip(["u", "v", "c"], [("u", "c"), ("v", "c")], [("u", "v")])


def make_m3() -> GradedPoset:
    """The diamond lattice: bottom, three atoms, top."""
    return GradedPoset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )


def make_cube() -> GradedPoset:
    """The boolean lattice on three atoms."""
    elems = ["000", "100", "010", "001", "110", "101", "011", "111"]
    covers = []
    for lo in elems:
        for hi in elems:
            diff = [i for i in range(3) if lo[i] != hi[i]]
            if len(diff) == 1 and lo[diff[0]] == "0":
                covers.append((lo, hi))
    return GradedPoset(elems, covers)


def make_chain(n: int) -> GradedPoset:
    """A chain with n elements labelled '0'..'n-1'."""
    ids = [str(i) for i in range(n)]
    return GradedPoset(ids, list(zip(ids, ids[1:])))


@pytest.fixture
def edge_bc() -> Pip:
    return make_edge_bc()


@pytest.fixture
def square() -> Pip:
    return make_square()


@pytest.fixture
def quadrant() -> Pip:
    return make_quadrant()


@pytest.fixture
def bz() -> Pip:
    return make_bz()


@pytest.fixture
def layered() -> Pip:
    return make_layered()


@pytest.fixture
def m3() -> GradedPoset:
    return make_m3()


@pytest.fixture
def cube() -> GradedPoset:
    return make_cube()


def subspace_lattice(n: int, hyperplanes=()):
    """Subspaces of F_2^n, each named by its sorted vectors, with the name
    function.  Given hyperplanes, each as the nonzero vector h of the
    hyperplane {v : v.h = 0}, only the subspaces inside one of them: for two
    hyperplanes, a modular semilattice that is neither a lattice nor median
    (the subspace lattices of the two hyperplanes, glued along that of their
    intersection)."""

    def inside(t):
        return not hyperplanes or any(
            all(bin(v & h).count("1") % 2 == 0 for v in t) for h in hyperplanes
        )

    spaces = {frozenset([0])}
    frontier = list(spaces)
    while frontier:
        nxt = []
        for s in frontier:
            for v in range(1 << n):
                t = frozenset(s | {u ^ v for u in s})
                if t not in spaces and inside(t):
                    spaces.add(t)
                    nxt.append(t)
        frontier = nxt

    def name(s):
        return ",".join(map(str, sorted(s)))

    covers = [(name(s), name(t)) for s in spaces for t in spaces if s < t and len(t) == 2 * len(s)]
    return GradedPoset(sorted(map(name, spaces)), covers), name


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def random_bipartite_pip(rng: random.Random, max_side: int = 4, order_p: float = 0.3) -> Pip:
    """Random two-sided pip: order within each side (each pair with
    probability order_p), edges across sides.

    Order pairs are closed transitively and edges are closed upward along
    the order on both endpoints, so the result always validates.
    """
    nb = rng.randint(1, max_side)
    nc = rng.randint(1, max_side)
    bs = [f"b{i}" for i in range(nb)]
    cs = [f"c{i}" for i in range(nc)]
    ids = bs + cs

    leq = {(v, v) for v in ids}
    for side in (bs, cs):
        for i, lo in enumerate(side):
            for hi in side[i + 1 :]:
                if rng.random() < order_p:
                    leq.add((lo, hi))
        changed = True
        while changed:
            changed = False
            for a, b in list(leq):
                for c, d in list(leq):
                    if b == c and (a, d) not in leq:
                        leq.add((a, d))
                        changed = True

    edges = set()
    for b in bs:
        for c in cs:
            if rng.random() < 0.4:
                edges.add((b, c))
    changed = True
    while changed:
        changed = False
        for b, c in list(edges):
            for b2 in bs:
                if (b, b2) in leq and (b2, c) not in edges:
                    edges.add((b2, c))
                    changed = True
            for c2 in cs:
                if (c, c2) in leq and (b, c2) not in edges:
                    edges.add((b, c2))
                    changed = True

    order = [(a, b) for (a, b) in leq if a != b]
    return Pip(ids, sorted(edges), sorted(order))


def random_side_point(rng: random.Random, pip: Pip, side: list[str]) -> dict:
    """Random monotone coordinate vector supported on one side of a pip.

    Coordinates are sixteenths in (0, 1]; monotonicity (larger below) is
    enforced by propagating the maximum down the order.
    """
    support = [v for v in side if rng.random() < 0.7]
    if not support:
        support = [rng.choice(side)]
    raw = {v: Fraction(rng.randint(1, 16), 16) for v in support}
    coords = {}
    for u in side:
        vals = [raw[v] for v in raw if pip.leq(u, v)]
        if vals:
            coords[u] = max(vals)
    return coords


def is_orthogonal_instance(pip: Pip, x: dict, y: dict) -> bool:
    """True when neither endpoint has a free part: every support vertex of x
    lies above some vertex that is edge-incompatible with the support of y,
    and symmetrically."""

    def covered(coords, other):
        sup_o = set(other)
        for v in coords:
            if not any(
                pip.leq(u, v) and any(pip.has_edge(u, w) for w in sup_o)
                for u in coords
            ):
                return False
        return True

    return covered(x, y) and covered(y, x)


def random_orthogonal_instance(rng: random.Random, max_side: int = 4, order_p: float = 0.3):
    """Sample (pip, x, y) until the pair is orthogonal with no shared simplex."""
    while True:
        pip = random_bipartite_pip(rng, max_side, order_p)
        bs = [v for v in pip.ids if v.startswith("b")]
        cs = [v for v in pip.ids if v.startswith("c")]
        if not any(pip.has_edge(b, c) for b in bs for c in cs):
            continue
        x = random_side_point(rng, pip, bs)
        y = random_side_point(rng, pip, cs)
        if is_orthogonal_instance(pip, x, y):
            return pip, x, y


def random_ideal_point(rng: random.Random, host: GradedPoset, chain=None) -> dict:
    """Random point of an order complex: coefficients on the given maximal
    chain, or on a random one."""
    chain = chain or rng.choice(host.maximal_chains())
    picks = [e for e in chain if rng.random() < 0.6] or [rng.choice(chain)]
    weights = [rng.randint(1, 8) for _ in picks]
    total = sum(weights)
    return {e: Fraction(w, total) for e, w in zip(picks, weights)}


def random_hosts(rng):
    """Stable-ideal posets of random pips, and the subspaces of F_2^n inside
    one of two hyperplanes (modular semilattices, not median)."""
    for _ in range(12):
        yield stable_ideals(random_bipartite_pip(rng, max_side=3, order_p=0.3))
    for n, hyperplanes in ((3, (1, 2)), (4, (1, 2)), (4, (3, 12)), (5, (1, 6))):
        yield subspace_lattice(n, hyperplanes)[0]


def upper_right_chain(points, right, top) -> list:
    """Extreme points of a planar point set from a right anchor to a top
    anchor, walking the outside of the hull: extreme_arch with a brute-force
    probe, each point its own member and its own xi pair."""
    pts = sorted(set(points) | {right, top})

    def probe(w1, w2, _lo, _hi):
        best = max(pts, key=lambda p: (w1 * p[0] + w2 * p[1], p[1]))
        return best, best

    return list(extreme_arch(probe, (right, right), (top, top)).members)


# ---------------------------------------------------------------------------
# fresh interpreters
# ---------------------------------------------------------------------------


def run_python(
    args: list[str], memory_mb: int | None = None, **env_vars: str
) -> subprocess.CompletedProcess:
    """Run a new interpreter with `args`, importing this checkout's orthogeo;
    env_vars are added to its environment, and memory_mb, when given, caps
    its address space."""
    src = str(Path(orthogeo.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(path))

    def cap_memory():
        import resource  # POSIX only, like preexec_fn

        limit = memory_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=None if memory_mb is None else cap_memory,
    )
