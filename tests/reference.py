"""Slow, independent references the tests compare the library against.

A cubic-time classification is the reference for poset.classify;
`generated_sublattice` closes generating chains under meets and joins, and
`_sublattice_join_irreducibles` (quadratic in member pairs) checks that
closure and reads its join-irreducibles, the oracle for the frame vertices,
with the cubic `_check_distributive_sublattice` as its own reference; a
catalog of all small modular lattices (and the meet-semilattice states it
is grown from) feeds identity checks, `interval` lists an interval from `leq` alone,
`v_sq_fold` sums an arch's squared value one SqrtSum at a time,
`omega_by_joins` looks for every join that omega needs,
`restrict_by_cover_walk` induces a sub-pip's order from cover paths,
`split_blocks` reads an arch's blocks by scanning every member, and
`hinge_breakpoints` builds the hinged path in Fraction arithmetic.
Nothing here is needed to compute a distance.
"""

import itertools
from fractions import Fraction

from orthogeo import (
    GradedPoset,
    InvalidStructure,
    NotGraded,
    Pip,
    SizeCap,
    SqrtSum,
    SupportMismatch,
    classify,
    frac_sqrt,
)
from orthogeo.poset import (
    _bits,
    _incomparable_pairs,
    _join_irreducibles,
    _join_prime_breach,
    size_cap,
)


def interval(poset: GradedPoset, lo, hi):
    """Elements e with lo <= e <= hi, from string-level comparisons,
    sorted by (rank, id)."""
    members = [e for e in poset.ids if poset.leq(lo, e) and poset.leq(e, hi)]
    return sorted(members, key=lambda e: (poset.rank_of(e), e))


def v_sq_fold(arch):
    """arch.v_sq as a left fold of SqrtSum additions, three fresh SqrtSums
    per block, each sum re-normalized: the slow, obvious form of the sum."""
    out = SqrtSum(0)
    for a, b in zip(arch.xsq, arch.ysq):
        out = out + SqrtSum(a + b) + SqrtSum.sqrt(a * b).scale(2)
    return out


def omega_by_joins(poset: GradedPoset, a, p):
    """The largest element below p whose join with a exists, from one
    _join_i call per element below p, on any graded poset; None when those
    elements have no greatest member."""
    ia = poset.index[a]
    cand = 0
    for u in _bits(poset._down[poset.index[p]]):
        if poset._join_i(u, ia) is not None:
            cand |= 1 << u
    for u in sorted(_bits(cand), key=lambda k: -poset._rank[k]):
        if poset._down[u] & cand == cand:
            return poset.ids[u]
    return None


def restrict_by_cover_walk(pip: Pip, names) -> Pip:
    """Pip.restrict by walking cover paths: each kept vertex is paired with
    the kept ones first met on its upward cover paths, cut at kept vertices,
    and every cover path of the sub-order is made of these."""
    keep = set(names)
    verts = [v for v in pip.ids if v in keep]
    edges = [(u, v) for u, v in pip.edges if u in keep and v in keep]
    kept = pip.mask_of(verts)
    order = []
    for i in _bits(kept):
        seen = todo = pip._covers[i]
        while todo:
            j = (todo & -todo).bit_length() - 1
            todo ^= 1 << j
            if kept >> j & 1:
                order.append((pip.ids[i], pip.ids[j]))
            else:
                todo |= pip._covers[j] & ~seen
                seen |= pip._covers[j]
    return Pip(verts, edges, order)


def split_blocks(arch, sets, bside, cside, xb, yb):
    """engine._split_blocks by scanning every member: nesting is checked on
    each consecutive pair of sets first, then a falling vertex leaves with
    the block after the last member holding it and a rising one arrives
    with the first, and each block's squared masses are summed one Fraction
    product at a time."""
    for m0, m1 in zip(sets, sets[1:]):
        if not (m0 & bside) > (m1 & bside):
            raise InvalidStructure("falling traces are not nested")
        if not (m0 & cside) < (m1 & cside):
            raise InvalidStructure("rising traces are not nested")
    if xb.keys() & cside or yb.keys() & bside:
        raise InvalidStructure("point mass off its side")
    out = []
    for side, point, members, expected_sq in (("falling", xb, bside, arch.xsq), ("rising", yb, cside, arch.ysq)):
        blocks = {}
        acc = [Fraction(0)] * len(expected_sq)
        for v, mass in point.items():
            if v not in members:
                continue
            held = [i for i, s in enumerate(sets) if v in s]
            j = 1 + max(held, default=-1) if side == "falling" else min(held, default=0)
            if not 1 <= j <= len(expected_sq):
                raise SupportMismatch(f"vertex {v!r} outside the arch")
            blocks[v] = (*mass.as_integer_ratio(), j)
            acc[j - 1] += mass * mass
        if acc != list(expected_sq):
            raise SupportMismatch(f"{side} block masses disagree with the arch")
        out.append(blocks)
    return out


def hinge_breakpoints(arch, falling, rising, xb, yb):
    """engine._hinge_breakpoints in Fraction arithmetic: each decay ratio is
    one Fraction snapshot, and at every time each live block's factor is
    worked out from the time itself, 1 - t (1 + rho_j) falling and
    1 - (1 - t) (1 + 1/rho_j) rising; mass on neither side is
    (1 - t) x + t y.  The blocks are split_blocks' {v: (a, b, j)}."""
    digits = 40
    while True:
        rhos = [frac_sqrt(b / a, digits) for a, b in zip(arch.xsq, arch.ysq)]
        if all(r > 0 for r in rhos) and all(r0 > r1 for r0, r1 in zip(rhos, rhos[1:])):
            break
        digits *= 2
    blocks = len(rhos)
    falling = {v: (Fraction(a, b), j) for v, (a, b, j) in falling.items()}
    rising = {v: (Fraction(a, b), j) for v, (a, b, j) in rising.items()}
    linear = sorted((xb.keys() | yb.keys()) - falling.keys() - rising.keys())
    bps = []
    for i, t in enumerate((Fraction(0), *(1 / (1 + r) for r in rhos), Fraction(1))):
        fall = {j: 1 - t * (1 + rhos[j - 1]) for j in range(i + 1, blocks + 1)}
        rise = {j: 1 - (1 - t) * (1 + 1 / rhos[j - 1]) for j in range(1, i)}
        out = {}
        for v, (mass, j) in falling.items():
            if j in fall:
                out[v] = mass * fall[j]
        for v, (mass, j) in rising.items():
            if j in rise:
                out[v] = mass * rise[j]
        for v in linear:
            val = (1 - t) * xb.get(v, Fraction(0)) + t * yb.get(v, Fraction(0))
            if val:
                out[v] = val
        bps.append((t, out))
    return bps


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


# -- sublattices generated by chains, and the reference sublattice checks --------


def generated_sublattice(poset: GradedPoset, chains):
    """The sublattice that chains generate, as a set of ids, from the
    definition: every element of the chains, then the meet and the join of
    every pair of members, until nothing new appears.  Each pair is met
    once, when the later of the two joins the members."""
    members = set()
    todo = [e for chain in chains for e in chain]
    while todo:
        x = todo.pop()
        if x in members:
            continue
        for y in members:
            for z in (poset.meet(x, y), poset.join(x, y)):
                if z is None:
                    raise InvalidStructure(f"{x!r},{y!r} lack a meet or a join")
                todo.append(z)
        members.add(x)
    return members


def _sublattice_join_irreducibles(poset, members):
    """Check that a member mask is a distributive sublattice whose covers
    are host covers, and return the mask of its join-irreducibles.

    Quadratic in member pairs, with mask operations only: meets and joins
    of the incomparable pairs stay inside; above each member a, every
    member lies above one at rank r(a)+1; the join-prime law holds on the
    incomparable pairs.
    """
    ids, up, rank, levels = poset.ids, poset._up, poset._rank, poset._levels
    pairs = list(_incomparable_pairs(poset, members))
    for i, j in pairs:
        for op, k in (("meet", poset._meet_i(i, j)), ("join", poset._join_i(i, j))):
            if k is None or not members >> k & 1:
                raise InvalidStructure(
                    f"sublattice not {op}-closed at {ids[i]!r},{ids[j]!r}"
                )
    for a in _bits(members):
        above = up[a] & members & ~(1 << a)
        if above:
            for c in _bits(above & levels[rank[a] + 1]):
                above &= ~up[c]
        if above:
            b = min(_bits(above), key=rank.__getitem__)
            raise InvalidStructure(f"sublattice cover {ids[a]!r} -> {ids[b]!r} skips host ranks")
    jmask = _join_irreducibles(poset, members)
    breach = _join_prime_breach(poset, jmask, pairs)
    if breach is not None:
        i, j = breach
        raise InvalidStructure(f"distributivity fails at {ids[i]!r},{ids[j]!r}")
    return jmask


def _check_distributive_sublattice(poset: GradedPoset, elems, chains=()):
    """Meet/join closure, the distributive law on all triples, and cover
    preservation, from string-level meets, joins and comparisons: the
    reference _sublattice_join_irreducibles is tested against.  Raises
    InvalidStructure on the first failure; returns the elements sorted by
    (rank, id)."""
    elems = sorted(elems, key=lambda e: (poset.rank_of(e), e))
    members = set(elems)
    for chain in chains:
        missing = set(chain) - members
        if missing:
            raise InvalidStructure(f"generating chain lost members {sorted(missing)}")
    meet = {}
    join = {}
    for a in elems:
        for b in elems:
            m = poset.meet(a, b)
            jn = poset.join(a, b)
            if m not in members:
                raise InvalidStructure(f"sublattice not meet-closed at {a!r},{b!r}")
            if jn is None or jn not in members:
                raise InvalidStructure(f"sublattice not join-closed at {a!r},{b!r}")
            meet[a, b] = m
            join[a, b] = jn
    for a in elems:
        for b in elems:
            for c in elems:
                if meet[a, join[b, c]] != join[meet[a, b], meet[a, c]]:
                    raise InvalidStructure(f"distributivity fails at {a!r},{b!r},{c!r}")
    # covers inside the sublattice are covers of the host
    for a in elems:
        above = [b for b in elems if b != a and poset.leq(a, b)]
        for b in above:
            if not any(c != a and c != b and poset.leq(a, c) and poset.leq(c, b) for c in above):
                if poset.rank_of(b) != poset.rank_of(a) + 1:
                    raise InvalidStructure(f"sublattice cover {a!r} -> {b!r} skips host ranks")
    return tuple(elems)


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
