"""poset.classify against the cubic reference in reference.py, the rank-level
meet and join against brute force, and the flags geodesic asks for."""

import random
from functools import lru_cache

import pytest

from conftest import make_cube, make_m3, random_bipartite_pip, random_ideal_point
from orthogeo import GradedPoset, InvalidStructure, NotGraded, Point, classify, geodesic
from orthogeo.poset import FLAGS, stable_ideals
from reference import (
    _classify,
    _meet_semilattice_states,
    _poset_from_downs,
    modular_lattice_catalog,
)


def shuffled(poset, rng):
    """The same poset with its elements and covers listed in a new order."""
    ids = list(poset.ids)
    covers = list(poset.covers)
    rng.shuffle(ids)
    rng.shuffle(covers)
    return GradedPoset(ids, covers)


def random_graded_poset(rng):
    """Rank levels of random sizes, each element above level 0 covering a
    random nonempty set of the level below; one or two minimal elements,
    so many are not meet-semilattices."""
    sizes = [rng.choice((1, 1, 1, 2))] + [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
    levels = [[f"r{r}e{i}" for i in range(k)] for r, k in enumerate(sizes)]
    covers = []
    for lower, upper in zip(levels, levels[1:]):
        for hi in upper:
            below = [lo for lo in lower if rng.random() < 0.5] or [rng.choice(lower)]
            covers += [(lo, hi) for lo in below]
    return GradedPoset([e for level in levels for e in level], covers)


def random_intersection_family(rng):
    """Random sets closed under intersection, ordered by inclusion: a
    meet-semilattice, graded or not, often with unbounded triples (the
    three two-sets of a three-set) and often not modular; sometimes with
    the whole ground set added as a top."""
    ground = rng.randint(3, 5)
    family = {rng.getrandbits(ground) for _ in range(rng.randint(2, 7))}
    if rng.random() < 0.3:
        family.add((1 << ground) - 1)
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more

    def lt(a, b):
        return a != b and a & b == a

    covers = [
        (f"s{a}", f"s{b}")
        for a in family
        for b in family
        if lt(a, b) and not any(lt(a, c) and lt(c, b) for c in family)
    ]
    return GradedPoset([f"s{a}" for a in sorted(family)], covers)


@lru_cache(maxsize=None)
def corpus():
    rng = random.Random(2024)
    base = [GradedPoset([], [])] + list(modular_lattice_catalog(8))
    for downs in sorted(_meet_semilattice_states(7), key=lambda d: (len(d), d)):
        full = (1 << (len(downs) + 1)) - 1
        for shape in (downs, downs + (full,)):
            try:
                base.append(_poset_from_downs(shape))
            except NotGraded:
                pass
    base += [random_graded_poset(rng) for _ in range(600)]
    for _ in range(3000):
        try:
            base.append(random_intersection_family(rng))
        except NotGraded:
            pass
    ideals = [stable_ideals(random_bipartite_pip(rng, max_side=3)) for _ in range(300)]
    base += [p for p in ideals if len(p) <= 40]
    return base + [shuffled(p, rng) for p in base]


def test_classify_matches_reference():
    counts = {flag: [0, 0] for flag in FLAGS}
    for poset in corpus():
        ref = _classify(poset)
        assert classify(poset) == ref
        # one flag at a time from an empty cache: no flag relies on another
        # having been asked first
        for flag in FLAGS:
            poset._flags.clear()
            assert classify(poset, flag) is ref[flag]
            counts[flag][ref[flag]] += 1
    for flag, (no, yes) in counts.items():
        assert yes >= 200 and (no >= 200 or flag == "graded"), (flag, no, yes)


def brute_meet(poset, p, q):
    lower = [e for e in poset.ids if poset.leq(e, p) and poset.leq(e, q)]
    best = [e for e in lower if all(poset.leq(d, e) for d in lower)]
    return best[0] if best else None


def brute_join(poset, p, q):
    upper = [e for e in poset.ids if poset.leq(p, e) and poset.leq(q, e)]
    best = [e for e in upper if all(poset.leq(e, d) for d in upper)]
    return best[0] if best else None


def test_meet_and_join_match_brute_force():
    seen = {"meet": 0, "no meet": 0, "join": 0, "no join": 0}
    for poset in corpus()[::3]:
        for p in poset.ids:
            for q in poset.ids:
                m, j = poset.meet(p, q), poset.join(p, q)
                assert m == brute_meet(poset, p, q)
                assert j == brute_join(poset, p, q)
                seen["meet" if m else "no meet"] += 1
                seen["join" if j else "no join"] += 1
    assert min(seen.values()) >= 1000, seen


def test_geodesic_asks_only_for_modular_semilattice():
    rng = random.Random(3)
    hosts = [make_m3(), make_cube()]
    hosts += [stable_ideals(random_bipartite_pip(rng, max_side=3)) for _ in range(10)]
    for host in hosts:
        x = Point(random_ideal_point(rng, host))
        y = Point(random_ideal_point(rng, host))
        geodesic(host, x, y)
        # modular_semilattice and the two checks it is built on
        assert set(host._flags) == {"meet_semilattice", "_bounded_triples", "modular_semilattice"}


def test_classify_unknown_flag():
    m3 = make_m3()
    for name in ("modular_lattice", "_bounded_triples", ""):
        with pytest.raises(InvalidStructure, match="unknown classify flag"):
            classify(m3, name)
    assert m3._flags == {}
