#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must accept the library's
answer and reject a deliberately perturbed length or breakpoint.

    python3 bench/selftest.py        (from the repository root)

Exits 0 when every check passes the true answer and rejects every
perturbation; prints one line per case.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import checks
import run
import workloads
from checks import CheckFailed

sys.path.insert(0, str(run.SRC))
import orthogeo as og  # noqa: E402

FAILURES = []


def expect(label, accept, fn, *args):
    reason = ""
    try:
        fn(*args)
        ok = accept
    except CheckFailed as exc:
        ok = not accept
        reason = f": {exc}"
    print(f"{'ok ' if ok else 'BAD'} {'accepts' if accept else 'rejects'} {label}{reason}")
    if not ok:
        FAILURES.append(label)


def fake(geo, **changes):
    """A copy of a Geodesic with some fields replaced."""
    out = SimpleNamespace(**{k: getattr(geo, k) for k in ("length", "sq_length", "case", "arch", "path", "bpath")})
    for k, v in changes.items():
        setattr(out, k, v)
    return out


def nudge_breakpoint(bps, index, key, delta):
    bps = [(t, dict(c)) for t, c in bps]
    bps[index][1][key] = bps[index][1].get(key, F(0)) + delta
    return bps


def median_cases():
    doc = workloads.README_QUADRANT
    inst = workloads.Instance(
        name="quadrant", build="pip", doc=doc, pairs=[], pip=checks.PipModel.from_doc(doc)
    )
    x, y = workloads.README_X, workloads.README_Y
    pip = og.Pip(doc["vertices"], doc["edges"])
    geo = og.geodesic_median(pip, x, y)
    bps = list(geo.bpath.breakpoints)
    expect("the quadrant geodesic", True, run.check_median, inst, x, y, geo)
    expect("a length off by 1e-6", False, run.check_median, inst, x, y, fake(geo, length=geo.length + 1e-6))
    expect(
        "a squared length off by 1/1000 (concave-arch minimum)", False,
        run.check_median, inst, x, y, fake(geo, sq_length=geo.sq_length + og.SqrtSum(F(1, 1000))),
    )
    moved = nudge_breakpoint(bps, 1, "b1", F(1, 100))
    expect(
        "an interior breakpoint moved by 1/100", False,
        checks.check_cube_path, inst.pip, x, y, moved, geo.length,
    )
    outside = nudge_breakpoint(bps, 1, "c2", F(1, 100))
    expect(
        "a breakpoint pushed off its cube", False,
        checks.check_cube_path, inst.pip, x, y, outside, geo.length,
    )

    # a larger sparse instance goes through the min-cut check instead
    rng = random.Random(5)
    sparse = workloads.median_sparse(rng)[0]
    sx, sy = sparse.pairs[0]
    d = sparse.doc
    geo = og.geodesic_median(og.Pip(d["vertices"], d["edges"]), sx, sy)
    expect("a sparse 2n = 48 geodesic (min-cut check)", True, run.check_median, sparse, sx, sy, geo)
    arch = geo.arch
    k = len(arch.members) // 2
    merged = SimpleNamespace(
        members=arch.members[:k] + arch.members[k + 1 :],
        xsq=arch.xsq[: k - 1] + (arch.xsq[k - 1] + arch.xsq[k],) + arch.xsq[k + 1 :],
        ysq=arch.ysq[: k - 1] + (arch.ysq[k - 1] + arch.ysq[k],) + arch.ysq[k + 1 :],
    )
    sparse.lambdas = lambdas_through(arch, k)
    expect(
        "an arch missing one extreme point", False,
        run.check_median, sparse, sx, sy, fake(geo, arch=merged),
    )


def lambdas_through(arch, k):
    """Weights at which the dropped member k is the unique maximizer."""
    pts = checks.xi_points(arch.xsq, arch.ysq)
    (ax, ay), (bx, by), (cx, cy) = pts[k - 1], pts[k], pts[k + 1]
    out = []
    for (p, q), (r, s) in (((ax, ay), (bx, by)), ((bx, by), (cx, cy))):
        w1, w2 = s - q, p - r  # normal of the hull edge
        out.append(w2 / (w1 + w2))
    return [(out[0] + out[1]) / 2]


def poset_cases():
    lat = checks.SubspaceLattice(3)
    names = [lat.name[s] for s in lat.subspaces]
    host = og.GradedPoset(names, lat.covers())
    u, v = names[1], names[2]
    inst = workloads.Instance(
        name="F2^3", build="poset", doc={}, pairs=[], chain=lat.host(), lattice=lat
    )
    x, y = {u: F(1)}, {v: F(1)}
    geo = og.geodesic(host, og.Point(x), og.Point(y))
    expect("a vertex pair in the subspace lattice of F_2^3", True, run.check_poset, og, inst, x, y, geo)
    expect(
        "a vertex distance off by one", False,
        run.check_poset, og, inst, x, y, fake(geo, sq_length=geo.sq_length + og.SqrtSum(1)),
    )
    bps = [(t, p.coeffs) for t, p in geo.path.breakpoints]
    tilted = [(t, dict(c)) for t, c in bps]
    mid = len(tilted) // 2
    key = max(tilted[mid][1], key=lambda e: lat.rank(e))
    tilted[mid][1][key] += F(1, 50)
    low = min(tilted[mid][1], key=lambda e: lat.rank(e))
    tilted[mid][1][low] -= F(1, 50)
    expect(
        "a breakpoint with mass moved along its chain", False,
        checks.check_chain_path, inst.chain, x, y, tilted, geo.length,
    )

    rng = random.Random(7)
    small = workloads.small_ideals(rng, 3, "ideals")
    d = small.doc
    poset = og.stable_ideals(og.Pip(d["vertices"], d["edges"], d["order"]))
    sx, sy = small.pairs[0]
    geo = og.geodesic(poset, og.Point(sx), og.Point(sy))
    expect("an arch pair on a stable-ideal poset", True, run.check_poset, og, small, sx, sy, geo)
    expect(
        "a stable-ideal distance off by 1/1000 (cross-engine check)", False,
        run.check_poset, og, small, sx, sy, fake(geo, sq_length=geo.sq_length + og.SqrtSum(F(1, 1000))),
    )
    chain_bps = [(t, p.coeffs) for t, p in geo.path.breakpoints]
    swapped = copy.deepcopy(chain_bps)
    swapped[1], swapped[-2] = (swapped[1][0], swapped[-2][1]), (swapped[-2][0], swapped[1][1])
    expect(
        "two breakpoints swapped", False,
        checks.check_chain_path, small.chain, sx, sy, swapped, geo.length,
    )


def model_cases():
    pip = checks.PipModel(["b", "c", "z"], [("b", "c")], [("z", "b")])
    expect("{z, b} as a stable ideal", True, checks.require, pip.is_stable_ideal({"z", "b"}), "")
    expect("{b} without z below it", False, checks.require, pip.is_stable_ideal({"b"}), "not an ideal")
    expect("{z, b, c} across the edge", False, checks.require, pip.is_stable_ideal({"z", "b", "c"}), "not stable")
    chain = checks.ChainHost(rank=int, leq=lambda a, b: int(a) <= int(b))
    expect(
        "d(0, 2)^2 = 2 on a chain", True, checks.require,
        checks.sq_simplex_distance(chain, {"0": F(1)}, {"2": F(1)}) == 2, "wrong",
    )
    value = checks.max_weight_stable_ideal(pip.restrict({"b", "c"}), {"b": F(2)}, {"c": F(3)})
    expect("max-weight stable ideal of an edge is the heavier end", True, checks.require, value == 3, "wrong")


def metric_list_cases():
    """The metrics run.py prints are the ones BENCHMARK.json declares."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        expect(f"the {key} metrics of BENCHMARK.json", True, checks.require, declared == table, "differ")


def main() -> int:
    metric_list_cases()
    median_cases()
    poset_cases()
    model_cases()
    if FAILURES:
        print(f"{len(FAILURES)} case(s) went wrong", file=sys.stderr)
        return 1
    print("all checks accept true answers and reject perturbed ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
