#!/usr/bin/env python3
"""The orthogeo benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src and the
CLI runs as `python -m orthogeo.cli` on the same tree.  One process, no
worker threads; CLI processes run one at a time.

A run sets up (imports, seeded inputs, warm-up), then repeats whole rounds
while the next round still fits in S seconds.  A round builds every host
fresh from its document and asks it a first distance, asks every pair a
warm distance and a warm geodesic, and runs the CLI subset cold.  Every
answer of the first round is checked against the benchmark's own
computations (checks.py); later rounds must repeat it exactly.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every instance
once untraced and once traced, without the CLI, prints the per-layer
metrics and writes the spans and counts to bench/out/trace-<workload>.json.
The last line of stdout is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import workloads
from checks import CheckFailed, require
from tracing import QUERY_ROOTS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = [
    ("setup_s", "s"),
    ("first_dist_ms", "ms"),
    ("dist_ms", "ms"),
    ("geodesic_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("cli_dist_ms", "ms"),
    ("cli_geodesic_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("poset.Pip_ms", "ms"),
    ("poset.GradedPoset_ms", "ms"),
    ("poset.stable_ideals_ms", "ms"),
    ("poset.classify_ms", "ms"),
    ("poset.host_elements", "count"),
    ("poset.metric_interval_ms", "ms"),
    ("poset.interval_elements", "count"),
    ("arch.xi_ms", "ms"),
    ("arch.xi_calls", "count"),
    ("flow.solve_msip_ms", "ms"),
    ("flow.solve_msip_calls", "count"),
    ("flow.max_flow_ms", "ms"),
    ("flow.max_flow_self_ms", "ms"),
    ("arch.extreme_arch_ms", "ms"),
    ("arch.steps", "count"),
    ("frames.build_frame_ms", "ms"),
    ("frames.Frame_ms", "ms"),
    ("frames.vertices", "count"),
    ("points.check_b_point_ms", "ms"),
    ("points.level_decomposition_ms", "ms"),
    ("points.validate_ms", "ms"),
    ("points.breakpoints", "count"),
    ("points.check_point_ms", "ms"),
    ("points.sq_simplex_distance_calls", "count"),
    ("radicals.sign_calls", "count"),
    ("radicals.frac_sqrt_calls", "count"),
    ("radicals.squarefree_split_misses", "count"),
    ("arch.v_sq_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.first_radical_ms", "ms"),
    ("trace.overhead_pct", "%"),
]

SETUP_REPEATS = 5
CLI_PROBES = 3


# -- set-up -----------------------------------------------------------------------


def setup(workload, seed):
    """Import orthogeo, make the inputs and warm up; returns the elapsed
    seconds, the library and the instances with their prepared points."""
    t0 = perf_counter()
    import orthogeo as og

    instances = workloads.make(workload, seed)
    points = [
        [
            (x, y) if inst.engine == "median" else (og.Point(x), og.Point(y))
            for x, y in inst.pairs
        ]
        for inst in instances
    ]
    quad = og.Pip(["b1", "b2", "c1", "c2"], [("b1", "c2"), ("b2", "c1")])
    og.geodesic_median(quad, workloads.README_X, workloads.README_Y)
    m3 = og.GradedPoset(["0", "a", "b", "c", "1"], [("0", e) for e in "abc"] + [(e, "1") for e in "abc"])
    og.geodesic(m3, og.Point.vertex("a"), og.Point.vertex("b"))
    return perf_counter() - t0, og, instances, points


def probe_setup(workload, seed) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- one round ----------------------------------------------------------------------


class Record:
    """Timings in seconds, operation counts, and the first round's answers."""

    def __init__(self):
        self.rounds = 0
        # (round, instance) -> seconds of each fresh first distance
        self.first = {}
        self.dist, self.geo = [], []
        self.cli = {"dist": [], "geodesic": []}
        self.attempted = 0
        self.failed = 0
        self.answers = {}
        self.cli_answers = {}
        self.mismatch = []

    def keep(self, key, geo):
        old = self.answers.setdefault(key, geo)
        if old.sq_length != geo.sq_length:
            self.mismatch.append(key)

    def first_seconds(self):
        return [t for ts in self.first.values() for t in ts]

    def query_seconds(self):
        return math.fsum(self.first_seconds()) + math.fsum(self.dist) + math.fsum(self.geo)

    def queries(self):
        return len(self.first_seconds()) + len(self.dist) + len(self.geo)


def build(og, inst):
    d = inst.doc
    if inst.build == "poset":
        return og.poset.GradedPoset(d["elements"], d["covers"])
    pip = og.poset.Pip(d["vertices"], d["edges"], d.get("order", []))
    return og.poset.stable_ideals(pip) if inst.build == "ideals" else pip


def ask(og, inst, host, pair, path, tracer):
    x, y = pair
    if inst.engine == "median":
        fn, root = og.engine.geodesic_median, QUERY_ROOTS[1]
    else:
        fn, root = og.engine.geodesic, QUERY_ROOTS[0]
    if tracer is None:
        return fn(host, x, y, compute_path=path)
    return tracer.span(root, fn, host, x, y, compute_path=path)


def run_round(og, instances, points, rec, cli_jobs=()):
    """One round.  Every instance is visited in turn (see run_instance);
    then an instance with first_repeats > 1 is built fresh and asked its
    first distance again, once in each later pass over the instances, so
    the repeats of one host lie apart in time.  The CLI jobs are spread
    evenly over the visits, so every metric samples the whole round, not
    one stretch of it."""
    rec.rounds += 1
    passes = max(inst.first_repeats for inst in instances)
    visits = [
        (rep, i) for rep in range(passes)
        for i, inst in enumerate(instances) if rep < inst.first_repeats
    ]
    done = 0
    for n, (rep, i) in enumerate(visits):
        if rep == 0:
            run_instance(og, i, instances[i], points[i], rec)
        else:
            first_query(og, instances[i], points[i][0], rec, None, i)
        while done < len(cli_jobs) * (n + 1) // len(visits):
            run_cli(cli_jobs[done], rec)
            done += 1


def run_instance(og, i, inst, pairs, rec, tracer=None):
    """Build the host fresh and ask its first distance, then give every
    pair a warm distance and a warm geodesic."""
    host = first_query(og, inst, pairs[0], rec, tracer, i)
    for j, pair in enumerate(pairs):
        for kind, bucket, path in (("dist", rec.dist, False), ("geo", rec.geo, True)):
            rec.attempted += 1
            if host is None:
                rec.failed += 1
                continue
            t0 = perf_counter()
            try:
                geo = ask(og, inst, host, pair, path, tracer)
            except og.OrthogeoError:
                rec.failed += 1
                continue
            bucket.append(perf_counter() - t0)
            rec.keep((i, j, kind), geo)
            if tracer is not None and path:
                bps = geo.bpath if inst.engine == "median" else geo.path
                tracer.count("points.breakpoints", len(bps.breakpoints))


def first_query(og, inst, pair, rec, tracer, i):
    """Build a host from its document and ask the first distance."""
    rec.attempted += 1
    t0 = perf_counter()
    try:
        host = build(og, inst)
        geo = ask(og, inst, host, pair, False, tracer)
    except og.OrthogeoError:
        rec.failed += 1
        return None
    rec.first.setdefault((rec.rounds, i), []).append(perf_counter() - t0)
    rec.keep((i, 0, "first"), geo)
    if tracer is not None:
        tracer.count("poset.host_elements", len(host))
    return host


def run_cli(job, rec):
    key, cmd, files = job
    rec.attempted += 1
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "orthogeo.cli", cmd, *files],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170,
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        rec.failed += 1
        return
    rec.cli[cmd].append(elapsed)
    out = json.loads(proc.stdout)
    old = rec.cli_answers.setdefault((key, cmd), out)
    if old != out:
        rec.mismatch.append((key, cmd))


def write_cli_jobs(folder, instances):
    """Host and point documents of the CLI subset, as files in folder."""
    jobs = []
    for i, inst in enumerate(instances):
        if inst.cli_pair is None:
            continue
        x, y = inst.pairs[inst.cli_pair]
        field = "coords" if inst.engine == "median" else "coeffs"
        files = []
        for stem, doc in (("host", inst.cli_doc), ("x", {field: x}), ("y", {field: y})):
            path = Path(folder) / f"{i}-{stem}.json"
            path.write_text(json.dumps(doc, default=str))
            files.append(str(path))
        for cmd in ("dist", "geodesic"):
            jobs.append(((i, inst.cli_pair), cmd, files))
    return jobs


# -- checks -------------------------------------------------------------------------


def to_radical(sq) -> dict:
    return checks.radical_add({1: sq.rational} if sq.rational else {}, dict(sq.terms))


def check_answers(og, instances, rec):
    """Every answer of the first round against independent computations."""
    require(not rec.mismatch, f"answers changed between rounds: {rec.mismatch[:3]}")
    for i, inst in enumerate(instances):
        for j, (x, y) in enumerate(inst.pairs):
            dist = rec.answers.get((i, j, "dist"))
            geo = rec.answers.get((i, j, "geo"))
            if dist is None or geo is None:
                continue
            what = f"{inst.name} pair {j}"
            require(dist.sq_length == geo.sq_length, f"{what}: distance and geodesic disagree")
            first = rec.answers.get((i, j, "first"))
            require(first is None or first.sq_length == geo.sq_length, f"{what}: first query disagrees")
            try:
                if inst.engine == "median":
                    check_median(inst, x, y, geo)
                else:
                    check_poset(og, inst, x, y, geo)
            except CheckFailed as exc:
                raise CheckFailed(f"{what}: {exc}") from None
    for ((i, j), cmd), out in rec.cli_answers.items():
        geo = rec.answers[(i, j, "geo")]
        what = f"{instances[i].name} cli {cmd}"
        require(out["length"] == float(f"{geo.length:.12g}"), f"{what}: length {out['length']} vs {geo.length}")
        if cmd == "geodesic":
            path = geo.bpath if instances[i].engine == "median" else geo.path
            require(
                [bp["t"] for bp in out["breakpoints"]] == [str(t) for t, _ in path.breakpoints],
                f"{what}: breakpoint times differ from the library's",
            )


def check_median(inst, x, y, geo):
    pip = inst.pip
    xs = {v: c for v, c in x.items() if c}
    ys = {v: c for v, c in y.items() if c}
    checks.check_cube_path(pip, xs, ys, [(t, c) for t, c in geo.bpath.breakpoints], geo.length)
    sq = to_radical(geo.sq_length)
    bset, cset, zsq = checks.split_instance(pip, xs, ys)
    if not bset:
        require(sq == checks.radical(zsq), "straight segment has the wrong length")
        return
    require(geo.arch is not None, "an arch was needed but none came back")
    sub = pip.restrict(bset | cset)
    xw = {v: xs[v] * xs[v] for v in bset}
    yw = {v: ys[v] * ys[v] for v in cset}
    pts = checks.xi_points(geo.arch.xsq, geo.arch.ysq)
    require(pts[0] == (sum(xw.values()), 0) and pts[-1] == (0, sum(yw.values())),
            "arch does not run between the two crossing sides")
    for member, (px, py) in zip(geo.arch.members, pts):
        require(sub.is_stable_ideal(member), "arch member is not a stable ideal")
        require(
            (sum((xw[v] for v in member & bset), Fraction(0)),
             sum((yw[v] for v in member & cset), Fraction(0))) == (px, py),
            "arch member does not sit at its xi point",
        )
    if len(bset) + len(cset) <= 12:
        best = checks.min_concave_arch(pip, xs, ys, bset, cset)
        require(sq == checks.radical_add(best, checks.radical(zsq)),
                "length is not the minimum over concave arches")
    else:
        for lam in inst.lambdas:
            value = checks.max_weight_stable_ideal(
                sub, {v: (1 - lam) * w for v, w in xw.items()}, {v: lam * w for v, w in yw.items()}
            )
            hull = max((1 - lam) * px + lam * py for px, py in pts)
            require(value == hull, f"a stable ideal beats the arch's hull at lambda {lam}")
        xx = sum((c * c for c in xs.values()), Fraction(0))
        yy = sum((c * c for c in ys.values()), Fraction(0))
        diff = sum(((xs.get(v, 0) - ys.get(v, 0)) ** 2 for v in set(xs) | set(ys)), Fraction(0))
        require(checks.radical_sign(checks.radical_add(sq, {1: -diff})) >= 0, "shorter than the straight line")
        upper = checks.radical_add(checks.radical(xx + yy), {c: 2 * v for c, v in checks.radical(sqrt_of=xx * yy).items()})
        require(checks.radical_sign(checks.radical_add(upper, {c: -v for c, v in sq.items()})) >= 0,
                "longer than the path through the origin")


def check_poset(og, inst, x, y, geo):
    checks.check_chain_path(
        inst.chain, x, y, [(t, p.coeffs) for t, p in geo.path.breakpoints], geo.length
    )
    if inst.lattice is not None:
        (u,), (v,) = x, y
        require(
            not geo.sq_length.terms and geo.sq_length.rational == inst.lattice.vertex_sq_distance(u, v),
            "vertex distance is not r(u) + r(v) - 2 r(u meet v)",
        )
        return
    bx, by = checks.b_coordinates(x), checks.b_coordinates(y)
    d = inst.doc
    pip = og.Pip(d["vertices"], d["edges"], d.get("order", []))
    other = og.geodesic_median(pip, bx, by, compute_path=False)
    require(other.sq_length == geo.sq_length, "poset and median engines disagree")
    check_median(inst, bx, by, og.geodesic_median(pip, bx, by))


# -- metrics --------------------------------------------------------------------------


def median_ms(values):
    return statistics.median(values) * 1e3 if values else None


def end_to_end(rec, setup_s, peak_rss_mb):
    return {
        "setup_s": setup_s,
        # a host asked more than once in a round counts with its fastest
        # first distance of that round, so the figure does not depend on
        # how many rounds fit in the run
        "first_dist_ms": median_ms([min(ts) for ts in rec.first.values()]),
        "dist_ms": median_ms(rec.dist),
        "geodesic_ms": median_ms(rec.geo),
        "queries_per_s": rec.queries() / rec.query_seconds(),
        "cli_dist_ms": median_ms(rec.cli["dist"]),
        "cli_geodesic_ms": median_ms(rec.cli["geodesic"]),
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cli_probes():
    """Cold import of orthogeo, then the first non-square radical (which
    loads sympy), each timed inside a fresh interpreter."""
    code = (
        "import time; t0 = time.perf_counter(); import orthogeo; t1 = time.perf_counter(); "
        "from fractions import Fraction; orthogeo.SqrtSum.sqrt(Fraction(2)); "
        "t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
    )
    imports, radicals = [], []
    for _ in range(CLI_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=170, check=True,
        )
        a, b = map(float, proc.stdout.split())
        imports.append(a)
        radicals.append(b)
    return median_ms(imports), median_ms(radicals)


def layer_metrics(tracer, misses, overhead_pct, cli_import, cli_radical):
    """Per-layer figures of the traced round: span totals for times, span
    calls or recorded counts for counts."""
    total, own, calls = tracer.layer_metrics()
    out = {}
    for name, unit in PER_LAYER:
        if unit == "ms":
            out[name] = total.get(name[: -len("_ms")], 0.0)
        elif name.endswith("_calls"):
            out[name] = tracer.counts.get(name, calls.get(name[: -len("_calls")], 0))
        else:
            out[name] = tracer.counts.get(name, 0)
    out["flow.max_flow_self_ms"] = own.get("flow.max_flow", 0.0)
    out["engine.self_ms"] = sum(own.get(r, 0.0) for r in QUERY_ROOTS)
    out["radicals.squarefree_split_misses"] = misses
    out["cli.import_ms"] = cli_import
    out["cli.first_radical_ms"] = cli_radical
    out["trace.overhead_pct"] = overhead_pct
    return out


def emit(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.4f} {units[name]}")
    print(f"attempted {attempted}  failed {failed}  correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


# -- main -----------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "orthogeo" / "__init__.py").is_file():
        print(f"error: no orthogeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(setup(args.workload, args.seed)[0])
        return 0

    setup_s, og, instances, points = setup(args.workload, args.seed)
    if args.trace:
        return traced_run(og, instances, points, args)

    setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    rec = Record()
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as folder:
        jobs = write_cli_jobs(folder, instances)
        deadline = perf_counter() + args.seconds
        while True:
            start = perf_counter()
            run_round(og, instances, points, rec, cli_jobs=jobs)
            if perf_counter() + (perf_counter() - start) > deadline:
                break
    rss = peak_rss_mb()
    correct = True
    try:
        check_answers(og, instances, rec)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    metrics = end_to_end(rec, statistics.median(setups), rss)
    emit(correct, rec.attempted, rec.failed, metrics, dict(END_TO_END))
    return 0


def traced_run(og, instances, points, args) -> int:
    """Every instance runs twice, once plain and once traced, in alternating
    order so neither side always finds the caches warm.  The radical cache
    is cleared before each, and its misses are counted on the traced side."""
    cache = og.radicals.squarefree_split
    plain, traced = Record(), Record()
    tracer = Tracer(og)
    misses = 0
    for i, inst in enumerate(instances):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            cache.cache_clear()
            if not with_trace:
                run_instance(og, i, inst, points[i], plain)
                continue
            tracer.install()
            try:
                run_instance(og, i, inst, points[i], traced, tracer)
            finally:
                tracer.uninstall()
            misses += cache.cache_info().misses
    overhead = 100 * (traced.query_seconds() / plain.query_seconds() - 1)
    cli_import, cli_radical = cli_probes()

    correct = True
    try:
        check_answers(og, instances, plain)
        for key, geo in traced.answers.items():
            require(geo.sq_length == plain.answers[key].sq_length, f"traced answer differs at {key}")
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    layers = layer_metrics(tracer, misses, overhead, cli_import, cli_radical)
    total, own, calls = tracer.layer_metrics()
    OUT.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "per_layer": layers,
        "span_totals_ms": total,
        "span_self_ms": own,
        "span_calls": calls,
        "counts": tracer.counts,
        "end_to_end_untraced": end_to_end(plain, None, None),
        "end_to_end_traced": end_to_end(traced, None, None),
        "spans": tracer.dump(),
    }
    (OUT / f"trace-{args.workload}.json").write_text(json.dumps(report))
    emit(correct, plain.attempted + traced.attempted, plain.failed + traced.failed,
         layers, dict(PER_LAYER))
    return 0


if __name__ == "__main__":
    sys.exit(main())
