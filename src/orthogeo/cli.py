"""Command-line interface.

Hosts and points travel as JSON files ('-' reads stdin).  A host document
carries a "kind" field ("poset", "pip", or "graph" for a pip without order
pairs), overridable with --as.  Points are {"coeffs": {element: rational}}
for poset hosts and {"coords": {vertex: rational}} for pip hosts; rationals
are "num/den" strings or integers.  Results go to stdout as JSON (floats at
12 significant digits, exact rationals as "num/den"), domain errors to
stderr with exit code 1, usage and parse errors with exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .arch import is_concave, v_sq
from .engine import geodesic, geodesic_median
from .errors import InvalidPoint, OrthogeoError
from .points import Point, as_fraction, check_b_point, check_point
from .poset import GradedPoset, Pip, classify, ideal_name, stable_ideals


class UsageError(Exception):
    """Malformed invocation or input document; exits with code 2."""


def _read_json(path: str):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from None
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise UsageError(f"{path!r} is not JSON: {exc}") from None


def _array(value, field: str) -> list:
    """A host field's value, which must be a JSON array: a string would
    otherwise unpack into its characters."""
    if not isinstance(value, list):
        raise UsageError(f"host field {field!r} must be a JSON array")
    return value


def _pairs(doc, field: str) -> list:
    pairs = _array(doc.get(field, []), field)
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise UsageError(f"host field {field!r} must hold 2-element arrays")
    return [(str(a), str(b)) for a, b in pairs]


def load_host(doc, kind_override=None):
    if not isinstance(doc, dict):
        raise UsageError("host document must be a JSON object")
    kind = kind_override or doc.get("kind")
    if kind is None:
        raise UsageError("host JSON needs a 'kind' field, or pass --as")
    try:
        if kind == "poset":
            elements = [str(e) for e in _array(doc["elements"], "elements")]
            return GradedPoset(elements, _pairs(doc, "covers"))
        if kind in ("pip", "graph"):
            if kind == "graph" and doc.get("order"):
                raise UsageError("a graph host cannot carry order pairs; use kind 'pip'")
            vertices = [str(v) for v in _array(doc["vertices"], "vertices")]
            return Pip(vertices, _pairs(doc, "edges"), _pairs(doc, "order"))
    except KeyError as exc:
        raise UsageError(f"host JSON is missing the {exc.args[0]!r} field") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed host JSON: {exc}") from None
    raise UsageError(f"unknown host kind {kind!r}")


def load_point(doc, host):
    if not isinstance(doc, dict):
        raise UsageError("point document must be a JSON object")
    try:
        if isinstance(host, Pip):
            if not isinstance(doc.get("coords"), dict):
                raise UsageError("pip hosts take points as {'coords': {vertex: rational}}")
            return {str(k): as_fraction(v) for k, v in doc["coords"].items()}
        if not isinstance(doc.get("coeffs"), dict):
            raise UsageError("poset hosts take points as {'coeffs': {element: rational}}")
        return Point({str(k): as_fraction(v) for k, v in doc["coeffs"].items()})
    except InvalidPoint as exc:
        raise UsageError(str(exc)) from None


def _host_and_points(args, count):
    host = load_host(_read_json(args.host), args.kind)
    points = [load_point(_read_json(p), host) for p in (args.x, args.y)[:count]]
    return host, points


def fmt_float(v: float) -> float:
    return float(f"{v:.12g}")


def _emit(doc) -> int:
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _coords_of(p) -> dict:
    return p.coeffs if isinstance(p, Point) else p


def _point_doc(p) -> dict:
    return {str(k): str(v) for k, v in sorted(_coords_of(p).items())}


def _arch_members_doc(arch, host):
    if isinstance(host, Pip):
        return [ideal_name(m) for m in arch.members]
    return [str(m) for m in arch.members]


# -- subcommands --------------------------------------------------------------


def cmd_validate(args) -> int:
    host = load_host(_read_json(args.host), args.kind)
    if isinstance(host, Pip):
        doc = {
            "ok": True,
            "kind": "pip",
            "vertices": len(host.ids),
            "edges": len(host.edges),
            "order_pairs": host.order_pair_count(),
        }
    else:
        doc = {"ok": True, "kind": "poset", "elements": len(host.ids)}
    checked = 0
    for path in args.points:
        pt = load_point(_read_json(path), host)
        if isinstance(host, Pip):
            check_b_point(host, pt)
        else:
            check_point(host, pt)
        checked += 1
    doc["points_checked"] = checked
    return _emit(doc)


def cmd_classify(args) -> int:
    host = load_host(_read_json(args.host), args.kind)
    if isinstance(host, Pip):
        ideals = stable_ideals(host)
        doc = {
            "kind": "pip",
            "stable_ideals": len(ideals.ids),
            "flags": classify(ideals),
        }
    else:
        doc = {"kind": "poset", "flags": classify(host)}
    return _emit(doc)


def _compute(host, x, y, compute_path):
    if isinstance(host, Pip):
        return geodesic_median(host, x, y, compute_path=compute_path)
    return geodesic(host, x, y, compute_path=compute_path)


def cmd_dist(args) -> int:
    host, (x, y) = _host_and_points(args, 2)
    geo = _compute(host, x, y, compute_path=False)
    return _emit({"length": fmt_float(geo.length)})


def cmd_geodesic(args) -> int:
    host, (x, y) = _host_and_points(args, 2)
    geo = _compute(host, x, y, compute_path=True)
    path = geo.bpath if isinstance(host, Pip) else geo.path
    if args.samples is not None:
        if args.samples < 2:
            raise UsageError("--samples must be at least 2")
        times = [Fraction(i, args.samples - 1) for i in range(args.samples)]
        rows = [(t, _coords_of(path.point_at(t))) for t in times]
        keys = sorted({k for _, coords in rows for k in coords})
        writer = csv.writer(sys.stdout)
        writer.writerow(["t", *keys])
        for t, coords in rows:
            writer.writerow(
                [f"{float(t):.12g}"]
                + [f"{float(coords.get(k, 0)):.12g}" for k in keys]
            )
        return 0
    doc = {
        "length": fmt_float(geo.length),
        "case": geo.case,
        "arch": _arch_members_doc(geo.arch, host) if geo.arch else None,
        "breakpoints": [
            {"t": str(as_fraction(t)), "point": _point_doc(p)}
            for t, p in path.breakpoints
        ],
    }
    return _emit(doc)


def cmd_arch(args) -> int:
    from .oracle import enumerate_arches
    host, (x, y) = _host_and_points(args, 2)
    rows = []
    for arch, v in enumerate_arches(host, x, y):
        rows.append(
            {
                "members": _arch_members_doc(arch, host),
                "v": fmt_float(v),
                "v_sq": repr(v_sq(arch)),
                "concave": is_concave(arch),
            }
        )
    return _emit({"arches": rows})


def cmd_oracle(args) -> int:
    from .oracle import oracle_distance
    host, (x, y) = _host_and_points(args, 2)
    length = oracle_distance(host, x, y, n=args.refine)
    return _emit({"length": fmt_float(length), "refine": args.refine})


def cmd_cat0_check(args) -> int:
    from .oracle import cat0_check
    host = load_host(_read_json(args.host), args.kind)
    report = cat0_check(host, k=args.samples, seed=args.seed)
    doc = {
        "samples": report["samples"],
        "max_violation": fmt_float(report["max_violation"]),
        "worst_case": None,
    }
    if report["worst_case"] is not None:
        wc = report["worst_case"]
        doc["worst_case"] = {
            "sample": wc["sample"],
            "t": wc["t"],
            "excess": fmt_float(wc["excess"]),
        }
    return _emit(doc)


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthogeo",
        description="Exact distances and unique geodesics in orthoscheme complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, points=0, host=True):
        p = sub.add_parser(name, help=help_text)
        if host:
            p.add_argument("host", help="host JSON file, or - for stdin")
            p.add_argument(
                "--as",
                dest="kind",
                choices=["pip", "graph", "poset"],
                help="override the host kind",
            )
        if points >= 2:
            p.add_argument("x", help="first point JSON file")
            p.add_argument("y", help="second point JSON file")
        p.set_defaults(func=fn)
        return p

    p = add("validate", cmd_validate, "check a host (and optionally points)")
    p.add_argument("points", nargs="*", help="point JSON files to check")

    add("classify", cmd_classify, "structural flags of a host")
    add("dist", cmd_dist, "distance between two points", points=2)

    p = add("geodesic", cmd_geodesic, "geodesic path between two points", points=2)
    p.add_argument(
        "--samples",
        type=int,
        help="emit a CSV of this many evenly spaced path points instead of JSON",
    )

    add("arch", cmd_arch, "enumerate all staircases with exact lengths", points=2)

    p = add("oracle", cmd_oracle, "grid upper bound on the distance", points=2)
    p.add_argument("--refine", type=int, default=8, help="grid refinement (default 8)")

    p = add("cat0-check", cmd_cat0_check, "random convexity probe of the metric")
    p.add_argument("--samples", type=int, default=200, help="number of probes")
    p.add_argument("--seed", type=int, default=0, help="base random seed")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OrthogeoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
