"""End-to-end CLI tests driving orthogeo.cli.main with JSON documents."""

import contextlib
import io
import json
import os
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import run_python
from orthogeo.cli import main

QUAD_HOST = {
    "kind": "pip",
    "vertices": ["b1", "b2", "c1", "c2"],
    "edges": [["b1", "c2"], ["b2", "c1"]],
}
EDGE_HOST = {"kind": "pip", "vertices": ["b", "c"], "edges": [["b", "c"]]}
M3_HOST = {
    "kind": "poset",
    "elements": ["0", "a", "b", "c", "1"],
    "covers": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
}
QX_DOC = {"coords": {"b1": 1, "b2": "2/5"}}
QY_DOC = {"coords": {"c1": "1/2", "c2": 1}}


@pytest.fixture
def write(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_validate_pip(write, capsys):
    host = write("host.json", QUAD_HOST)
    x = write("x.json", QX_DOC)
    y = write("y.json", QY_DOC)
    doc = run_json(capsys, ["validate", host, x, y])
    assert doc == {
        "ok": True,
        "kind": "pip",
        "vertices": 4,
        "edges": 2,
        "order_pairs": 0,
        "points_checked": 2,
    }


def test_validate_poset(write, capsys):
    host = write("m3.json", M3_HOST)
    pt = write("pt.json", {"coeffs": {"a": "1/2", "0": "1/2"}})
    doc = run_json(capsys, ["validate", host, pt])
    assert doc == {"ok": True, "kind": "poset", "elements": 5, "points_checked": 1}


def test_classify_pip(write, capsys):
    host = write("host.json", QUAD_HOST)
    doc = run_json(capsys, ["classify", host])
    assert doc["kind"] == "pip"
    assert doc["stable_ideals"] == 9
    assert doc["flags"]["median_semilattice"] is True
    assert doc["flags"]["lattice"] is False


def test_classify_poset(write, capsys):
    host = write("m3.json", M3_HOST)
    doc = run_json(capsys, ["classify", host])
    assert doc["kind"] == "poset"
    assert doc["flags"]["modular"] is True
    assert doc["flags"]["distributive"] is False
    assert "stable_ideals" not in doc


def test_dist(write, capsys):
    host = write("host.json", EDGE_HOST)
    x = write("x.json", {"coords": {"b": "1/2"}})
    y = write("y.json", {"coords": {"c": "1/2"}})
    doc = run_json(capsys, ["dist", host, x, y])
    assert doc == {"length": 1.0}


def test_dist_closes_its_input_files(write):
    host = write("host.json", QUAD_HOST)
    x = write("x.json", QX_DOC)
    y = write("y.json", QY_DOC)
    args = ["-X", "dev", "-W", "error::ResourceWarning", "-m", "orthogeo.cli"]
    proc = run_python(args + ["dist", host, x, y])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"length": 2.19317121995}
    assert proc.stderr == ""


def test_geodesic_json(write, capsys):
    host = write("host.json", QUAD_HOST)
    x = write("x.json", QX_DOC)
    y = write("y.json", QY_DOC)
    doc = run_json(capsys, ["geodesic", host, x, y])
    assert doc["length"] == pytest.approx(2.1931712199461306, abs=1e-9)
    assert doc["case"] == "P2"
    assert doc["arch"] == ["{b1,b2}", "{b1,c1}", "{c1,c2}"]
    assert [bp["t"] for bp in doc["breakpoints"]] == ["0", "4/9", "1/2", "1"]
    assert doc["breakpoints"][1]["point"] == {"b1": "1/9"}
    assert doc["breakpoints"][0]["point"] == {"b1": "1", "b2": "2/5"}


def test_geodesic_poset_host(write, capsys):
    host = write("m3.json", M3_HOST)
    x = write("x.json", {"coeffs": {"a": 1}})
    y = write("y.json", {"coeffs": {"b": 1}})
    doc = run_json(capsys, ["geodesic", host, x, y])
    assert doc["length"] == pytest.approx(2**0.5, abs=1e-9)
    assert doc["case"] == "P1"
    assert doc["arch"] is None
    mid = [bp for bp in doc["breakpoints"] if bp["t"] == "1/2"]
    assert mid and mid[0]["point"] == {"0": "1/2", "1": "1/2"}


def test_geodesic_samples_csv(write, capsys):
    host = write("host.json", QUAD_HOST)
    x = write("x.json", QX_DOC)
    y = write("y.json", QY_DOC)
    code, out, err = run(capsys, ["geodesic", host, x, y, "--samples", "5"])
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["t", "b1", "b2", "c1", "c2"]
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0 and float(first[2]) == 0.4
    last = lines[-1].split(",")
    assert last[0] == "1" and float(last[3]) == 0.5 and float(last[4]) == 1.0


def test_geodesic_samples_too_few(write, capsys):
    host = write("host.json", QUAD_HOST)
    x = write("x.json", QX_DOC)
    y = write("y.json", QY_DOC)
    code, out, err = run(capsys, ["geodesic", host, x, y, "--samples", "1"])
    assert code == 2
    assert "samples" in err


def test_arch_listing(write, capsys):
    host = write("host.json", QUAD_HOST)
    x = write("x.json", QX_DOC)
    y = write("y.json", QY_DOC)
    doc = run_json(capsys, ["arch", host, x, y])
    rows = doc["arches"]
    assert len(rows) == 3
    assert rows[0]["members"] == ["{b1,b2}", "{b1,c1}", "{c1,c2}"]
    assert rows[0]["concave"] is True
    assert rows[0]["v_sq"] == "481/100"
    assert rows[1]["concave"] is False
    assert rows[2]["v_sq"] == "241/100 + 1/5*sqrt(145)"
    assert rows[0]["v"] <= rows[2]["v"]


def test_oracle_command(write, capsys):
    host = write("host.json", QUAD_HOST)
    x = write("x.json", QX_DOC)
    y = write("y.json", QY_DOC)
    doc = run_json(capsys, ["oracle", host, x, y, "--refine", "4"])
    assert doc["refine"] == 4
    assert doc["length"] >= 2.19317 - 1e-6


def test_cat0_check_command(write, capsys):
    host = write("host.json", EDGE_HOST)
    doc = run_json(capsys, ["cat0-check", host, "--samples", "5", "--seed", "2"])
    assert doc["samples"] == 5
    assert doc["max_violation"] <= 1e-6


def test_cat0_check_negative_samples_exits_1(write, capsys):
    host = write("host.json", EDGE_HOST)
    code, out, err = run(capsys, ["cat0-check", host, "--samples", "-3"])
    assert code == 1 and out == ""
    assert "InvalidStructure" in err and "-3" in err
    # zero probes is an empty but honest report
    assert run_json(capsys, ["cat0-check", host, "--samples", "0"])["samples"] == 0


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "graph", "vertices": [], "edges": []},
        {"kind": "poset", "elements": [], "covers": []},
    ],
)
def test_cat0_check_empty_host_exits_1(write, capsys, doc):
    host = write("host.json", doc)
    code, out, err = run(capsys, ["cat0-check", host])
    assert (code, out) == (1, "")
    assert err == "error: InvalidStructure: host is empty: there are no points to probe\n"


def test_stdin_host(write, capsys, monkeypatch):
    x = write("x.json", {"coords": {"b": "1/2"}})
    y = write("y.json", {"coords": {"c": "1/2"}})
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EDGE_HOST)))
    doc = run_json(capsys, ["dist", "-", x, y])
    assert doc == {"length": 1.0}


def test_as_override(write, capsys):
    bare = {k: v for k, v in QUAD_HOST.items() if k != "kind"}
    host = write("host.json", bare)
    doc = run_json(capsys, ["classify", host, "--as", "pip"])
    assert doc["stable_ideals"] == 9
    code, out, err = run(capsys, ["classify", host])
    assert code == 2 and "kind" in err


def test_graph_kind_rejects_order(write, capsys):
    host = write(
        "host.json",
        {"vertices": ["u", "v", "c"], "edges": [["u", "c"], ["v", "c"]], "order": [["u", "v"]]},
    )
    code, out, err = run(capsys, ["classify", host, "--as", "graph"])
    assert code == 2 and "order" in err
    doc = run_json(capsys, ["classify", host, "--as", "pip"])
    assert doc["stable_ideals"] == 4


def test_domain_error_exits_1(write, capsys):
    host = write("host.json", EDGE_HOST)
    x = write("x.json", {"coords": {"b": "3/2"}})
    y = write("y.json", {"coords": {"c": "1/2"}})
    code, out, err = run(capsys, ["dist", host, x, y])
    assert code == 1
    assert "InvalidPoint" in err


def test_invalid_host_structure_exits_1(write, capsys):
    host = write(
        "host.json",
        {"kind": "pip", "vertices": ["u", "v", "c"], "edges": [["u", "c"]], "order": [["u", "v"]]},
    )
    code, out, err = run(capsys, ["classify", host])
    assert code == 1
    assert "InvalidStructure" in err


def test_usage_errors_exit_2(write, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, ["classify", str(bad)])
    assert code == 2 and "not JSON" in err

    code, out, err = run(capsys, ["classify", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in err

    host = write("host.json", {"kind": "zebra", "vertices": []})
    code, out, err = run(capsys, ["classify", host])
    assert code == 2 and "unknown host kind" in err

    host = write("host2.json", {"kind": "pip"})
    code, out, err = run(capsys, ["classify", host])
    assert code == 2 and "vertices" in err


def test_wrong_point_shape_exits_2(write, capsys):
    host = write("host.json", EDGE_HOST)
    y = write("y.json", {"coords": {"c": "1/2"}})
    cases = [
        ({"coeffs": {"b": "1/2"}}, "coords"),
        ({"coords": [1, 2]}, "coords"),
        ({"coords": {"b": True}}, "not a rational"),
    ]
    for doc, message in cases:
        x = write("x.json", doc)
        code, out, err = run(capsys, ["dist", host, x, y])
        assert code == 2 and message in err and out == ""
    m3 = write("m3.json", M3_HOST)
    for doc in ({"coeffs": ["a"]}, {"coeffs": None}):
        x = write("x.json", doc)
        code, out, err = run(capsys, ["dist", m3, x, x])
        assert code == 2 and "coeffs" in err


def test_float_coordinates_refused(write, capsys):
    host = write("host.json", EDGE_HOST)
    x = write("x.json", {"coords": {"b": 0.5}})
    y = write("y.json", {"coords": {"c": "1/2"}})
    code, out, err = run(capsys, ["dist", host, x, y])
    assert code == 2 and "num/den" in err


def test_non_finite_coordinates_refused(tmp_path, write, capsys):
    host = write("host.json", EDGE_HOST)
    y = write("y.json", {"coords": {"c": "1/2"}})
    for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
        x = tmp_path / "x.json"
        x.write_text('{"coords": {"b": %s}}' % literal, encoding="utf-8")
        code, out, err = run(capsys, ["dist", host, str(x), y])
        assert code == 2 and err.startswith("usage error:"), (literal, err)
        assert out == ""


def test_host_fields_must_be_arrays(write, capsys):
    # a string would unpack into its characters and pass as names or a pair
    cases = [
        ({"kind": "pip", "vertices": ["a", "b"], "edges": ["ab"]}, "'edges'"),
        ({"kind": "pip", "vertices": "ab"}, "'vertices'"),
        ({"kind": "pip", "vertices": ["a", "b"], "order": "ab"}, "'order'"),
        ({"kind": "pip", "vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]}, "'edges'"),
        ({"kind": "poset", "elements": "abc"}, "'elements'"),
        ({"kind": "poset", "elements": ["a", "b"], "covers": [["a", "b"], "ab"]}, "'covers'"),
        ({"kind": "poset", "elements": ["a", "b"], "covers": {"a": "b"}}, "'covers'"),
    ]
    for doc, field in cases:
        code, out, err = run(capsys, ["validate", write("host.json", doc)])
        assert code == 2 and err.startswith("usage error:") and field in err, (doc, err)


def test_missing_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["geodesic"])
    assert exc.value.code == 2


def test_output_is_deterministic(write, capsys):
    host = write("host.json", QUAD_HOST)
    x = write("x.json", QX_DOC)
    y = write("y.json", QY_DOC)
    code1, out1, _ = run(capsys, ["geodesic", host, x, y])
    code2, out2, _ = run(capsys, ["geodesic", host, x, y])
    assert code1 == code2 == 0
    assert out1 == out2


def test_size_cap_env(write, capsys, monkeypatch):
    monkeypatch.setenv("ORTHOGEO_SIZE_CAP", "100")
    host = write(
        "host.json",
        {"kind": "pip", "vertices": [f"v{i}" for i in range(25)], "edges": []},
    )
    code, out, err = run(capsys, ["classify", host])
    assert code == 1
    assert "SizeCap" in err


def test_arch_size_cap_on_large_host(write, monkeypatch):
    monkeypatch.delenv("ORTHOGEO_SIZE_CAP", raising=False)
    # 24 + 24 vertices, each b joined to two c: 2^48 subsets to scan.  The
    # address-space cap keeps a run without the guard from taking the machine
    bs = [f"b{i}" for i in range(24)]
    cs = [f"c{i}" for i in range(24)]
    edges = [[b, cs[k]] for i, b in enumerate(bs) for k in (i, (i + 1) % 24)]
    host = write("host.json", {"kind": "pip", "vertices": bs + cs, "edges": edges})
    x = write("x.json", {"coords": {b: "1/2" for b in bs}})
    y = write("y.json", {"coords": {c: "1/2" for c in cs}})
    t0 = time.perf_counter()
    proc = run_python(["-m", "orthogeo.cli", "arch", host, x, y], memory_mb=1024)
    assert time.perf_counter() - t0 < 10.0
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        "error: SizeCap: arch enumeration scans 2^48 vertex subsets, over cap 1000000"
    ]


BIG_INTEGER = "1" * 5001  # one digit over int's default string-conversion limit


@pytest.mark.parametrize(
    "command, host, x, message",
    [
        # refused before Fraction() spends seconds building 10**10000000
        ("dist", M3_HOST, '{"coeffs": {"a": "1e10000000"}}', "over 4300 digits"),
        # past the digits that int converts to and from a string
        ("validate", M3_HOST, '{"coeffs": {"a": "1e5000"}}', "over 4300 digits"),
        ("dist", M3_HOST, '{"coeffs": {"a": %s}}' % BIG_INTEGER, "is not JSON"),
        ("geodesic", QUAD_HOST, '{"coords": {"b1": "1e-5000"}}', "over 4300 digits"),
        # past the nesting that json.loads can parse
        ("validate", M3_HOST, "[" * 100000, "is not JSON"),
    ],
    ids=["1e10000000", "1e5000", "5001-digit-integer", "1e-5000", "deep-nesting"],
)
def test_oversized_input_is_a_usage_error(tmp_path, write, capsys, command, host, x, message):
    x_path = tmp_path / "x.json"
    x_path.write_text(x, encoding="utf-8")
    argv = [command, write("host.json", host), str(x_path)]
    if command != "validate":
        argv.append(write("y.json", {"coeffs": {"b": 1}} if host is M3_HOST else QY_DOC))
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and message in err, err


# -- fuzzing the whole command line with malformed documents ------------------

NAMES = ["0", "a", "b", "c", "1", "b1", "b2", "c1", "c2"]
HOSTS = [
    M3_HOST,
    QUAD_HOST,
    EDGE_HOST,
    {"kind": "graph", "vertices": ["b", "c"], "edges": []},
    {"kind": "pip", "vertices": ["b1", "b2", "c1"], "edges": [["b2", "c1"]],
     "order": [["b1", "b2"]]},
    {"kind": "poset", "elements": ["0", "a", "b", "1"],
     "covers": [["0", "a"], ["0", "b"], ["a", "1"]]},
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
rationals = st.one_of(
    st.fractions(-1, 2, max_denominator=8).map(str),
    st.integers(-2, 2),
    st.floats(),
    st.sampled_from(
        ["1/0", "", "x", " 1/2 ", "1_0/30", "0x1", "1/2/3", "1e", ".5", "2e-1", "-0", "nan",
         "1e5000", "1e-5000", "1e10000000", "9" * 4301, "1/" + "9" * 4301]
    ),
    json_values,
)
pairs = st.lists(st.lists(st.sampled_from(NAMES), min_size=2, max_size=2) | json_values, max_size=6)
RAW_TEXTS = ["", "{", "[]", "null", "[" * 100000, '{"kind": %s}' % BIG_INTEGER]


@st.composite
def host_docs(draw):
    names = draw(st.lists(st.sampled_from(NAMES), max_size=8))
    doc = {
        "kind": draw(st.sampled_from(["poset", "pip", "graph", "cube"]) | json_values),
        "elements": names,
        "vertices": names,
        "covers": draw(pairs | json_values),
        "edges": draw(pairs | json_values),
        "order": draw(pairs | json_values),
    }
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        del doc[key]
    return doc


def raw_or(draw, doc):
    """The document as JSON, or now and then one of the raw texts."""
    return draw(st.sampled_from(RAW_TEXTS)) if draw(st.integers(0, 9)) == 0 else json.dumps(doc)


@st.composite
def point_texts(draw, names):
    """A point that the host may accept (both keys, so either host kind
    reads it), or a malformed one."""
    one, two = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    mass = str(draw(st.fractions(0, 1, max_denominator=4)))
    vertex = {"coeffs": {one: 1}, "coords": {one: mass}}
    pair = {"coeffs": {one: "1/2", two: "1/2"}, "coords": {one: mass, two: "1/2"}}
    bad = draw(st.dictionaries(st.sampled_from(names) | st.text(max_size=2), rationals, max_size=4))
    wrapped = draw(
        st.sampled_from([{"coords": bad}, {"coeffs": bad}, {"coeffs": bad, "coords": bad}])
    )
    doc = draw(st.sampled_from([vertex, pair, wrapped, None]))
    return raw_or(draw, draw(json_values) if doc is None else doc)


@st.composite
def cli_inputs(draw):
    """The texts of a host file and of two point files, the points named
    after the host's elements or vertices when it has any."""
    host = draw(st.sampled_from(HOSTS) | host_docs())
    names = host.get("elements") or host.get("vertices") or NAMES
    names = [n for n in names if isinstance(n, str)] or NAMES
    return raw_or(draw, host), draw(point_texts(names)), draw(point_texts(names))


COMMANDS = ["validate", "classify", "dist", "geodesic", "arch", "oracle", "cat0-check"]


def cli_argv(command, paths, number, kind):
    """An argv for one subcommand: the host and its points, then its
    numeric option (--samples or --refine) when it has one, then --as.
    geodesic prints JSON, not CSV, when number is 3.  cat0-check probes
    nothing: a probe's distance to a point inside a hinged path can factor
    radicands of some 80 digits, which takes minutes even on 4 elements."""
    host, x, y = paths
    argv = [command, host]
    if command == "validate":
        argv += [x, y]
    elif command == "cat0-check":
        argv += ["--samples", str(min(number, 0)), "--seed", "0"]
    elif command != "classify":
        argv += [x, y]
    if command == "geodesic" and number != 3:
        argv += ["--samples", str(number)]
    if command == "oracle":
        argv += ["--refine", str(number)]
    return argv + (["--as", kind] if kind else [])


def write_texts(directory, texts):
    paths = []
    for name, text in zip(("host.json", "x.json", "y.json"), texts):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


M3_TEXT, QUAD_TEXT = json.dumps(M3_HOST), json.dumps(QUAD_HOST)
M3_POINT = '{"coeffs": {"b": 1}}'


# the oversized inputs of test_oversized_input_is_a_usage_error
@example(("dist", (M3_TEXT, '{"coeffs": {"a": "1e10000000"}}', M3_POINT), 2, None))
@example(("validate", (M3_TEXT, '{"coeffs": {"a": "1e5000"}}', M3_POINT), 2, None))
@example(("dist", (M3_TEXT, '{"coeffs": {"a": %s}}' % BIG_INTEGER, M3_POINT), 2, None))
@example(("geodesic", (QUAD_TEXT, '{"coords": {"b1": "1e-5000"}}', json.dumps(QY_DOC)), 3, None))
@given(
    st.tuples(
        st.sampled_from(COMMANDS),
        cli_inputs(),
        st.integers(-1, 3),
        st.sampled_from([None, None, None, "pip", "graph", "poset"]),
    )
)
@settings(deadline=None, max_examples=300)
def test_malformed_documents_end_in_a_documented_exit_code(case):
    command, texts, number, kind = case
    out, err = io.StringIO(), io.StringIO()
    # a low cap keeps the grid oracle and the arch scan small on any host
    with tempfile.TemporaryDirectory() as directory, mock.patch.dict(
        os.environ, {"ORTHOGEO_SIZE_CAP": "2000"}
    ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(cli_argv(command, write_texts(directory, texts), number, kind))
    assert code in (0, 1, 2), (code, err.getvalue())
    assert (code == 0) == (err.getvalue() == ""), err.getvalue()
