"""End-to-end CLI tests driving orthogeo.cli.main with JSON documents."""

import io
import json
import time

import pytest

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
