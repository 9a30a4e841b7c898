"""CLI tests: exact output, round trips, exit codes, determinism."""

from fractions import Fraction
import hashlib
import itertools
import json

import pytest

import minkval.cli as cli
from minkval.bodyio import (
    FormatError,
    load_polytope,
    parse_rational,
    polytope_from_json,
    polytope_to_json,
)
from minkval.polytope import convex_hull
from minkval.valuations import (
    OPERATORS,
    SupportEvaluator,
    ValuationOp,
    apply_valuation,
)

F = Fraction


@pytest.fixture
def bodies(tmp_path):
    paths = {}

    def dump(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths[name] = str(p)

    cube = [[str(x) for x in v] for v in itertools.product((0, 1), repeat=4)]
    dump("cube.json", {"ambient_dim": 4, "vertices": cube})
    dump(
        "simplex.json",
        {
            "ambient_dim": 4,
            "vertices": [
                ["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "1", "0", "0"],
                ["0", "0", "1", "0"], ["0", "0", "0", "1"],
            ],
        },
    )
    dump("seg_m11.json", {"ambient_dim": 2, "vertices": [["-1", "0"], ["1", "0"]]})
    dump("seg_0i.json", {"ambient_dim": 2, "vertices": [["0", "0"], ["0", "1"]]})
    dump("seg_e4.json", {"ambient_dim": 4, "vertices": [["0", "0", "0", "0"], ["0", "0", "0", "1"]]})
    dump(
        "redundant.json",
        {
            "ambient_dim": 4,
            "vertices": cube + [["1/2", "1/2", "1/2", "1/2"], ["0", "0", "0", "0"]],
        },
    )
    # a 6-vertex pyramid over a pyramid over the unit square, with 6 facets
    dump(
        "pyramid6.json",
        {
            "ambient_dim": 4,
            "vertices": [
                ["0", "0", "0", "0"], ["1", "0", "0", "0"], ["0", "1", "0", "0"],
                ["1", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"],
            ],
        },
    )
    dump("triangle.json", {"ambient_dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]})
    dump("seg_tilted.json", {"ambient_dim": 2, "vertices": [["-1", "0"], ["1", "1"]]})
    dump("dirs.json", [["1", "0", "0", "0"], ["1", "1", "1", "1"]])
    dump("bad_decimal.json", {"ambient_dim": 2, "vertices": [["0.5", "1"], ["0", "0"]]})
    return paths


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- basic commands ---------------------------------------------------------------


def test_volume_cube(bodies, capsys):
    code, out, _ = run(capsys, ["volume", bodies["cube.json"]])
    assert code == 0
    assert out.strip() == "1"


def test_volume_simplex(bodies, capsys):
    code, out, _ = run(capsys, ["volume", bodies["simplex.json"]])
    assert code == 0
    assert out.strip() == "1/24"


def test_support_direction(bodies, capsys):
    code, out, _ = run(capsys, ["support", bodies["cube.json"], "--dir", "1,-1,2,0"])
    assert code == 0
    assert out.strip() == "3"


def test_hull_canonicalizes(bodies, capsys):
    code, out, _ = run(capsys, ["hull", bodies["redundant.json"]])
    assert code == 0
    payload = json.loads(out)
    assert payload["ambient_dim"] == 4
    assert len(payload["vertices"]) == 16
    assert ["1/2", "1/2", "1/2", "1/2"] not in payload["vertices"]
    values = [tuple(F(x) for x in v) for v in payload["vertices"]]
    assert values == sorted(values)


def test_mixed_known_value(bodies, capsys):
    code, out, _ = run(
        capsys,
        ["mixed", bodies["cube.json"], bodies["cube.json"], bodies["cube.json"], bodies["seg_e4.json"]],
    )
    assert code == 0
    assert out.strip() == "1/4"


def test_op_support_query(bodies, capsys):
    code, out, _ = run(
        capsys,
        ["op", "pi_n", "--body", bodies["cube.json"], "--N", bodies["seg_m11.json"],
         "--dir", "1,0,0,0"],
    )
    assert code == 0
    assert out.strip() == "1/2"


def test_op_writes_roundtrip_body(bodies, capsys, tmp_path):
    out_file = str(tmp_path / "out.json")
    code, _, _ = run(
        capsys,
        ["op", "diff", "--body", bodies["cube.json"], "--out", out_file],
    )
    assert code == 0
    payload = json.loads(open(out_file).read())
    assert payload["space"] == "W"
    assert payload["operator"] == "diff"
    body = polytope_from_json(payload)
    cube = convex_hull(list(itertools.product((0, 1), repeat=4)))
    assert body == apply_valuation(ValuationOp("diff"), cube)


def test_op_dual_output_tagged(bodies, capsys, tmp_path):
    out_file = str(tmp_path / "proj.json")
    code, _, _ = run(capsys, ["op", "proj", "--body", bodies["simplex.json"], "--out", out_file])
    assert code == 0
    payload = json.loads(open(out_file).read())
    assert payload["space"] == "W_dual"
    simplex = load_polytope(bodies["simplex.json"])
    assert polytope_from_json(payload) == apply_valuation(ValuationOp("proj"), simplex).body


def test_op_covariant_wrapper_kind(bodies, capsys, tmp_path):
    out_file = str(tmp_path / "cov.json")
    code, out, _ = run(
        capsys,
        ["op", "cov_of:pi_n", "--body", bodies["cube.json"], "--N", bodies["seg_m11.json"],
         "--dir", "0,0,1,0", "--out", out_file],
    )
    assert code == 0
    payload = json.loads(open(out_file).read())
    assert payload["space"] == "W"
    assert payload["operator"] == "cov_of:pi_n"
    body = polytope_from_json(payload)
    assert body.support((0, 0, 1, 0)) == F(out.strip())


# sha256 of `op <token> --out` on pyramid6.json with M = triangle.json and
# N = seg_tilted.json, recorded before the operator dispatch was rewritten
PINNED_OUT = {
    "proj": "b2e156ad633b7558e68079567a965817b52ac21704ca5e12fab973df6ce0cb94",
    "diff": "8269404f36c432ca6e968cb4afbbd107b13842016b5cbd5cd31e28b7174f7b5b",
    "d_m": "145d800053f8f1b309366a92f8f22198d49ecd67feb229cd28c728a713876acd",
    "pi_n": "9cbadd0a87988ea640a1fc5a7356fd5db8179f888ddf55a8008440441960a602",
    "dtilde_m": "702291890aaa58cb91427cb6da925aa05dfd93b5d58fcdbe27f97556329d10b0",
    "z_combined": "06bb500bdb415ebfbb68b9bb037ead0caee1fcd6ce22036392885231f10ac09d",
    "cov_of:proj": "306848eb72780033d91bb30694f50c38af91ce1c6de5f20b7d51b181ced92fb5",
    "cov_of:pi_n": "d82600d0e9816916a51ee6ff0d860824928efce712db57de85d040da9c1c8aa9",
    "cov_of:dtilde_m": "1acf883c41fcc83f34f2a4d45aff4ec6cfab0ac433e1c4d5e12f1d96ba7bbe3f",
    # recorded before the reconstructions became summand groups
    "cov_of:z_combined": "37c9db402cff5cdc9394c297007fdc315a2847816fdff90084f529d41847dff3",
}


@pytest.mark.parametrize("kind", PINNED_OUT)
def test_op_out_bytes_pinned(bodies, capsys, tmp_path, kind):
    out_file = tmp_path / "out.json"
    params = OPERATORS[kind.removeprefix("cov_of:")].params
    argv = ["op", kind, "--body", bodies["pyramid6.json"], "--out", str(out_file)]
    if "M" in params:
        argv += ["--M", bodies["triangle.json"]]
    if "N" in params:
        argv += ["--N", bodies["seg_tilted.json"]]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (0, "", "")
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED_OUT[kind]


def test_decompose_table(bodies, capsys):
    code, out, _ = run(
        capsys,
        ["decompose", "z_combined", "--body", bodies["cube.json"],
         "--dirs", bodies["dirs.json"], "--M", bodies["seg_0i.json"],
         "--N", bodies["seg_m11.json"]],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["op"] == "z_combined"
    for row in payload["coefficients"]:
        assert row[0] == "0" and row[2] == "0" and row[4] == "0"
        assert row[1] != "0" and row[3] != "0"


@pytest.mark.parametrize("kind", ["proj", "diff"])
@pytest.mark.parametrize("length", [3, 5])
def test_decompose_rejects_wrong_length_direction(bodies, capsys, tmp_path, kind, length):
    d = ["1"] + ["0"] * (length - 1)
    path = tmp_path / "short_dirs.json"
    path.write_text(json.dumps([d]))
    code, out, err = run(
        capsys, ["decompose", kind, "--body", bodies["cube.json"], "--dirs", str(path)]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    ev = SupportEvaluator(ValuationOp(kind), convex_hull(list(itertools.product((0, 1), repeat=4))))
    with pytest.raises(ValueError):
        ev.at(tuple(F(x) for x in d))


def test_verify_smoke_and_determinism(capsys):
    code1, out1, _ = run(capsys, ["verify", "--seed", "11", "--trials", "2"])
    assert code1 == 0
    lines = [json.loads(line) for line in out1.strip().splitlines()]
    assert all(rec["status"] == "pass" for rec in lines)
    assert {rec["check"] for rec in lines} >= {"valuation_additivity", "equivariance"}
    code2, out2, _ = run(capsys, ["verify", "--seed", "11", "--trials", "2"])
    assert code2 == 0
    assert out1 == out2


def test_verify_zero_trials(capsys):
    code, out, _ = run(capsys, ["verify", "--trials", "0"])
    assert code == 0
    assert out.strip() == ""


def test_verify_only_filter(capsys):
    code, out, _ = run(capsys, ["verify", "--seed", "3", "--trials", "1", "--only", "known_values"])
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(recs) == 1 and recs[0]["check"] == "known_values"


@pytest.mark.parametrize("args", [["--trials", "-1"], ["--only", "nope"]])
def test_verify_bad_arguments_exit_two(capsys, args):
    code, out, err = run(capsys, ["verify", *args])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    from minkval.harness import PropertyReport

    monkeypatch.setattr(
        cli, "run_suite",
        lambda **kw: [PropertyReport("stub", 0, 1, "fail", {"why": "stub"})],
    )
    code, out, _ = run(capsys, ["verify", "--trials", "1"])
    assert code == 1
    assert json.loads(out.strip())["status"] == "fail"


def test_sample_csv(bodies, capsys, tmp_path):
    csv_file = str(tmp_path / "sample.csv")
    code, _, _ = run(
        capsys,
        ["sample", "proj", "--body", bodies["cube.json"], "--sphere-grid", "1",
         "--csv", csv_file],
    )
    assert code == 0
    lines = open(csv_file).read().splitlines()
    assert lines[0].startswith("#") and "lossy" in lines[0]
    assert lines[1] == "w1,w2,w3,w4,h"
    assert len(lines) > 10
    first = lines[2].split(",")
    assert len(first) == 5
    # determinism
    csv2 = str(tmp_path / "sample2.csv")
    run(capsys, ["sample", "proj", "--body", bodies["cube.json"], "--sphere-grid", "1",
                 "--csv", csv2])
    assert open(csv2).read() == open(csv_file).read()


# -- error handling -----------------------------------------------------------------


def test_decimal_input_rejected(bodies, capsys):
    code, _, err = run(capsys, ["volume", bodies["bad_decimal.json"]])
    assert code == 2
    assert "decimal" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, ["volume", "/nonexistent/file.json"])
    assert code == 2
    assert "file.json" in err


def test_unknown_kind(bodies, capsys):
    code, _, err = run(capsys, ["op", "nope", "--body", bodies["cube.json"], "--dir", "1,0,0,0"])
    assert code == 2
    assert "unknown operator kind" in err


@pytest.mark.parametrize(
    "kind,params",
    [
        ("cov_of:nope", []),
        ("cov_of:cov_of:proj", []),
        ("cov_of:diff", []),
        ("cov_of:pi_n", []),
        ("cov_of:pi_n", ["--M", "triangle.json", "--N", "seg_m11.json"]),
    ],
    ids=["unknown", "nested", "covariant", "missing_N", "stray_M"],
)
def test_bad_cov_of_token_exits_two(bodies, capsys, kind, params):
    argv = ["op", kind, "--body", bodies["cube.json"], "--dir", "1,0,0,0"]
    argv += [bodies.get(x, x) for x in params]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and repr(kind) in err


def test_missing_parameter_body(bodies, capsys):
    code, _, err = run(capsys, ["op", "pi_n", "--body", bodies["cube.json"], "--dir", "1,0,0,0"])
    assert code == 2
    assert "requires N" in err


def test_dimension_mismatch_reports_file(bodies, capsys):
    code, _, err = run(
        capsys,
        ["mixed", bodies["cube.json"], bodies["cube.json"], bodies["cube.json"],
         bodies["seg_m11.json"]],
    )
    assert code == 2
    assert "seg_m11.json" in err and "ambient_dim" in err


def test_bad_direction_count(bodies, capsys):
    code, _, err = run(capsys, ["support", bodies["cube.json"], "--dir", "1,2"])
    assert code == 2
    assert "4" in err


@pytest.mark.parametrize(
    "coord,message",
    # JSON true is a bool, which Python treats as the int 1
    [("true", "True"), ('"1/0"', "zero denominator")],
)
def test_bad_coordinate_exits_two(tmp_path, capsys, coord, message):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"ambient_dim": 2, "vertices": [[{coord}, "0"], ["1", "0"], ["0", "1"]]}}')
    for argv in (["hull", str(path)], ["support", str(path), "--dir", "1,0"]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert message in err


@pytest.mark.parametrize("command", ["op", "op_dir", "sample"])
def test_unwritable_output_exits_two(bodies, capsys, tmp_path, command):
    target = str(tmp_path / "no" / "such" / "out")
    argv = {
        "op": ["op", "diff", "--body", bodies["cube.json"], "--out", target],
        "op_dir": ["op", "diff", "--body", bodies["cube.json"], "--dir", "1,0,0,0",
                   "--out", target],
        "sample": ["sample", "diff", "--body", bodies["cube.json"], "--sphere-grid", "1",
                   "--csv", target],
    }[command]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["volume", "decompose"])
def test_deeply_nested_json_exits_two(bodies, capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    argv = {
        "volume": ["volume", str(path)],
        "decompose": ["decompose", "diff", "--body", bodies["cube.json"], "--dirs", str(path)],
    }[command]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path} is not valid JSON")
    assert err.count(str(path)) == 1 and err.count("\n") == 1


def test_usage_error_exit_two(capsys):
    assert cli.main(["nope-command"]) == 2
    assert cli.main([]) == 2


# -- wire formats directly -------------------------------------------------------------


def test_parse_rational_strictness():
    assert parse_rational("-3/7") == F(-3, 7)
    assert parse_rational(5) == 5
    for bad in ("1.5", "1e3", "x", "3/", None, 2.5, True, False, "1/0", "-0/0"):
        with pytest.raises(FormatError):
            parse_rational(bad)


def test_polytope_json_roundtrip():
    P = convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (F(1, 3), F(-2, 7), 1, 0), (0, 0, 0, 1)])
    payload = polytope_to_json(P)
    assert polytope_from_json(payload) == P
    values = [tuple(F(x) for x in v) for v in payload["vertices"]]
    assert values == sorted(values)
