"""CLI tests: exact output, round trips, exit codes, determinism."""

import contextlib
from fractions import Fraction
import hashlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
import time

from hypothesis import given, settings, strategies as st
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


def test_decompose_rejects_dirs_object(bodies, capsys, tmp_path):
    path = tmp_path / "dirs_object.json"
    path.write_text(json.dumps({"dirs": [["1", "0", "0", "0"]]}))
    code, out, err = run(
        capsys, ["decompose", "diff", "--body", bodies["cube.json"], "--dirs", str(path)]
    )
    assert (code, out) == (2, "")
    assert "directions payload must be a nonempty JSON array" in err


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


def test_internal_fault_exits_three(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("stub fault")

    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    code, out, err = run(capsys, ["verify", "--trials", "1"])
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: stub fault\n"


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


def test_sample_sphere_grid_reduces_directions(bodies, capsys, tmp_path):
    # at G = 2 the grid holds each primitive direction of [-2, 2]^4 once:
    # (2, 2, 0, 0) and (1, 1, 0, 0) are one row, read at its unit vector
    csv_file = str(tmp_path / "sample.csv")
    code, _, _ = run(capsys, ["sample", "proj", "--body", bodies["cube.json"],
                              "--sphere-grid", "2", "--csv", csv_file])
    assert code == 0
    rows = [[float(x) for x in line.split(",")] for line in open(csv_file).read().splitlines()[2:]]
    dirs = [v for v in itertools.product(range(-2, 3), repeat=4) if math.gcd(*v) == 1]
    assert len(rows) == len(dirs) == 544
    ev = SupportEvaluator(ValuationOp("proj"), load_polytope(bodies["cube.json"]))
    for row, v in zip(rows, dirs):
        norm = math.sqrt(sum(x * x for x in v))
        assert row == [x / norm for x in v] + [float(ev.at(v)) / norm]


@pytest.mark.parametrize("grid", ["13", "1000000000"])
def test_sample_sphere_grid_is_capped(bodies, capsys, tmp_path, grid):
    # the cap is checked before the (2G+1)^4 walk, so even a huge G fails fast
    csv_file = tmp_path / "out.csv"
    start = time.perf_counter()
    code, out, err = run(capsys, ["sample", "proj", "--body", bodies["cube.json"],
                                  "--sphere-grid", grid, "--csv", str(csv_file)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and not csv_file.exists()
    assert err == "error: --sphere-grid must be at most 12\n"


# -- error handling -----------------------------------------------------------------


@pytest.mark.parametrize("payload,argv,message", [
    ('{"ambient_dim": 2, "vertices": [5, ["0", "0"]]}', ["hull", "bad.json"],
     "bad point 5: expected a coordinate array"),
    ('{"ambient_dim": 2, "vertices": []}', ["hull", "bad.json"],
     "polytope payload needs a nonempty vertex list"),
    ('{"ambient_dim": 2, "vertices": [', ["hull", "bad.json"], "bad.json is not valid JSON"),
    (None, ["sample", "proj", "--body", "cube.json", "--sphere-grid", "0", "--csv", "out.csv"],
     "--sphere-grid must be at least 1"),
    (None, ["op", "proj", "--body", "cube.json"], "op needs --out and/or --dir"),
], ids=["point-not-array", "no-vertices", "malformed-json", "sphere-grid-0", "op-no-output"])
def test_bad_input_exits_two(bodies, capsys, tmp_path, payload, argv, message):
    if payload is not None:
        (tmp_path / "bad.json").write_text(payload)
    paths = {**bodies, "bad.json": str(tmp_path / "bad.json"), "out.csv": str(tmp_path / "out.csv")}
    code, out, err = run(capsys, [paths.get(x, x) for x in argv])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and message in err


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


@pytest.mark.parametrize("kind,flag", [("d_m", "--M"), ("pi_n", "--N")])
def test_parameter_dimension_mismatch_reports_file(bodies, capsys, kind, flag):
    # a parameter body is read by the loader of --body, so a 4-D one names
    # its file and field as a wrong --body does
    code, out, err = run(capsys, ["op", kind, "--body", bodies["cube.json"],
                                  flag, bodies["cube.json"], "--dir", "1,0,0,0"])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "cube.json" in err and "ambient_dim" in err


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


def test_volume_with_huge_exact_result(tmp_path, capsys):
    # the result has about 4,800 digits, past Python's default int-to-str limit
    d = [10**1200 + k for k in (7, 9, 9, 11)]
    verts = [["0"] * 4] + [["0"] * i + [f"1/{di}"] + ["0"] * (3 - i) for i, di in enumerate(d)]
    path = tmp_path / "thin_simplex.json"
    path.write_text(json.dumps({"ambient_dim": 4, "vertices": verts}))
    code, out, err = run(capsys, ["volume", str(path)])
    assert (code, err) == (0, "")
    # main gives the caller its int-to-str limit back, so this parse lifts it itself
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert F(out.strip()) == F(1, 24 * d[0] * d[1] * d[2] * d[3])
    finally:
        sys.set_int_max_str_digits(limit)


def test_huge_coordinate_roundtrips_through_hull(tmp_path, capsys):
    big = "9" * 5000
    verts = [["0", "0"], [big, "0"], ["0", "1"]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"ambient_dim": 2, "vertices": verts}))
    code, out, err = run(capsys, ["hull", str(path)])
    assert (code, err) == (0, "")
    assert sorted(json.loads(out)["vertices"]) == sorted(verts)


def test_sample_value_outside_double_range_exits_two(tmp_path, capsys):
    # a support value of 10^400 has no double; --dir still prints it exactly
    big = str(10**400)
    verts = [["0"] * 4] + [["0"] * i + [big] + ["0"] * (3 - i) for i in range(4)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"ambient_dim": 4, "vertices": verts}))
    csv_file = tmp_path / "out.csv"
    code, out, err = run(capsys, ["sample", "diff", "--body", str(path), "--sphere-grid", "1",
                                  "--csv", str(csv_file)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "double range" in err and err.count("\n") == 1
    assert not csv_file.exists()
    code, out, err = run(capsys, ["op", "diff", "--body", str(path), "--dir", "1,0,0,0"])
    assert (code, out, err) == (0, big + "\n", "")


@pytest.mark.parametrize("argv,code", [
    (["verify", "--trials", "0"], 0),
    (["verify", "--trials", "-1"], 2),
    (["volume", "/no/such/body.json"], 2),
])
def test_main_restores_int_str_digit_limit(capsys, argv, code):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, argv)[0] == code
    assert sys.get_int_max_str_digits() == limit


def test_usage_error_exit_two(capsys):
    assert cli.main(["nope-command"]) == 2
    assert cli.main([]) == 2


def _cli_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_successive_calls_answer_as_fresh_processes(bodies, monkeypatch):
    # main() builds its parser once per process; every call after the first
    # must still answer exactly as the same call in a fresh interpreter:
    # several subcommands, usage errors, the help texts, then verify
    import subprocess

    monkeypatch.setenv("COLUMNS", "80")  # the help text's width
    seq = [
        ["volume", bodies["cube.json"]],
        ["support", bodies["simplex.json"], "--dir", "1,-1,2/3,0"],
        ["hull", bodies["redundant.json"]],
        ["op", "diff", "--body", bodies["simplex.json"], "--dir", "1,0,-1/2,3"],
        ["nope-command"],
        ["volume"],
        ["verify", "--trials", "x"],
        ["--help"],
        ["op", "--help"],
        ["verify", "--seed", "3", "--trials", "1", "--only", "known_values"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    reused = [_cli_captured(argv) for argv in seq]
    assert [r[0] for r in reused] == [0, 0, 0, 0, 2, 2, 2, 0, 0, 0]
    for argv, got in zip(seq, reused):
        fresh = subprocess.run([sys.executable, "-m", "minkval.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert reused[7][1].startswith("usage: minkval ") and "verify" in reused[7][1]
    assert reused[8][1].startswith("usage: minkval op ")


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


# -- boundary fuzz -----------------------------------------------------------------------

_digits30 = st.integers(min_value=10**29, max_value=10**30 - 1)


@st.composite
def _rational_text(draw):
    """A coordinate as JSON: well-formed or not, with signs, zero
    denominators, decimals, exponents and 30-digit parts."""
    num = draw(st.integers(-9, 9) | _digits30)
    den = draw(st.integers(0, 9) | _digits30)
    sign = draw(st.sampled_from(["", "+", "-", " -", "--"]))
    return draw(st.sampled_from([
        num, f"{sign}{num}", f"{sign}{num}/{den}", f"{num}.{abs(den)}", f"{num}e{den % 7}",
        f"{num}/{den}/2", float(num % 97) / 8, True, None, [f"{num}"], {"p": num},
    ]))


@st.composite
def _body_payload(draw):
    """A body payload: a well-formed body in R^2, R^3 or R^4, or one with a
    single fault: an ambient_dim from 0 to 5 or not an int, a missing field,
    a nested or non-array vertex list, a wrong-length point, a bad rational,
    or a payload of the wrong type."""
    dim = draw(st.integers(2, 4))
    good = (st.integers(-3, 3) | _digits30.map(str)
            | st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 9) | _digits30,
                        st.integers(1, 9) | _digits30).map(lambda t: f"{t[0]}{t[1]}/{t[2]}"))
    vertices = draw(st.lists(st.lists(good, min_size=dim, max_size=dim), min_size=1, max_size=6))
    body = {"ambient_dim": dim, "vertices": vertices}
    fault = draw(st.sampled_from(["none"] * 4 + ["dim", "no_dim", "no_vertices", "nested",
                                                  "not_array", "length", "rational", "type"]))
    if fault == "dim":
        body["ambient_dim"] = draw(st.sampled_from([0, 1, 5, 4.0, "4", True, None, [4]]))
    elif fault in ("no_dim", "no_vertices"):
        del body["ambient_dim" if fault == "no_dim" else "vertices"]
    elif fault == "nested":
        body["vertices"] = [vertices]
    elif fault == "not_array":
        body["vertices"] = draw(st.sampled_from([[], {}, "0,0", 7, None, [7]]))
    elif fault == "length":
        vertices[-1] = vertices[-1][:-1] if draw(st.booleans()) else vertices[-1] + ["0"]
    elif fault == "rational":
        vertices[-1][-1] = draw(_rational_text())
    elif fault == "type":
        body = draw(st.sampled_from([[], [body], "body", 4, None]))
    return body


def _cli_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=120, deadline=None)
@given(_body_payload())
def test_fuzzed_bodies_exit_zero_or_two(payload):
    # every command that reads a body either works or rejects the payload
    # with exit 2 and one stderr line; none of them exits 3 or prints a
    # traceback, and a body that parses round-trips as a fixed point
    try:
        P = polytope_from_json(payload)
    except FormatError:
        P = None
    if P is not None:
        wire = polytope_to_json(P)
        assert polytope_to_json(polytope_from_json(wire)) == wire
    dim = payload.get("ambient_dim") if isinstance(payload, dict) else None
    ndir = dim if type(dim) is int and 2 <= dim <= 4 else 4
    direction = ",".join(["1", "-2/3", "5", "0"][:ndir])
    with tempfile.TemporaryDirectory() as tmp:
        body = os.path.join(tmp, "body.json")
        cube = os.path.join(tmp, "cube.json")
        with open(body, "w") as fh:
            json.dump(payload, fh)
        with open(cube, "w") as fh:
            json.dump({"ambient_dim": 4, "vertices": [[str(x) for x in v] for v in
                                                      itertools.product((0, 1), repeat=4)]}, fh)
        for argv in (["hull", body], ["volume", body], ["support", body, "--dir", direction],
                     ["op", "diff", "--body", body, "--dir", "1,0,-1/2,3"],
                     ["op", "d_m", "--body", cube, "--M", body, "--dir", "1,0,-1/2,3"],
                     ["mixed", body, cube, cube, cube]):
            code, err = _cli_in_process(argv)
            assert code in (0, 2), (argv[0], err)
            assert (code == 0) == (err == "")
            assert err.count("\n") <= 1 and "Traceback" not in err
            if P is not None and argv[0] in ("hull", "volume"):
                assert code == 0
