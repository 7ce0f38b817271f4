import json
import subprocess
import sys
import time

import pytest

from poissonforms.canonical import (CanonicalConstants, CanonicalTransform,
                                    build_canonical, transform_constants)
from poissonforms.cli import main
from poissonforms.files import (MAX_DIM, chart_from_dict, chart_to_dict,
                                constants_from_dict, constants_to_dict, dumps,
                                load_constants, load_structure,
                                save_constants, save_structure,
                                scalar_from_dict, scalar_to_dict,
                                structure_from_dict, structure_to_dict)
from poissonforms.onedim import HermitianTriple, build_one_dim, one_dim_chart
from poissonforms.bracket import PoissonStructure
from poissonforms.ratexpr import Chart
from poissonforms.scalars import GaussianRational
from fractions import Fraction

from test_canonical import (affine_constants, cybe_violating_constants,
                            mixed_constants, yang_baxter_symmetrized)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    p = subprocess.run([sys.executable, "-m", "poissonforms.cli", *argv],
                       capture_output=True)
    return p.returncode, p.stdout


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def darboux_structure_dict():
    return {"chart": {"coords": ["x", "y"], "kind": "real"},
            "P": [["0", "1"], ["-1", "0"]]}


def torsion_constants_dict():
    gr = lambda v: {"re": str(v), "im": "0"}
    return {"dim": 2,
            "Rt": [{"A": 0, "B": 1, "C": 0, "D": 0, "value": gr(1)},
                   {"A": 0, "B": 1, "C": 1, "D": 1, "value": gr(1)},
                   {"A": 1, "B": 0, "C": 0, "D": 0, "value": gr(-1)},
                   {"A": 1, "B": 0, "C": 1, "D": 1, "value": gr(-1)}],
            "f": [{"A": 0, "B": 1, "C": 0, "value": gr(-1)},
                  {"A": 0, "B": 1, "C": 1, "value": gr(-2)},
                  {"A": 1, "B": 0, "C": 0, "value": gr(1)},
                  {"A": 1, "B": 0, "C": 1, "value": gr(2)}],
            "g": [{"A": 0, "B": 1, "value": gr(1)},
                  {"A": 1, "B": 0, "value": gr(-1)}]}


# -- serialization round trips --------------------------------------------


def test_chart_round_trip():
    for ch in [Chart(("x", "y")),
               Chart(("z", "zb"), kind="complex", pairs=(("z", "zb"),)),
               Chart(("w", "wb", "z", "zb"), kind="complex",
                     pairs=(("z", "zb"), ("w", "wb")))]:
        assert chart_from_dict(chart_to_dict(ch)) == ch


def test_structure_round_trip():
    s = build_one_dim(HermitianTriple(1, GaussianRational(1, 2), 1))
    d = structure_to_dict(s)
    s2 = structure_from_dict(d)
    assert s2.chart == s.chart
    assert s2.P == s.P
    assert s2.Gamma == s.Gamma
    flat = PoissonStructure(Chart(("x", "y")), [["0", "1"], ["-1", "0"]])
    d = structure_to_dict(flat)
    assert "Gamma" not in d
    s3 = structure_from_dict(d)
    assert s3.Gamma == flat.Gamma


def test_constants_round_trip():
    for c in [mixed_constants(), affine_constants(),
              cybe_violating_constants(),
              CanonicalConstants.from_entries(
                  2, g=[(0, 1, GaussianRational(Fraction(1, 2), 3)),
                        (1, 0, GaussianRational(Fraction(-1, 2), -3))])]:
        assert constants_from_dict(constants_to_dict(c)) == c


def test_save_and_load_round_trip(tmp_path):
    """Saved files hold the serialized dict and load to equal values."""
    s = build_one_dim(HermitianTriple(1, GaussianRational(1, 2), 1))
    path = tmp_path / "s.json"
    save_structure(s, str(path))
    assert path.read_text(encoding="utf-8") == dumps(structure_to_dict(s))
    s2 = load_structure(str(path))
    assert (s2.chart, s2.P, s2.Gamma) == (s.chart, s.P, s.Gamma)
    c = mixed_constants()
    path = tmp_path / "c.json"
    save_constants(c, str(path))
    assert path.read_text(encoding="utf-8") == dumps(constants_to_dict(c))
    assert load_constants(str(path)) == c


def test_scalar_dict_errors():
    assert scalar_from_dict({"re": "1/2"}) == GaussianRational(Fraction(1, 2))
    assert scalar_to_dict(GaussianRational(1, -2)) == {"re": "1", "im": "-2"}
    with pytest.raises(ValueError, match="exact rational"):
        scalar_from_dict({"re": "abc"})
    with pytest.raises(ValueError, match="exact rational"):
        scalar_from_dict({"re": "1/0"})
    with pytest.raises(ValueError, match="must be an object"):
        scalar_from_dict("1/2")


def test_malformed_inputs_rejected():
    with pytest.raises(ValueError, match="pairing"):
        chart_from_dict({"coords": ["z", "zb"], "kind": "complex",
                         "pairing": {"z": "nope"}})
    with pytest.raises(ValueError, match="at least one coordinate"):
        chart_from_dict({"coords": []})
    with pytest.raises(ValueError, match="dim"):
        constants_from_dict({"dim": 0})
    with pytest.raises(ValueError, match="index"):
        constants_from_dict({"dim": 2, "g": [{"A": 0, "B": 5,
                                              "value": {"re": "1"}}]})
    with pytest.raises(ValueError, match="must be an array"):
        structure_from_dict({"chart": {"coords": ["x"]}, "P": "nope"})


def test_constants_dim_is_bounded(tmp_path, capsys):
    """A constants file may not ask for more than MAX_DIM coordinates:
    the canonical commands would build that chart before reading an
    entry.  Only the check is run on the huge dim, never a build."""
    assert constants_from_dict({"dim": MAX_DIM}).dim == MAX_DIM
    for dim in (MAX_DIM + 1, 10 ** 9):
        with pytest.raises(ValueError, match=f"dim must be at most {MAX_DIM}"):
            constants_from_dict({"dim": dim})
    path = write_json(tmp_path / "huge.json", {"dim": 10 ** 9})
    code, out, err = run_cli(capsys, "canonical", "check", path)
    assert (code, out) == (2, "")
    assert f"at most {MAX_DIM}" in err


# -- verify ----------------------------------------------------------------


def test_verify_darboux_passes(tmp_path, capsys):
    path = write_json(tmp_path / "darboux.json", darboux_structure_dict())
    code, out, _ = run_cli(capsys, "verify", path, "--count", "2")
    assert code == 0
    assert out.splitlines()[-1].endswith("status: pass")
    assert "[FAIL]" not in out


def test_verify_flags_broken_structure(tmp_path, capsys):
    bad = {"chart": {"coords": ["x", "y"], "kind": "real"},
           "P": [["0", "x"], ["-x", "0"]]}
    path = write_json(tmp_path / "bad.json", bad)
    code, out, _ = run_cli(capsys, "verify", path, "--count", "2")
    assert code == 1
    assert "[FAIL]" in out
    assert out.splitlines()[-1].endswith("status: fail")


def test_verify_complex_structure_includes_complex_checks(tmp_path, capsys):
    s = build_one_dim(HermitianTriple(1, 0, 1))
    path = write_json(tmp_path / "sphere.json", structure_to_dict(s))
    code, out, _ = run_cli(capsys, "verify", path, "--count", "2")
    assert code == 0
    assert "delta-leibniz" in out
    assert "connection-block-diagonal" in out
    assert "poisson-parallel" in out


def test_verify_machine_format(tmp_path, capsys):
    path = write_json(tmp_path / "darboux.json", darboux_structure_dict())
    code, out, _ = run_cli(capsys, "verify", path, "--count", "2",
                           "--format", "machine")
    assert code == 0
    d = json.loads(out)
    assert d["summary"]["status"] == "pass"
    assert d["summary"]["failed"] == 0
    names = [c["name"] for c in d["checks"]]
    assert names == sorted(names)


# -- canonical ---------------------------------------------------------------


def test_canonical_check_passes(tmp_path, capsys):
    path = write_json(tmp_path / "c.json",
                      constants_to_dict(mixed_constants()))
    code, out, _ = run_cli(capsys, "canonical", "check", path)
    assert code == 0
    assert out.splitlines()[-1].endswith("status: pass")


def test_canonical_check_reports_cybe_residual(tmp_path, capsys):
    c = cybe_violating_constants()
    path = write_json(tmp_path / "bad_cybe.json", constants_to_dict(c))
    code, out, _ = run_cli(capsys, "canonical", "check", path,
                           "--format", "machine")
    assert code == 1
    d = json.loads(out)
    fails = [e for e in d["checks"] if e["status"] == "fail"]
    assert [e["name"] for e in fails] == ["yang-baxter"]
    idx = tuple(int(k) for k in
                fails[0]["location"].strip("component ()").split(","))
    assert fails[0]["residual"] == str(yang_baxter_symmetrized(c, *idx))
    assert fails[0]["residual"] != "0"


def test_canonical_build_round_trip(tmp_path, capsys):
    path = write_json(tmp_path / "c.json",
                      constants_to_dict(mixed_constants()))
    out_path = tmp_path / "structure.json"
    code, out, _ = run_cli(capsys, "canonical", "build", path,
                           "--emit", str(out_path))
    assert code == 0
    assert out == ""
    code, out, _ = run_cli(capsys, "verify", str(out_path), "--count", "2")
    assert code == 0
    s, _ = build_canonical(mixed_constants())
    assert structure_to_dict(load_structure(str(out_path))) == structure_to_dict(s)


def test_canonical_build_stdout_and_rejection(tmp_path, capsys):
    path = write_json(tmp_path / "c.json",
                      constants_to_dict(affine_constants()))
    code, out, _ = run_cli(capsys, "canonical", "build", path)
    assert code == 0
    s, _ = build_canonical(affine_constants())
    assert json.loads(out) == structure_to_dict(s)
    bad = write_json(tmp_path / "bad.json",
                     constants_to_dict(cybe_violating_constants()))
    code, out, _ = run_cli(capsys, "canonical", "build", bad)
    assert code == 1
    assert "yang-baxter" in out


def test_canonical_build_validates_constants_once(tmp_path, capsys,
                                                 monkeypatch):
    """`canonical build` reports failing constants itself, so the build
    it runs on passing ones does not check them again."""
    import poissonforms.canonical as canonical
    import poissonforms.cli as cli

    calls = []
    check = canonical.check_constants

    def counted(c):
        calls.append(c)
        return check(c)

    monkeypatch.setattr(canonical, "check_constants", counted)
    monkeypatch.setattr(cli, "check_constants", counted)
    path = write_json(tmp_path / "c.json",
                      constants_to_dict(affine_constants()))
    code, _, _ = run_cli(capsys, "canonical", "build", path)
    assert (code, len(calls)) == (0, 1)


def test_canonical_transform(tmp_path, capsys):
    path = write_json(tmp_path / "c.json",
                      constants_to_dict(mixed_constants()))
    code, out, _ = run_cli(capsys, "canonical", "transform", path,
                           "--N", "2,0;0,1/2", "--V", "1,-1")
    assert code == 0
    want = transform_constants(
        mixed_constants(),
        CanonicalTransform([[2, 0], [0, Fraction(1, 2)]],
                           [1, -1]))
    assert constants_from_dict(json.loads(out)) == want
    code, out, _ = run_cli(capsys, "canonical", "transform", path,
                           "--N", "0,1;1,0")
    assert code == 0
    want = transform_constants(mixed_constants(),
                               CanonicalTransform([[0, 1], [1, 0]]))
    assert constants_from_dict(json.loads(out)) == want


def test_canonical_torsion_zero(tmp_path, capsys):
    path = write_json(tmp_path / "t.json", torsion_constants_dict())
    code, out, _ = run_cli(capsys, "canonical", "torsion-zero", path)
    assert code == 0
    d = json.loads(out)
    assert d["translation"] == [{"re": "-1", "im": "0"},
                                {"re": "-2", "im": "0"}]
    assert "f" not in d["constants"]
    path = write_json(tmp_path / "none.json",
                      constants_to_dict(affine_constants()))
    code, out, _ = run_cli(capsys, "canonical", "torsion-zero", path)
    assert code == 1
    assert "no translation" in out


# -- onedim ------------------------------------------------------------------


def test_onedim_classify_and_curvature(capsys):
    code, out, _ = run_cli(capsys, "onedim", "classify",
                           "--a", "1", "--b", "0", "--c", "-1")
    assert (code, out) == (0, "lobachevskian\n")
    code, out, _ = run_cli(capsys, "onedim", "classify",
                           "--a", "1", "--b", "0", "--c", "1")
    assert (code, out) == (0, "sphere\n")
    code, out, _ = run_cli(capsys, "onedim", "curvature",
                           "--a", "1", "--b", "2", "--c", "1")
    assert (code, out) == (0, "-6\n")
    code, out, _ = run_cli(capsys, "onedim", "curvature",
                           "--a", "0", "--b", "0", "--c", "3")
    assert (code, out) == (0, "0\n")


def test_onedim_moebius(capsys):
    code, out, _ = run_cli(capsys, "onedim", "moebius",
                           "--a", "1", "--b", "1", "--c", "1",
                           "--map", "1,-1,0,1")
    assert code == 0
    d = json.loads(out)
    assert d == {"a": {"re": "1", "im": "0"}, "b": {"re": "0", "im": "0"},
                 "c": {"re": "0", "im": "0"}}
    code, _, err = run_cli(capsys, "onedim", "moebius",
                           "--a", "1", "--b", "1", "--c", "1",
                           "--map", "1,0,0")
    assert code == 2
    assert "four" in err


def test_onedim_build_verify_round_trip(tmp_path, capsys):
    out_path = tmp_path / "s.json"
    code, out, _ = run_cli(capsys, "onedim", "build", "--a", "1",
                           "--b", "1/2+1/3*i", "--c", "1",
                           "--emit", str(out_path))
    assert code == 0
    loaded = load_structure(str(out_path))
    direct = build_one_dim(HermitianTriple(
        1, GaussianRational(Fraction(1, 2), Fraction(1, 3)), 1))
    assert loaded.chart == one_dim_chart()
    assert loaded.P == direct.P
    assert loaded.Gamma == direct.Gamma
    code, out, _ = run_cli(capsys, "verify", str(out_path), "--count", "2")
    assert code == 0


def test_onedim_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "onedim", "classify",
                           "--a", "0", "--b", "0", "--c", "0")
    assert code == 2
    assert "identically zero" in err
    code, _, err = run_cli(capsys, "onedim", "classify",
                           "--a", "i", "--b", "0", "--c", "1")
    assert code == 2
    assert "must be real" in err
    code, _, err = run_cli(capsys, "onedim", "curvature",
                           "--a", "1", "--b", "1+", "--c", "1")
    assert code == 2


# -- report ------------------------------------------------------------------


def test_report_round_trip(tmp_path, capsys):
    spath = write_json(tmp_path / "darboux.json", darboux_structure_dict())
    code, machine, _ = run_cli(capsys, "verify", spath, "--count", "2",
                               "--format", "machine")
    rpath = tmp_path / "rep.json"
    rpath.write_text(machine)
    code, out, _ = run_cli(capsys, "report", str(rpath), "--format", "machine")
    assert code == 0
    assert out == machine
    code, text, _ = run_cli(capsys, "report", str(rpath))
    code2, direct, _ = run_cli(capsys, "verify", spath, "--count", "2")
    assert text == direct


def test_report_exit_mirrors_status(tmp_path, capsys):
    bad = {"chart": {"coords": ["x", "y"], "kind": "real"},
           "P": [["0", "x"], ["-x", "0"]]}
    spath = write_json(tmp_path / "bad.json", bad)
    code, machine, _ = run_cli(capsys, "verify", spath, "--count", "2",
                               "--format", "machine")
    assert code == 1
    rpath = tmp_path / "rep.json"
    rpath.write_text(machine)
    code, out, _ = run_cli(capsys, "report", str(rpath))
    assert code == 1
    assert "[FAIL]" in out
    code, _, err = run_cli(capsys, "report", spath)
    assert code == 2
    assert "not a report" in err


def _one_check_report(**check):
    entry = {"name": "axiom-degree", "status": "pass", "residual": "0",
             "location": ""}
    entry.update(check)
    return {"checks": [entry],
            "summary": {"total": 1, "failed": 0, "status": "pass"}}


@pytest.mark.parametrize("report", [
    _one_check_report(status="bogus"),
    {"checks": [{"name": "axiom-degree", "residual": "0", "location": ""}]},
    _one_check_report(name=3),
    _one_check_report(residual=0),
    _one_check_report(location=["x"]),
    {"checks": [3]},
    dict(_one_check_report(),
         summary={"total": 1, "failed": 1, "status": "fail"}),
    dict(_one_check_report(status="fail"),
         summary={"total": 1, "failed": 0, "status": "pass"}),
    dict(_one_check_report(), summary={"total": 2, "failed": 0,
                                       "status": "pass"}),
], ids=["bogus-status", "missing-status", "int-name", "int-residual",
        "list-location", "int-check", "summary-says-fail",
        "summary-says-pass", "summary-total"])
def test_report_rejects_malformed_file(tmp_path, capsys, report):
    rpath = write_json(tmp_path / "rep.json", report)
    code, out, err = run_cli(capsys, "report", rpath)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_report_accepts_summaryless_file(tmp_path, capsys):
    report = _one_check_report(status="fail")
    del report["summary"]
    code, out, _ = run_cli(capsys, "report", write_json(tmp_path / "r.json",
                                                        report))
    assert code == 1
    assert out.startswith("[FAIL] axiom-degree")


def test_negative_sampling_arguments_rejected(tmp_path, capsys):
    path = write_json(tmp_path / "darboux.json", darboux_structure_dict())
    for flag in ("--count", "--degree"):
        code, out, err = run_cli(capsys, "verify", path, flag, "-3")
        assert code == 2
        assert out == ""
        assert f"argument {flag}: expected a non-negative integer" in err
    code, _, _ = run_cli(capsys, "verify", path, "--count", "0",
                         "--degree", "0")
    assert code == 0


# -- exit codes and determinism ----------------------------------------------


def test_exit_code_two_on_bad_input(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run_cli(capsys, "verify", str(garbage))[0] == 2
    bad = write_json(tmp_path / "expr.json",
                     {"chart": {"coords": ["x", "y"], "kind": "real"},
                      "P": [["0", "x+"], ["-x", "0"]]})
    assert run_cli(capsys, "verify", bad)[0] == 2
    skew = write_json(tmp_path / "skew.json",
                      {"chart": {"coords": ["x", "y"], "kind": "real"},
                       "P": [["0", "1"], ["1", "0"]]})
    assert run_cli(capsys, "verify", skew)[0] == 2
    empty = write_json(tmp_path / "empty.json",
                       {"chart": {"coords": []}, "P": []})
    for count in ([], ["--count", "0"]):
        code, out, err = run_cli(capsys, "verify", empty, *count)
        assert (code, out) == (2, "")
        assert "at least one coordinate" in err
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "canonical", "nonsense")[0] == 2


def test_hostile_expressions_exit_two(tmp_path, capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    path = write_json(tmp_path / "deep.json",
                      {"chart": {"coords": ["x", "y"], "kind": "real"},
                       "P": [["0", deep], ["-x", "0"]]})
    code, out, err = run_cli(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert "nested more than" in err
    code, out, err = run_cli(capsys, "onedim", "curvature", "--a",
                             "10^100000000", "--b", "0", "--c", "1")
    assert (code, out) == (2, "")
    assert "exponent above" in err


@pytest.mark.parametrize("entry", [
    "(a+b+c+d+1)^16", "(a+b+c+d+1)^24",
    "*".join(f"(a+{k}*b+c+d+{k})" for k in range(1, 9)),
    "+".join(f"1/(a+b+c+d+{k})" for k in range(1, 15))])
def test_oversized_expansion_exits_two(tmp_path, capsys, entry):
    zero = ["0"] * 4
    path = write_json(tmp_path / "big.json",
                      {"chart": {"coords": ["a", "b", "c", "d"], "kind": "real"},
                       "P": [["0", entry, "0", "0"], zero, zero, zero]})
    start = time.monotonic()
    code, out, err = run_cli(capsys, "verify", path)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert "predicted to exceed" in err


@pytest.mark.parametrize("field", ["P", "Gamma"])
@pytest.mark.parametrize("entry", [None, 0.5, {}, [1], True],
                         ids=["null", "float", "object", "array", "bool"])
def test_non_expression_entries_exit_two(tmp_path, capsys, field, entry):
    """A structure entry that is neither an expression string nor an
    integer is bad input, a boolean included: main returns 2 with an
    error line instead of raising, so no traceback reaches the user."""
    d = {"chart": {"coords": ["x", "y"], "kind": "real"},
         "P": [[0, 1], [-1, 0]],
         "Gamma": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}
    if field == "P":
        d["P"][0][1] = entry
    else:
        d["Gamma"][1][0][1] = entry
    path = write_json(tmp_path / "entry.json", d)
    code, out, err = run_cli(capsys, "verify", path, "--count", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["verify"], ["report"],
                                     ["canonical", "check"]])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert "nested too deeply" in err


def test_byte_identical_reports_across_processes(tmp_path):
    s = build_one_dim(HermitianTriple(1, 0, 1))
    path = write_json(tmp_path / "s.json", structure_to_dict(s))
    for fmt in ("text", "machine"):
        first = run_proc("verify", str(path), "--count", "3", "--format", fmt)
        second = run_proc("verify", str(path), "--count", "3", "--format", fmt)
        assert first == second
        assert first[0] == 0


def test_seed_changes_samples_not_verdict(tmp_path, capsys):
    path = write_json(tmp_path / "darboux.json", darboux_structure_dict())
    _, a, _ = run_cli(capsys, "verify", path, "--count", "2", "--seed", "0",
                      "--format", "machine")
    _, b, _ = run_cli(capsys, "verify", path, "--count", "2", "--seed", "9",
                      "--format", "machine")
    assert json.loads(a)["summary"] == json.loads(b)["summary"]
