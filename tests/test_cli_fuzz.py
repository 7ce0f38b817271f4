"""Hostile input driven through `cli.main` in process.

Every example must end with exit status 0, 1 or 2 (returned or raised as
SystemExit), print no traceback and finish within a generous time bound:
bad input is exit 2 with an error line, never an uncaught exception or a
hang.  The examples are derandomized, so a run is reproducible.
"""

import json
import sys
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from poissonforms.cli import main
from poissonforms.parsing import MAX_DEPTH, MAX_EXPONENT

FUZZ = settings(derandomize=True, max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])
BOUND_S = 20.0


def _check(capsys, argv):
    start = time.monotonic()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    assert time.monotonic() - start < BOUND_S, argv
    return code, err, out


def _object_text(pairs) -> str:
    """A JSON object written from (key, value) pairs, repeated keys kept."""
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                           for k, v in pairs) + "}"


def _write(tmp_path, text) -> str:
    path = tmp_path / "input.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    return str(path)


# Expressions at and just past the parser's depth and exponent limits, a
# power whose predicted expansion is just past its size limit, and small
# random ones, well formed or not.
_ATOMS = st.sampled_from(["x", "y", "0", "1", "-1", "i", "1/2", "x+y", "d[x]",
                          "q", "", "0^-1", "(x-x)^-1", "0^0", "x/0"])
EXPRESSIONS = st.one_of(
    st.integers(MAX_DEPTH - 2, MAX_DEPTH + 1).map(
        lambda k: "(" * k + "x" + ")" * k),
    st.integers(MAX_EXPONENT - 1, MAX_EXPONENT + 1).map(
        lambda k: f"(x+1)^{k}"),
    st.integers(44, 46).map(lambda k: f"(x+y+1)^{k}"),
    st.recursive(_ATOMS, lambda inner: st.tuples(
        inner, st.sampled_from("+-*/^"), inner).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"), max_leaves=4),
    st.text(alphabet="xy0123456789+-*/^()[]di. e", max_size=12))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.floats(allow_nan=True, width=16),
                    st.text(max_size=3), st.lists(st.integers(0, 1),
                                                  max_size=2))
ENTRIES = st.one_of(EXPRESSIONS, SCALARS)


@st.composite
def structure_texts(draw):
    """Structure files: a 2 x 2 chart with hostile entries, or arbitrary
    fields, in either case possibly with repeated keys."""
    chart = draw(st.one_of(
        st.just({"coords": ["x", "y"], "kind": "real"}),
        st.just({"coords": ["z", "zb"], "kind": "complex",
                 "pairing": {"z": "zb"}}),
        st.fixed_dictionaries({
            "coords": st.lists(st.one_of(st.sampled_from(
                ["x", "y", "z", "zb", "i", "", "1x"]), SCALARS), max_size=3),
            "kind": st.one_of(st.sampled_from(["real", "complex", "x"]),
                              SCALARS),
            "pairing": st.one_of(SCALARS, st.dictionaries(
                st.sampled_from(["x", "y", "z", "zb", "q"]),
                st.one_of(st.sampled_from(["x", "zb"]), SCALARS),
                max_size=2))}),
        SCALARS))
    square = st.lists(st.lists(ENTRIES, min_size=2, max_size=2),
                      min_size=2, max_size=2)
    P = draw(st.one_of(square, st.lists(st.lists(ENTRIES, max_size=3),
                                        max_size=3), SCALARS))
    pairs = [("chart", chart), ("P", P)]
    if draw(st.booleans()):
        pairs.append(("Gamma", draw(st.one_of(
            st.lists(square, min_size=2, max_size=2), SCALARS))))
    if draw(st.booleans()):
        pairs.append((draw(st.sampled_from(["chart", "P", "Gamma"])),
                      draw(ENTRIES)))
    return _object_text(draw(st.permutations(pairs)))


RATIONALS = st.one_of(st.sampled_from(
    ["1", "-2/3", "1.5", "1e40", "1e999999999", "1/0", "nan", "inf", "x",
     " 1 ", "1_000", ""]), SCALARS)
INDICES = st.one_of(st.integers(-1, 3), SCALARS)


@st.composite
def constants_texts(draw):
    """Constants files with small dimensions and hostile entries."""
    def entries(keys):
        return st.lists(st.one_of(st.fixed_dictionaries(
            {**{k: INDICES for k in keys},
             "value": st.one_of(st.fixed_dictionaries(
                 {"re": RATIONALS, "im": RATIONALS}), SCALARS)}), SCALARS),
            max_size=4)

    pairs = [("dim", draw(st.one_of(st.integers(-1, 3), SCALARS))),
             ("Rt", draw(entries("ABCD"))), ("f", draw(entries("ABC"))),
             ("g", draw(entries("AB")))]
    if draw(st.booleans()):
        pairs.append(("dim", draw(st.integers(1, 3))))
    return _object_text(draw(st.permutations(pairs)))


CHECKS = st.one_of(st.fixed_dictionaries({
    "name": st.one_of(st.sampled_from(["axiom-degree", ""]), SCALARS),
    "status": st.one_of(st.sampled_from(
        ["pass", "fail", "not-applicable", "PASS"]), SCALARS),
    "residual": st.one_of(st.just("0"), SCALARS),
    "location": st.one_of(st.just(""), SCALARS)}), SCALARS)
REPORTS = st.one_of(
    st.fixed_dictionaries({"checks": st.one_of(
        st.lists(CHECKS, max_size=3), SCALARS)}, optional={
        "summary": st.one_of(st.fixed_dictionaries({
            "total": st.integers(0, 3), "failed": st.integers(0, 3),
            "status": st.sampled_from(["pass", "fail"])}), SCALARS)}),
    SCALARS)

TOKENS = st.sampled_from([
    "verify", "report", "canonical", "check", "build", "transform",
    "torsion-zero", "onedim", "classify", "curvature", "moebius", "--a",
    "--b", "--c", "--N", "--V", "--map", "--format", "machine", "text",
    "--count", "--degree", "--seed", "--emit", "--help", "-1", "0", "1",
    "1/2", "i", "x", "0^-1", "1e5", "1,0;0,1", "1;0", "1,0,0,1", "0,0,0,0",
    "(((1)))", "10^100000000", "", "input.json"])


@FUZZ
@given(text=structure_texts(), fmt=st.sampled_from(["text", "machine"]))
def test_verify_hostile_structures(tmp_path, capsys, text, fmt):
    _check(capsys, ["verify", _write(tmp_path, text), "--count", "1",
                    "--degree", "1", "--format", fmt])


@FUZZ
@given(text=constants_texts(),
       command=st.sampled_from([["check"], ["build"], ["torsion-zero"],
                                ["transform", "--N", "1,1;0,1", "--V", "1,0"],
                                ["transform", "--N", "0"]]))
def test_canonical_hostile_constants(tmp_path, capsys, text, command):
    _check(capsys, ["canonical", command[0], _write(tmp_path, text),
                    *command[1:]])


@FUZZ
@given(report=REPORTS, fmt=st.sampled_from(["text", "machine"]))
def test_report_hostile_files(tmp_path, capsys, report, fmt):
    _check(capsys, ["report", _write(tmp_path, report), "--format", fmt])


@FUZZ
@given(argv=st.lists(TOKENS, max_size=8))
def test_hostile_argv(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    _check(capsys, argv)


def test_negative_power_of_zero_exits_two(tmp_path, capsys):
    """0^-1 in a structure entry is a division by zero in the input, not
    an uncaught ZeroDivisionError."""
    path = _write(tmp_path, {"chart": {"coords": ["x", "y"], "kind": "real"},
                             "P": [["0", "0^-1"], ["-1", "0"]]})
    code, err, _ = _check(capsys, ["verify", path])
    assert code == 2
    assert "division by zero" in err


def test_exponent_notation_in_constants_exits_two(tmp_path, capsys):
    """A rational written with an exponent is refused before Fraction
    expands it to millions of digits."""
    path = _write(tmp_path, {"dim": 2, "g": [
        {"A": 0, "B": 1, "value": {"re": "1e5000000", "im": "0"}},
        {"A": 1, "B": 0, "value": {"re": "-1", "im": "0"}}]})
    start = time.monotonic()
    code, err, _ = _check(capsys, ["canonical", "check", path])
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert "not an exact rational" in err


def test_numbers_past_the_digit_limit_are_written_in_full(tmp_path, capsys):
    """Python refuses str() of an int past 4300 digits.  A valid structure
    whose residuals grow that long still fails its laws with exit 1 and
    every digit written, in both formats; a literal that long in the
    input is still refused with exit 2."""
    n = "7" * 2500
    path = _write(tmp_path, {"chart": {"coords": ["x", "y"]}, "P": [
        ["0", f"({n})^2*x*y"], [f"-({n})^2*x*y", "0"]]})
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        square = str(int(n) ** 2)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(square) > limit
    residual = f"{square}*y*d[x] + {square}*x*d[y]"
    code, err, out = _check(capsys, ["verify", path, "--count", "1"])
    assert code == 1, err
    assert (f"[FAIL] axiom-dleibniz at generators (x,y) residual={residual}\n"
            in out)
    code, err, out = _check(capsys, ["verify", path, "--count", "1",
                                     "--format", "machine"])
    assert code == 1, err
    assert {"name": "axiom-dleibniz", "status": "fail",
            "location": "generators (x,y)", "residual": residual
            } in json.loads(out)["checks"]

    path = _write(tmp_path, {"chart": {"coords": ["x", "y"]}, "P": [
        ["0", f"{square}*x*y"], [f"-{square}*x*y", "0"]]})
    code, err, _ = _check(capsys, ["verify", path, "--count", "1"])
    assert code == 2
    assert f"({limit} digits)" in err
