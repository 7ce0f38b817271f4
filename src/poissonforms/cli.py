"""Command-line front end.

Commands: verify, canonical {check|build|transform|torsion-zero},
onedim {build|classify|curvature|moebius}, report.  Exit status 0 when
every check passes, 1 when at least one check fails, 2 on malformed
input or arguments.  Output is byte-identical across runs for the same
inputs and seed.
"""

from __future__ import annotations

import argparse
import sys

from .bracket import SamplePlan, verify_axioms
from .canonical import (CanonicalTransform, _build_checked, check_constants,
                        find_torsion_zero, transform_constants)
from .complexforms import verify_complex_axioms
from .files import (_load_json, constants_to_dict, dumps, load_constants,
                    load_structure, scalar_to_dict, structure_to_dict)
from .geometry import check_integrability
from .onedim import (HermitianTriple, MoebiusMap, build_one_dim, classify,
                     gaussian_curvature, moebius)
from .parsing import parse_scalar
from .ratexpr import Chart
from .report import VerificationReport
from .scalars import GaussianRational

_CONST_CHART = Chart(())


def _const(text: str, what: str) -> GaussianRational:
    try:
        return parse_scalar(text, _CONST_CHART).const_value()
    except ValueError as exc:
        raise ValueError(f"bad {what}: {exc}") from None


def _vector(text: str, what: str) -> list:
    return [_const(p, what) for p in text.split(",")]


def _matrix(text: str, what: str) -> list:
    return [_vector(row, what) for row in text.split(";")]


def _render(rep: VerificationReport, fmt: str) -> str:
    if fmt == "machine":
        return dumps(rep.to_dict())
    return rep.render_text()


def _emit(args, text: str) -> None:
    if getattr(args, "emit", None):
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(rep: VerificationReport, args) -> int:
    sys.stdout.write(_render(rep, args.format))
    return 0 if rep.passed else 1


def _plan(args) -> SamplePlan:
    return SamplePlan(degree=args.degree, count=args.count, seed=args.seed)


# -- commands -------------------------------------------------------------


def _cmd_verify(args) -> int:
    s = load_structure(args.path)
    rep = VerificationReport()
    rep.extend(verify_axioms(s, _plan(args)))
    rep.extend(check_integrability(s))
    if s.chart.is_complex():
        rep.extend(verify_complex_axioms(s, _plan(args)))
    return _finish(rep, args)


def _cmd_report(args) -> int:
    d = _load_json(args.path)
    if not isinstance(d, dict) or not isinstance(d.get("checks"), list):
        raise ValueError("not a report file")
    rep = VerificationReport.from_dict(d)
    return _finish(rep, args)


def _cmd_canonical_check(args) -> int:
    return _finish(check_constants(load_constants(args.path)), args)


def _cmd_canonical_build(args) -> int:
    c = load_constants(args.path)
    rep = check_constants(c)
    if not rep.passed:
        return _finish(rep, args)
    s, _ = _build_checked(c)
    _emit(args, dumps(structure_to_dict(s)))
    return 0


def _cmd_canonical_transform(args) -> int:
    c = load_constants(args.path)
    N = _matrix(args.N, "--N entry")
    V = _vector(args.V, "--V entry") if args.V else None
    out = transform_constants(c, CanonicalTransform(N, V))
    _emit(args, dumps(constants_to_dict(out)))
    return 0


def _cmd_canonical_torsion_zero(args) -> int:
    c = load_constants(args.path)
    t = find_torsion_zero(c)
    if t is None:
        sys.stdout.write("no translation removes the linear part\n")
        return 1
    zero = GaussianRational(0)
    out = {"translation": [scalar_to_dict(t.V.get((k,), zero))
                           for k in range(t.dim)],
           "constants": constants_to_dict(transform_constants(c, t))}
    _emit(args, dumps(out))
    return 0


def _triple(args) -> HermitianTriple:
    return HermitianTriple(_const(args.a, "--a"), _const(args.b, "--b"),
                           _const(args.c, "--c"))


def _cmd_onedim_build(args) -> int:
    s = build_one_dim(_triple(args))
    _emit(args, dumps(structure_to_dict(s)))
    return 0


def _cmd_onedim_classify(args) -> int:
    sys.stdout.write(classify(_triple(args)) + "\n")
    return 0


def _cmd_onedim_curvature(args) -> int:
    k = gaussian_curvature(_triple(args))
    sys.stdout.write(str(k.const_value()) + "\n")
    return 0


def _cmd_onedim_moebius(args) -> int:
    parts = _vector(args.map, "--map entry")
    if len(parts) != 4:
        raise ValueError("--map takes four comma-separated entries")
    out = moebius(_triple(args), MoebiusMap(*parts))
    _emit(args, dumps({"a": scalar_to_dict(out.a), "b": scalar_to_dict(out.b),
                       "c": scalar_to_dict(out.c)}))
    return 0


# -- parser ---------------------------------------------------------------


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "machine"), default="text",
                   help="report rendering (default text)")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _add_sampling(p) -> None:
    p.add_argument("--degree", type=_non_negative_int, default=2,
                   help="max degree of sampled polynomials (default 2)")
    p.add_argument("--count", type=_non_negative_int, default=25,
                   help="number of sampled argument tuples (default 25)")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (default 0)")


def _add_triple(p) -> None:
    p.add_argument("--a", required=True, help="real rational, e.g. 1/2")
    p.add_argument("--b", required=True,
                   help="complex rational, e.g. 1/2+3/4*i")
    p.add_argument("--c", required=True, help="real rational")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonforms",
        description="Exact checks for graded Poisson brackets on forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a structure file")
    p.add_argument("path")
    _add_sampling(p)
    _add_format(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("report", help="re-render a machine report")
    p.add_argument("path")
    _add_format(p)
    p.set_defaults(fn=_cmd_report)

    can = sub.add_parser("canonical", help="constants-file operations")
    csub = can.add_subparsers(dest="subcommand", required=True)

    p = csub.add_parser("check", help="closure conditions on constants")
    p.add_argument("path")
    _add_format(p)
    p.set_defaults(fn=_cmd_canonical_check)

    p = csub.add_parser("build", help="structure file from constants")
    p.add_argument("path")
    p.add_argument("--emit", help="write the structure here instead of stdout")
    _add_format(p)
    p.set_defaults(fn=_cmd_canonical_build)

    p = csub.add_parser("transform", help="affine change of coordinates")
    p.add_argument("path")
    p.add_argument("--N", required=True,
                   help="matrix, rows ';'-separated, entries ','-separated")
    p.add_argument("--V", help="translation, ','-separated")
    p.add_argument("--emit")
    p.set_defaults(fn=_cmd_canonical_transform)

    p = csub.add_parser("torsion-zero",
                        help="translation removing the linear part")
    p.add_argument("path")
    p.add_argument("--emit")
    p.set_defaults(fn=_cmd_canonical_torsion_zero)

    one = sub.add_parser("onedim", help="hermitian-triple structures")
    osub = one.add_subparsers(dest="subcommand", required=True)

    p = osub.add_parser("build", help="structure file from a triple")
    _add_triple(p)
    p.add_argument("--emit")
    p.set_defaults(fn=_cmd_onedim_build)

    p = osub.add_parser("classify", help="plane, sphere, or lobachevskian")
    _add_triple(p)
    p.set_defaults(fn=_cmd_onedim_classify)

    p = osub.add_parser("curvature", help="constant gaussian curvature")
    _add_triple(p)
    p.set_defaults(fn=_cmd_onedim_curvature)

    p = osub.add_parser("moebius", help="congruence action on a triple")
    _add_triple(p)
    p.add_argument("--map", required=True,
                   help="alpha,beta,gamma,delta with exact entries")
    p.add_argument("--emit")
    p.set_defaults(fn=_cmd_onedim_moebius)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
