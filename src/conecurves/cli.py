"""Command-line front end.

Commands: roots, gp, ne, classify, affine-compare, selfcheck.
Exit codes: 0 success, 2 invalid input, 3 internal inconsistency.
All output is deterministic; classify emits JSON (default) or TSV.
Integer arguments accept ASCII decimal digits only.  A reader that
closes stdout early (`conecurves ne ... | head -1`) ends the run with
exit code 0 and nothing on stderr: stdout is pointed at os.devnull so
that the interpreter's final flush does not fail again.

The work of one run is bounded: ne, classify and affine-compare refuse a
degree above _MAX_DEGREE while parsing, and ne and classify refuse, from
the count alone and before enumerating, a request for more than
_MAX_CLASSES classes or components (exit code 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from itertools import islice

from . import selfcheck
from .affine import compare_ne_ir
from .components import ComponentReport, classify, count_components, count_solutions, ne
from .conegeom import ConeSpace, build_cone
from .errors import InputError, InternalError
from .parabolic import build_parabolic, kappa, minimal_ample, parse_alpha_p, parse_lambda
from .rootsys import CartanType, build_root_system, highest_root, rho

# Largest --degree accepted; the counts that gate enumeration take O(degree) steps.
_MAX_DEGREE = 100_000
# Largest number of classes (ne) or components (classify) one run may list.
_MAX_CLASSES = 1_000_000
# JSON encoder chunks joined into one stdout write by classify.
_JSON_BATCH = 8192


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are a single machine-readable stderr line."""

    def error(self, message):
        print(f"input error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _decimal(text: str) -> int:
    """argparse type for a nonnegative integer written in ASCII decimal digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII decimal digits, got {text!r}")
    return int(text)


def _degree(text: str) -> int:
    """argparse type for --degree: ASCII decimal digits, at most _MAX_DEGREE."""
    degree = _decimal(text)
    if degree > _MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"degree {degree} exceeds the limit {_MAX_DEGREE}")
    return degree


def _check_size(count: int, what: str) -> None:
    if count > _MAX_CLASSES:
        raise InputError(f"the request has {count} {what}, more than the limit {_MAX_CLASSES}")


def _fmt(vec) -> str:
    return ",".join(str(v) for v in vec)


def _expanded_lambda(cone: ConeSpace) -> list[int]:
    lam = [0] * cone.parabolic.rs.rank
    for i, l in zip(cone.parabolic.alpha_p, cone.ell):
        lam[i - 1] = l
    return lam


def _make_cone(args: argparse.Namespace) -> ConeSpace:
    rs = build_root_system(CartanType.parse(args.type))
    p = build_parabolic(rs, parse_alpha_p(args.parabolic))
    if args.ample.strip().lower() == "min":
        lam = minimal_ample(p)
    else:
        lam = parse_lambda(args.ample, rs.rank)
    return build_cone(p, lam, args.vertex_dim)


def report_to_dict(report: ComponentReport) -> dict:
    cone = report.cone
    return {
        "cone": {
            "type": str(cone.parabolic.rs.cartan_type),
            "parabolic": list(cone.parabolic.alpha_p),
            "lambda": _expanded_lambda(cone),
            "ell": list(cone.ell),
            "vertex_dim": cone.vertex_dim,
            "dim_x": cone.dim_x,
        },
        "total_degree": report.total_degree,
        "case": report.case,
        "components": [
            {
                "beta": list(c.beta.coeffs),
                "alpha_prime": c.alpha_prime,
                "vertex_multiplicity": c.vertex_multiplicity,
                "relative_degree": c.tilde.relative_degree,
                "e": c.vertex_multiplicity,  # classify checked it equal to e
                "dimension": c.dimension,
            }
            for c in report.components
        ],
        "count": len(report.components),
        "equidimensional": report.equidimensional,
    }


def _strip_vertex_stratum(report: ComponentReport) -> ComponentReport:
    kept = tuple(c for c in report.components if any(c.beta.coeffs))
    dims = {c.dimension for c in kept}
    return replace(report, components=kept, equidimensional=len(dims) <= 1)


def cmd_roots(args: argparse.Namespace) -> int:
    rs = build_root_system(CartanType.parse(args.type))
    print(f"type {rs.cartan_type}")
    print(f"count {len(rs.positive_roots)}")
    print(f"rho {_fmt(rho(rs))}")
    print(f"highest_root {_fmt(highest_root(rs))}")
    for g in rs.positive_roots:
        print(f"root {_fmt(g)}")
    return 0


def cmd_gp(args: argparse.Namespace) -> int:
    rs = build_root_system(CartanType.parse(args.type))
    p = build_parabolic(rs, parse_alpha_p(args.parabolic))
    print(f"type {rs.cartan_type}")
    print(f"parabolic {_fmt(p.alpha_p)}")
    print(f"dim_gp {p.dim_gp}")
    print(f"picard_rank {len(p.alpha_p)}")
    print(f"chern {_fmt(p.chern_degrees)}")
    print(f"kappa {_fmt(kappa(p))}")
    print(f"minimal_ample {_fmt(minimal_ample(p))}")
    return 0


def cmd_ne(args: argparse.Namespace) -> int:
    cone = _make_cone(args)
    _check_size(count_solutions(cone.ell, args.degree), "effective classes")
    classes = ne(cone, args.degree)
    for beta in classes:
        print(f"ne {_fmt(beta.coeffs)}")
    print(f"count {len(classes)}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    cone = _make_cone(args)
    _check_size(count_components(cone, args.degree), "components")
    report = classify(cone, args.degree)
    if args.exclude_vertex_stratum:
        report = _strip_vertex_stratum(report)
    if args.format == "json":
        # Streamed so the whole document is never one string; the encoder
        # yields one small chunk per token, so chunks are joined in batches
        # to keep writes few when stdout is unbuffered (python -u).
        chunks = json.JSONEncoder(indent=2).iterencode(report_to_dict(report))
        while batch := "".join(islice(chunks, _JSON_BATCH)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    else:
        print("beta\talpha_prime\tvertex_multiplicity\trelative_degree\te\tdimension")
        for c in report.components:
            m = c.vertex_multiplicity  # classify checked it equal to e
            print(f"{_fmt(c.beta.coeffs)}\t{c.alpha_prime}\t{m}\t{c.tilde.relative_degree}\t{m}\t{c.dimension}")
    return 0


def cmd_affine_compare(args: argparse.Namespace) -> int:
    rs = build_root_system(CartanType.parse(args.type))
    p = build_parabolic(rs, tuple(range(1, rs.rank + 1)))
    cone = build_cone(p, minimal_ample(p), 1)
    cmp = compare_ne_ir(cone, args.degree)
    print("# effective-class count vs level-exactly-d dominant affine weight count;")
    print("# the two are reported side by side and equality is not assumed")
    print(f"type {rs.cartan_type}")
    print(f"degree {cmp.degree}")
    for nodes, marks in zip(cmp.factor_nodes, cmp.factor_comarks):
        print(f"factor nodes={_fmt(nodes)} comarks={_fmt(marks)}")
    print(f"ne={cmp.ne_count} ir={cmp.ir_count} {'MATCH' if cmp.match else 'MISMATCH'}")
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    results = selfcheck.run_all()
    for r in results:
        print(f"{r.name}: {r.checks} checks, {len(r.failures)} failures")
        for f in r.failures[:5]:
            print(f"  FAIL {f}")
    if all(r.ok for r in results):
        print("selfcheck PASS")
        return 0
    print("selfcheck FAIL")
    return 3


def _add_cone_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--type", required=True, help="Cartan type, e.g. A3")
    sp.add_argument("--parabolic", required=True, help="comma-separated marked nodes, e.g. 1,3")
    sp.add_argument(
        "--lambda",
        dest="ample",
        required=True,
        help="ample weight coordinates, e.g. 1,0,2, or 'min' for the minimal ample weight",
    )
    sp.add_argument("--vertex-dim", type=_decimal, required=True, help="dimension of the vertex summand V")
    sp.add_argument("--degree", type=_degree, required=True, help="total curve degree on the cone")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conecurves",
        description="classify components of rational-curve spaces on cones over homogeneous bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="positive roots, rho and highest root of a simple type")
    sp.add_argument("--type", required=True, help="Cartan type, e.g. A3")
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("gp", help="dimension, Picard rank and anticanonical degrees of G/P")
    sp.add_argument("--type", required=True, help="Cartan type, e.g. A3")
    sp.add_argument("--parabolic", required=True, help="comma-separated marked nodes, e.g. 1,3")
    sp.set_defaults(func=cmd_gp)

    sp = sub.add_parser("ne", help="effective classes of a fixed total degree")
    _add_cone_args(sp)
    sp.set_defaults(func=cmd_ne)

    sp = sub.add_parser("classify", help="irreducible components of the curve space on the cone")
    _add_cone_args(sp)
    sp.add_argument("--format", choices=("json", "tsv"), default="json")
    sp.add_argument(
        "--exclude-vertex-stratum",
        action="store_true",
        help="drop components with base class 0 (curves supported on the ruling through the vertex)",
    )
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("affine-compare", help="effective-class count vs affine level count (full flag, minimal ample)")
    sp.add_argument("--type", required=True, help="Cartan type, e.g. A2")
    sp.add_argument("--degree", type=_degree, required=True)
    sp.set_defaults(func=cmd_affine_compare)

    sp = sub.add_parser("selfcheck", help="run the built-in oracle suites")
    sp.set_defaults(func=cmd_selfcheck)

    return parser


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone; what is still buffered goes to devnull at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
